"""The traced benchmark wraps mclex functions by module and name, and every
benchmark run records mclex.BACKEND; these tests fail when a refactor moves
or renames one of them."""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer, module_name, attr", _tracer().LAYERS)
def test_traced_layer_resolves(layer, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), layer


def test_saturate_record_is_third_argument():
    # the tracer splits saturate spans by `record`, given by keyword or as
    # the third positional argument
    params = list(inspect.signature(importlib.import_module("mclex.closure").saturate).parameters)
    assert params[2] == "record"


def test_kernel_backend_exposed():
    # perfbench/unit.py records mclex.BACKEND in every result line, so a
    # refactor that drops it would fail the benchmark, not only this test
    import mclex

    assert mclex.BACKEND == "python"
