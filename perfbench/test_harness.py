"""Tests of the benchmark harness itself.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import mclex  # noqa: E402
import mclex.enumeration  # noqa: E402
import mclex.localization  # noqa: E402

import pinned  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibrator  # noqa: E402
from stats import digest, order_failures, percentile, transitive_closure  # noqa: E402
from tracer import (Tracer, layer_metrics, layer_stats, metric_specs,  # noqa: E402
                    overhead_ns, wrapper_cost_ns)


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 95) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_digest_is_stable_and_sensitive():
    assert digest({"a": 1, "b": [1, 2]}) == digest({"b": [1, 2], "a": 1})
    assert digest({"a": 1, "b": [1, 2]}) != digest({"a": 1, "b": [2, 1]})
    assert len(digest("x")) == 16


def test_order_failures():
    chain = {(0, 1), (1, 2), (0, 2)}
    assert transitive_closure({(0, 1), (1, 2)}) == chain
    assert order_failures(3, chain, {(0, 1), (1, 2)}, bottom=0, top=2) == []
    assert order_failures(3, {(0, 1), (1, 2)}, {(0, 1), (1, 2)})  # not closed
    assert order_failures(3, chain, chain)  # (0, 2) follows from two others
    assert order_failures(2, {(0, 1), (1, 0)}, {(0, 1), (1, 0)})  # two-way pair
    assert order_failures(3, chain, {(0, 1), (1, 2)}, bottom=1)


def _span(name, parent, start, end, note=None):
    return [name, parent, start, end, note]


def test_layer_stats_self_time():
    s = 10**9
    spans = [
        _span("a", -1, 0, 10 * s),
        _span("b", 0, 1 * s, 4 * s),
        _span("c", 1, 2 * s, 3 * s),
        _span("b", 0, 5 * s, 6 * s),
        _span("b", 3, 5 * s, 5 * s + s // 2),  # recursion: not busy time twice
    ]
    st = layer_stats(spans)
    assert st["a"] == {"s": 10, "self_s": 10 - 3 - 1, "calls": 1}
    assert st["b"]["calls"] == 3
    assert st["b"]["s"] == 4
    assert st["b"]["self_s"] == pytest.approx((3 - 1) + (1 - 0.5) + 0.5)
    assert st["c"] == {"s": 1, "self_s": 1, "calls": 1}


def test_layer_metrics_ratios_and_probes():
    spans = [
        _span("enumeration.Decider.implies", -1, 0, 10),
        _span("enumeration.decide", 0, 1, 9, True),
        _span("enumeration.Decider.implies", -1, 10, 11),  # cache hit
        _span("localization.decide", -1, 20, 30, False),
        _span("kernel.sharp_bits", -1, 30, 40, "p3-2"),
    ]
    m = layer_metrics(spans)
    assert m["closure.decide.true_ratio"] == 0.5
    assert m["enumeration.Decider.hit_ratio"] == 0.5
    assert m["kernel.sharp_bits.p3-2.calls"] == 1
    assert m["kernel.sharp_bits.p4-1.calls"] == 0
    assert set(m) | {"trace.overhead_s"} == {name for name, _u, _b in metric_specs()}


def test_overhead_counts_each_span_at_its_wrapper_cost():
    spans = [
        _span("enumeration.decide", -1, 0, 10),
        _span("kernel.closure_mask", 0, 1, 2),
        _span("kernel.sharp_bits", -1, 20, 30, "p1-1"),
    ]
    assert overhead_ns(spans, 100, 300) == 100 + 2 * 300
    plain, sampled = wrapper_cost_ns(time.perf_counter_ns, calls=2000)
    assert 0 < plain < sampled


def test_tracer_patches_every_binding_and_restores():
    originals = (mclex.decide, mclex.enumeration.decide, mclex.localization.decide)
    A = mclex.parse_matrix("1 2 2 | 1 ; 2 2 1 | 1")
    B = mclex.parse_matrix("1 * * | 1 ; 2 2 1 | 1")
    tracer = Tracer(seed=0)
    tracer.install()
    try:
        mclex.decide([A], [B])
        mclex.enumeration.Decider().implies(A, B)
        mclex.localization.loc_equal(A, B)
    finally:
        tracer.uninstall()
    assert (mclex.decide, mclex.enumeration.decide, mclex.localization.decide) == originals
    names = [span[0] for span in tracer.spans]
    for name in ("closure.decide", "enumeration.decide", "localization.decide",
                 "closure.saturate", "kernel.closure_mask", "localization.loc_equal"):
        assert name in names
    assert tracer.samples["closure_mask"]
    parents = {span[0]: tracer.spans[span[1]][0] for span in tracer.spans if span[1] >= 0}
    assert parents["enumeration.decide"] == "enumeration.Decider.implies"


def test_smoke_two_row_poset():
    """Criterion 3's six classes and Hasse diagram, through the traced
    classify and the hasse workload's request and checks."""
    tracer = Tracer(seed=0)
    tracer.install()
    try:
        graph = mclex.classify(2, 3, 2)
        reps = [c.rep for c in graph.classes]
        edges, reduced = workloads.hasse_order(reps)
    finally:
        tracer.uninstall()
    texts = [M.text() for M in reps]
    assert order_failures(len(reps), edges, reduced,
                          bottom=texts.index("| 1"), top=texts.index("| *")) == []
    named = {(texts[i], texts[j]) for i, j in reduced}
    mal, su = "1 2 2 | 1 ; 2 1 2 | 1", "1 * * | 1 ; 2 1 2 | 1"
    sub, uni = "1 * | 1 ; 1 1 | *", "1 * | 1 ; * 1 | 1"
    assert named == {("| 1", mal), (mal, su), (su, sub), (su, uni), (sub, "| *"), (uni, "| *")}
    metrics = layer_metrics(tracer.spans)
    assert metrics["enumeration.classify.calls"] == 1
    assert metrics["enumeration.compute_edges.calls"] == 1
    assert metrics["enumeration.Decider.implies.calls"] == 30
    assert metrics["kernel.sharp_bits.calls"] > 0


def test_certify_strata_follow_the_pool_sizes():
    strata = workloads.certify_strata({(3, 4, 2): 4629, (4, 4, 1): 1375}, total=1000)
    per_pool = {}
    for count, window, hyps, goals in strata:
        per_pool[window] = per_pool.get(window, 0) + count
    assert per_pool == {(3, 4, 2): 771, (4, 4, 1): 229}
    assert sum(c for c, _w, h, g in strata if (h, g) == (1, 1)) == 617 + 183
    assert {(h, g) for _c, _w, h, g in strata} == {(1, 1), (2, 1), (1, 2)}


def test_pinned_representatives_are_classify_output():
    for window, texts in pinned.REPS.items():
        assert [c.rep.text() for c in mclex.classify(*window).classes] == texts


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.RUN_SECONDS


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hasse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibrator_clock_leaves_out_slices():
    calibrator = Calibrator()
    t0, c0 = time.perf_counter_ns(), calibrator.clock_ns()
    calibrator.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        calibrator.stop()
    assert len(calibrator.slices) >= 3
    left_out = time.perf_counter_ns() - t0 - (calibrator.clock_ns() - c0)
    assert abs(left_out - calibrator.stolen_ns) < 10**6
    assert calibrator.stolen_ns >= sum(calibrator.slices) * 1e9 * 0.99
    assert calibrator.slowdown() > 0
