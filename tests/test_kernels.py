"""Parity between the compiled closure kernel and the pure-Python fallback,
and of the pure-Python kernels with unpruned, rule-by-rule references.

The parity tests compile the shipped src/mclex/_closure_c.c into a
temporary directory with the interpreter's own compiler settings, so they
run wherever a C compiler and the Python headers are found."""

import importlib.util
import itertools
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from conftest import MALTSEV, SUBTRACTION

from mclex import _closure_py, _kernel
from mclex.closure import col_star_mask, encode_column, instantiate
from mclex.enumeration import _probe_masks, probes_for
from mclex import matrix

try:
    from mclex import _closure_c
except ImportError:
    _closure_c = None

needs_c = pytest.mark.skipif(_closure_c is None, reason="compiled kernel unavailable")

C_SOURCE = Path(_closure_py.__file__).with_name("_closure_c.c")


@pytest.fixture(scope="session")
def c_kernel(tmp_path_factory):
    """The shipped C kernel, built into a temporary directory and loaded by
    path; nothing is written next to the sources."""
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not ldshared or shutil.which(ldshared[0]) is None:
        pytest.skip("no C compiler")
    if not C_SOURCE.exists():
        pytest.skip("the generated C source is not shipped with this install")
    include = sysconfig.get_paths()["include"]
    if not Path(include, "Python.h").exists():
        pytest.skip("no Python headers")
    out = tmp_path_factory.mktemp("ckernel") / (
        "_closure_c" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    cmd = ldshared + shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    cmd += ["-O2", "-I", include, str(C_SOURCE), "-o", str(out)]
    built = subprocess.run(cmd, capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    spec = importlib.util.spec_from_file_location("mclex._closure_c", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND == "c"
    return module


def random_matrix(rng, n, m, k):
    rows = []
    for _ in range(n):
        rows.append(tuple(rng.randrange(k + 1) for _ in range(m + 1)))
    return matrix(rows, k)


def test_closure_mask_parity_random(c_kernel):
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 3)
        k = rng.randint(1, 2)
        S = [random_matrix(rng, rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2))]
        N = random_matrix(rng, n, rng.randint(0, 3), k)
        mats = [(M.m, instantiate(M, k)) for M in S]
        r0 = col_star_mask(N)
        stop = encode_column(N.right_column, k + 1)
        for s in (-1, stop):
            a = _closure_py.closure_mask(n, k, mats, r0, s)
            b = c_kernel.closure_mask(n, k, mats, r0, s)
            assert a == b


def test_closure_mask_parity_large_universe_fallback(c_kernel):
    # above the compiled bitset capacity the C entry point must defer to the
    # reference implementation
    rng = random.Random(1)
    N = random_matrix(rng, 4, 3, 4)
    S = [random_matrix(rng, 2, 3, 2)]
    mats = [(M.m, instantiate(M, 4)) for M in S]
    r0 = col_star_mask(N)
    assert c_kernel.closure_mask(4, 4, mats, r0, -1) == _closure_py.closure_mask(
        4, 4, mats, r0, -1
    )


def reference_closure_mask(n, k, mats, r0, stop=-1):
    """Unpruned odometer: every n-tuple of rows is completed before its
    left columns are tested."""
    weights = [(k + 1) ** i for i in range(n)]
    r = r0
    if stop >= 0 and (r >> stop) & 1:
        return r
    changed = True
    while changed:
        changed = False
        for m, rows in mats:
            for combo in itertools.product(rows, repeat=n):
                cols = [sum(combo[i][j] * weights[i] for i in range(n)) for j in range(m)]
                if all((r >> c) & 1 for c in cols):
                    right = sum(combo[i][-1] * weights[i] for i in range(n))
                    if not (r >> right) & 1:
                        r |= 1 << right
                        changed = True
                        if right == stop:
                            return r
    return r


def _closure_cases(rng):
    """(n, k, mats, r0, goal) over n = 1..4 and k = 1..3, with one to three
    hypotheses, m == 0 hypotheses and empty row lists among them."""
    cases = []
    for n in range(1, 5):
        for k in range(1, 4):
            for _ in range(16):
                N = random_matrix(rng, n, rng.randint(0, 3), k)
                S = [
                    random_matrix(rng, rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2))
                    for _ in range(rng.randint(1, 3))
                ]
                mats = [(M.m, instantiate(M, k)) for M in S]
                # keep the unpruned reference small: rows**n tuples per scan
                mats = [(m, rows[: max(1, int(3000 ** (1 / n)))]) for m, rows in mats]
                cases.append((n, k, mats, col_star_mask(N), encode_column(N.right_column, k + 1)))
    r0, code = col_star_mask(SUBTRACTION), encode_column(SUBTRACTION.right_column, 2)
    cases.append((2, 1, [(0, [(1,), (0,)])], r0, code))  # m == 0 only
    cases.append((2, 1, [(2, [])], r0, code))  # empty row list
    cases.append((2, 1, [(2, []), (0, [(1,)]), (1, [(1, 1), (0, 1)])], r0, code))
    cases.append((1, 3, [(0, [(2,)]), (1, [(2, 3)]), (1, [(3, 1)])], 1, 1))
    return cases


def test_closure_mask_matches_reference():
    for n, k, mats, r0, goal in _closure_cases(random.Random(2024)):
        for stop in (-1, goal):
            expected = reference_closure_mask(n, k, mats, r0, stop)
            assert _closure_py.closure_mask(n, k, mats, r0, stop) == expected, (n, k, mats, r0, stop)


# the Mal'tsev matrix with 97 more copies of its constant column (2, 2): 100
# left columns; against the subtraction goal it derives every column
WIDE = matrix([row[:-1] + (2,) * 97 + row[-1:] for row in MALTSEV.rows])


def _wide_call():
    N = SUBTRACTION
    return (N.n, N.k, [(WIDE.m, instantiate(WIDE, N.k))], col_star_mask(N),
            encode_column(N.right_column, N.k + 1))


def test_closure_mask_wide_hypothesis():
    n, k, mats, r0, goal = _wide_call()
    assert WIDE.m == 100
    for stop in (-1, goal):
        assert reference_closure_mask(n, k, mats, r0, stop) == 15
        assert _closure_py.closure_mask(n, k, mats, r0, stop) == 15


def test_kernel_routes_wide_hypothesis_past_c(c_kernel, monkeypatch):
    # the compiled kernel keeps at most 64 partial left columns per depth
    n, k, mats, r0, goal = _wide_call()
    monkeypatch.setattr(_kernel, "_impl", c_kernel)
    for stop in (-1, goal):
        assert _kernel.closure_mask(n, k, mats, r0, stop) == 15
    # within capacity the compiled kernel is the one called
    calls = []
    monkeypatch.setattr(c_kernel, "closure_mask", lambda *a: calls.append(a) or 0)
    narrow = [(MALTSEV.m, instantiate(MALTSEV, k))]
    assert _kernel.closure_mask(n, k, narrow, r0, goal) == 0 and len(calls) == 1


def test_sharp_bits_parity_random(c_kernel):
    rng = random.Random(7)
    for _ in range(60):
        n_p = rng.randint(1, 3)
        k_p = rng.randint(1, 2)
        if (k_p + 1) ** n_p > 27:
            continue
        masks = _probe_masks(n_p, k_p)[:200]
        M = random_matrix(rng, rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2))
        rows = instantiate(M, k_p)
        a = _closure_py.sharp_bits(n_p, k_p, M.m, rows, masks)
        b = c_kernel.sharp_bits(n_p, k_p, M.m, rows, masks)
        assert a == b


def test_sharp_bits_empty_rows(c_kernel):
    masks = _probe_masks(2, 1)
    full = (1 << len(masks)) - 1
    assert c_kernel.sharp_bits(2, 1, 1, (), masks) == full


def test_sharp_bits_empty_rows_python():
    masks = _probe_masks(2, 1)
    full = (1 << len(masks)) - 1
    assert _closure_py.sharp_bits(2, 1, 1, (), masks) == full


def reference_sharp_bits(n, k, m, rows, rel_masks):
    """Rule-by-rule evaluation: each rule tested against each mask."""
    base = k + 1
    weights = [base**i for i in range(n)]
    rules = set()
    for combo in itertools.product(rows, repeat=n):
        ant = 0
        for j in range(m):
            code = sum(combo[i][j] * weights[i] for i in range(n))
            ant |= 1 << code
        cons = sum(combo[i][-1] * weights[i] for i in range(n))
        rules.add((ant, cons))
    out = 0
    for i, rm in enumerate(rel_masks):
        ok = True
        for ant, cons in rules:
            if (rm & ant) == ant and not (rm >> cons) & 1:
                ok = False
                break
        if ok:
            out |= 1 << i
    return out


def _probe_shapes():
    # every probe of the windows up to n=4, k=2, and the k+1 probes that
    # compute_groups takes for their localized matrices
    return sorted({p for n in range(1, 5) for k in range(1, 4) for p in probes_for(n, k)})


@pytest.mark.parametrize("probe", _probe_shapes())
def test_sharp_bits_matches_reference(probe):
    n_p, k_p = probe
    masks = _probe_masks(n_p, k_p)
    rng = random.Random(n_p * 10 + k_p)
    mats = [
        matrix([(1, 2, 1)]),  # every rule has its consequent among its antecedents
        matrix([(1, 2, 2), (2, 1, 2)]),  # some rules have, some have not
        matrix([(1,)]),  # m == 0
        matrix([(0,), (1,)]),  # m == 0
    ]
    for _ in range(40):
        mats.append(
            random_matrix(rng, rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2))
        )
    for M in mats:
        rows = instantiate(M, k_p)
        expected = reference_sharp_bits(n_p, k_p, M.m, rows, masks)
        assert _closure_py.sharp_bits(n_p, k_p, M.m, rows, masks) == expected, M
        # a prefix of the masks is another cache key over the same universe
        head = list(masks[:100])
        assert _closure_py.sharp_bits(n_p, k_p, M.m, rows, head) == expected & (
            (1 << len(head)) - 1
        )
    full = (1 << len(masks)) - 1
    assert _closure_py.sharp_bits(n_p, k_p, 0, (), masks) == full
    all_trivial = mats[0]
    rows = instantiate(all_trivial, k_p)
    assert _closure_py.sharp_bits(n_p, k_p, all_trivial.m, rows, masks) == full


def test_pure_python_env_override():
    env = dict(os.environ, MCLEX_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", "import mclex; print(mclex.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "python"


@needs_c
def test_default_backend_is_compiled():
    env = {k: v for k, v in os.environ.items() if k != "MCLEX_PURE_PYTHON"}
    out = subprocess.run(
        [sys.executable, "-c", "import mclex; print(mclex.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout.strip() == "c"


def test_decide_results_identical_across_backends():
    script = (
        "from mclex import decide, parse_matrix\n"
        "import itertools\n"
        "mats = ['1 * | 1 ; * 1 | 1', '1 * | 1 ; 1 1 | *',"
        " '1 2 2 | 1 ; 2 1 2 | 1', '1 * * | 1 ; 2 1 2 | 1']\n"
        "ms = [parse_matrix(t) for t in mats]\n"
        "print([int(decide([a], [b])[0]) for a in ms for b in ms])\n"
    )
    outs = []
    for pure in ("0", "1"):
        env = dict(os.environ, MCLEX_PURE_PYTHON=pure)
        r = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
