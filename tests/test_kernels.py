"""Parity between the compiled closure kernel and the pure-Python fallback,
and of the bit-sliced signature kernel with a rule-by-rule reference."""

import itertools
import os
import random
import subprocess
import sys

import pytest

from mclex import _closure_py
from mclex.closure import col_star_mask, encode_column, instantiate
from mclex.enumeration import _probe_masks, probes_for
from mclex import matrix

try:
    from mclex import _closure_c
except ImportError:
    _closure_c = None

needs_c = pytest.mark.skipif(_closure_c is None, reason="compiled kernel unavailable")


def random_matrix(rng, n, m, k):
    rows = []
    for _ in range(n):
        rows.append(tuple(rng.randrange(k + 1) for _ in range(m + 1)))
    return matrix(rows, k)


@needs_c
def test_closure_mask_parity_random():
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
            b = _closure_c.closure_mask(n, k, mats, r0, s)
            assert a == b


@needs_c
def test_closure_mask_parity_large_universe_fallback():
    # above the compiled bitset capacity the C entry point must defer to the
    # reference implementation
    rng = random.Random(1)
    N = random_matrix(rng, 4, 3, 4)
    S = [random_matrix(rng, 2, 3, 2)]
    mats = [(M.m, instantiate(M, 4)) for M in S]
    r0 = col_star_mask(N)
    assert _closure_c.closure_mask(4, 4, mats, r0, -1) == _closure_py.closure_mask(
        4, 4, mats, r0, -1
    )


@needs_c
def test_sharp_bits_parity_random():
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
        b = _closure_c.sharp_bits(n_p, k_p, M.m, rows, masks)
        assert a == b


@needs_c
def test_sharp_bits_empty_rows():
    masks = _probe_masks(2, 1)
    full = (1 << len(masks)) - 1
    assert _closure_c.sharp_bits(2, 1, 1, (), masks) == full


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
