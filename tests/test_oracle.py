import itertools
import random

import pytest

from conftest import ANTI_TRIVIAL, MALTSEV, SU2, SUBTRACTION, TRIVIAL, UNITAL
from mclex import decide, matrix, parse_matrix, saturate
from mclex.closure import col_star_mask, encode_column
from mclex.degeneracy import is_anti_trivial, is_trivial
from mclex import oracle
from mclex.enumeration import candidate_stream
from test_matrix import all_matrices

# the running example: R = {(*,*), (a,*), (a,a)} on the two-element pointed set
R_EXAMPLE = oracle.relation(2, [(0, 0), (1, 0), (1, 1)])
SU_SWAPPED = parse_matrix("2 2 1 | 1 ; 1 * * | 1")


# --- the four closedness verdicts of the running example ---------------------


def test_example_strictly_closed_for_su():
    assert oracle.strictly_closed(R_EXAMPLE, SU2)


def test_example_not_strictly_closed_for_swapped_rows():
    assert not oracle.strictly_closed(R_EXAMPLE, SU_SWAPPED)


def test_example_closed_for_swapped_rows():
    assert oracle.closed(R_EXAMPLE, SU_SWAPPED)


def test_example_not_sharp_for_su():
    assert not oracle.sharp(R_EXAMPLE, SU2)


# --- generic relationships ---------------------------------------------------


def test_full_cube_always_closed():
    full = oracle.relation(2, itertools.product(range(2), repeat=2))
    for M in (SU2, SU_SWAPPED, MALTSEV, UNITAL):
        assert oracle.strictly_closed(full, M)
        assert oracle.closed(full, M)
        assert oracle.sharp(full, M)


def test_strict_implies_plain_closed():
    rels = oracle.all_pointed_relations(2, 2)
    for M in all_matrices(2, 1, 1):
        for R in rels:
            if oracle.strictly_closed(R, M):
                assert oracle.closed(R, M)


def test_sharp_implies_strictly_closed():
    rels = oracle.all_pointed_relations(2, 2)
    for M in all_matrices(2, 1, 1):
        for R in rels:
            if oracle.sharp(R, M):
                assert oracle.strictly_closed(R, M)


def test_anti_trivial_always_strictly_closed():
    rels = oracle.all_pointed_relations(2, 1)
    for R in rels:
        assert oracle.strictly_closed(R, ANTI_TRIVIAL)


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        oracle.strictly_closed(R_EXAMPLE, parse_matrix("1 | 1 ; 1 | 1 ; 1 | 1"))
    with pytest.raises(ValueError):
        oracle.closed(oracle.relation(2, [(0,)]), SU2)


def test_caps_enforced():
    with pytest.raises(ValueError):
        oracle.PointedSet(5)
    with pytest.raises(ValueError):
        oracle.ConcreteRelation(oracle.PointedSet(2), 5, frozenset({(0,) * 5}))


# --- functionality and triviality --------------------------------------------


def test_functional_in_singleton():
    assert oracle.is_functional(TRIVIAL, 1)
    assert oracle.is_functional(MALTSEV, 1)


def test_trivial_means_not_functional_on_two_points():
    assert not oracle.is_functional(TRIVIAL, 2)
    assert oracle.is_functional(UNITAL, 2)


def test_functionality_size_independent():
    for M in all_matrices(2, 1, 1):
        f2 = oracle.is_functional(M, 2)
        assert f2 == oracle.is_functional(M, 3)
        assert f2 == oracle.is_functional(M, 4)


def test_forbidden_reduction_examples():
    assert oracle.has_forbidden_reduction(parse_matrix("* | 1"))
    assert not oracle.has_forbidden_reduction(UNITAL)


def _random_grids(count, seed):
    """Seeded grids of 3-4 rows, 1-4 left columns and k <= 2, with no
    constraint on the order of the rows."""
    rng = random.Random(seed)
    for _ in range(count):
        n, m, k = rng.randint(3, 4), rng.randint(1, 4), rng.randint(1, 2)
        yield matrix([[rng.randint(0, k) for _ in range(m + 1)] for _ in range(n)], k)


def test_triviality_equivalences_exhaustive_small():
    for M in itertools.chain(all_matrices(2, 2, 1), _random_grids(500, seed=7)):
        t = is_trivial(M)
        assert t == (not oracle.is_functional(M, 2)), M.text()
        assert t == oracle.has_forbidden_reduction(M), M.text()


def test_anti_triviality_oracle_agreement():
    for M in all_matrices(2, 2, 1):
        assert is_anti_trivial(M) == oracle.set_star_has_closed_relations(M)
    assert oracle.set_star_has_closed_relations(ANTI_TRIVIAL)
    assert not oracle.set_star_has_closed_relations(MALTSEV)


# --- reflection vs closure engine --------------------------------------------


def _reflect_mask(M, N):
    cols = [N.left_column(j) for j in range(N.m)] + [(0,) * N.n]
    R0 = oracle.alphabet_relation(N.k, N.n, cols)
    refl = oracle.reflect(R0, [M])
    base = N.k + 1
    mask = 0
    for t in refl.tuples:
        mask |= 1 << encode_column(t, base)
    return mask


def test_reflect_empty_hypotheses():
    R = R_EXAMPLE
    assert oracle.reflect(R, []).tuples == R.tuples


def test_reflect_equals_saturation_exhaustive():
    cands = [matrix(r) for r in candidate_stream(2, 2, 1)]
    for M in cands:
        for N in cands:
            mask, _ = saturate([M], N, stop_at_goal=False)
            assert mask == _reflect_mask(M, N)


def test_decide_forward_soundness_sample():
    # whenever decide says yes, every sharp relation on small carriers is
    # closed for the goal
    cands = [matrix(r) for r in candidate_stream(2, 2, 1)]
    rels = {
        arity: [
            R
            for size in (2, 3)
            for R in oracle.all_pointed_relations(size, arity)
        ]
        for arity in (1, 2)
    }
    for M in cands:
        if is_trivial(M):
            continue
        for N in cands:
            if decide([M], [N])[0]:
                for R in rels[N.n]:
                    if oracle.sharp(R, M):
                        assert oracle.closed(R, N)
