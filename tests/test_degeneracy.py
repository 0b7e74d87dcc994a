import itertools
import random

import pytest

from conftest import (
    ANTI_TRIVIAL,
    ARITHMETICAL,
    MAJORITY,
    MALTSEV,
    MINORITY,
    SU2,
    SU3,
    SUBTRACTION,
    TRIVIAL,
    UNITAL,
)
from mclex import (
    DegeneracyClass,
    candidate_stream,
    classify,
    degeneracy_class,
    is_anti_trivial,
    is_trivial,
    matrix,
    normalize,
    parse_matrix,
)
from mclex.degeneracy import kind_of_rows
from mclex.matrix import STAR
from test_matrix import all_matrices


def test_trivial_examples():
    assert is_trivial(TRIVIAL)
    assert is_trivial(parse_matrix("* | 1"))
    assert is_trivial(parse_matrix("2 | 1"))


def test_nondegenerate_examples():
    for M in (UNITAL, SUBTRACTION, SU2, SU3, MALTSEV, MAJORITY, ARITHMETICAL, MINORITY):
        assert not is_trivial(M)
        assert not is_anti_trivial(M)
        assert degeneracy_class(M) is DegeneracyClass.PROPER


def test_anti_trivial_examples():
    assert is_anti_trivial(ANTI_TRIVIAL)
    assert is_anti_trivial(parse_matrix("1 | 1"))
    assert is_anti_trivial(parse_matrix("1 * | 1 ; * 1 | *"))
    assert not is_anti_trivial(MALTSEV)


def test_degeneracy_class_order():
    assert degeneracy_class(TRIVIAL) is DegeneracyClass.TRIVIAL
    assert degeneracy_class(ANTI_TRIVIAL) is DegeneracyClass.ANTI_TRIVIAL
    assert degeneracy_class(SUBTRACTION) is DegeneracyClass.PROPER


def test_no_matrix_is_both():
    # degeneracy_class tests anti-triviality first, which needs this
    windows = [candidate_stream(*w) for w in ((3, 3, 2), (4, 3, 1), (2, 6, 3))]
    grids = itertools.chain(all_matrices(2, 2, 1), map(matrix, itertools.chain(*windows)))
    for M in grids:
        assert not (is_trivial(M) and is_anti_trivial(M)), M.text()


def test_repeated_right_entries_join_condition():
    # two variable-right rows whose repeated right entries sit in columns that
    # the join relation cannot connect
    assert is_trivial(parse_matrix("1 2 | 1 ; 2 1 | 1"))
    # connecting them through a shared star column saves the matrix
    assert not is_trivial(parse_matrix("1 * | 1 ; * 1 | 1"))


def test_star_right_row_condition():
    # a star-right row with no join-related star-carrying column forces
    # triviality
    assert is_trivial(parse_matrix("1 | 1 ; 2 | *"))
    assert not is_trivial(parse_matrix("1 * | 1 ; 1 1 | *"))


def test_normalization_invariance():
    for M in all_matrices(2, 2, 2):
        N = normalize(M)
        assert is_trivial(M) == is_trivial(N)
        assert is_anti_trivial(M) == is_anti_trivial(N)


def _reference_anti_trivial(M):
    # is_anti_trivial as it was before it read the columns off one zip
    right = M.right_column
    if all(e == STAR for e in right):
        return True
    return any(M.left_column(j) == right for j in range(M.m))


def _reference_kind(M):
    if _reference_anti_trivial(M):
        return DegeneracyClass.ANTI_TRIVIAL
    if is_trivial(M):
        return DegeneracyClass.TRIVIAL
    return DegeneracyClass.PROPER


def _random_grids(count, seed):
    """Seeded grids of up to 4 rows and 4 left columns, m == 0 included;
    every third one has an all-star right column."""
    rng = random.Random(seed)
    for i in range(count):
        n, m, k = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 3)
        rows = [[rng.randint(0, k) for _ in range(m + 1)] for _ in range(n)]
        if i % 3 == 0:
            for row in rows:
                row[-1] = STAR
        yield matrix(rows, k)


@pytest.mark.parametrize("source", ["candidates", "random"])
def test_row_level_kind_matches_reference(source):
    if source == "candidates":
        windows = [candidate_stream(*w) for w in ((3, 3, 2), (4, 3, 1), (2, 6, 3))]
        grids = map(matrix, itertools.chain(*windows))
    else:
        grids = _random_grids(3000, seed=15)
    for M in grids:
        want = _reference_kind(M)
        assert kind_of_rows(M.rows) is want, M.text()
        assert degeneracy_class(M) is want, M.text()
        assert is_anti_trivial(M) == _reference_anti_trivial(M), M.text()


def test_classify_leaves_the_triviality_cache_small():
    # classify sorts its candidates on rows without the cache; only the
    # matrices that it decides reach is_trivial (2,277 cached row tuples
    # when the cache held every candidate)
    is_trivial.cache_clear()
    classify(3, 3, 2)
    assert is_trivial.cache_info().currsize < 200
