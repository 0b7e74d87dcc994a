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
from mclex.degeneracy import _row_view, kind_of_rows
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


def _reference_joined(row, other, a, b):
    # the union-find join of two rows' kernels that triviality used before
    # it read cached row views: nodes 0..m, node m joined to every star
    m = len(row) - 1
    comp = list(range(m + 1))
    for r in (row, other):
        for j, e in enumerate(r[:-1]):
            x, y = comp[j], comp[m if e == STAR else r.index(e)]
            if x != y:
                comp = [y if c == x else c for c in comp]
    return comp[a] == comp[b]


def _reference_trivial(rows):
    m = len(rows[0]) - 1
    anchors = []
    for row in rows:
        r = row[-1]
        if r == STAR:
            anchors.append(m)
        elif r in row[:-1]:
            anchors.append(row.index(r))
        else:
            return True
    return any(
        anchors[i] != anchors[ip]
        and not _reference_joined(rows[i], rows[ip], anchors[i], anchors[ip])
        for i, ip in itertools.combinations(range(len(rows)), 2)
    )


def _reference_kind(M):
    if _reference_anti_trivial(M):
        return DegeneracyClass.ANTI_TRIVIAL
    if _reference_trivial(M.rows):
        return DegeneracyClass.TRIVIAL
    return DegeneracyClass.PROPER


def _random_grids(count, seed):
    """Seeded grids of up to 5 rows and 5 left columns, m == 0 included;
    every third one has an all-star right column."""
    rng = random.Random(seed)
    for i in range(count):
        n, m, k = rng.randint(1, 5), rng.randint(0, 5), rng.randint(0, 3)
        rows = [[rng.randint(0, k) for _ in range(m + 1)] for _ in range(n)]
        if i % 3 == 0:
            for row in rows:
                row[-1] = STAR
        yield matrix(rows, k)


@pytest.mark.parametrize("source", ["candidates", "random"])
def test_row_level_kind_matches_reference(source):
    if source == "candidates":
        windows = (candidate_stream(*w) for w in ((3, 3, 2), (4, 3, 1), (4, 4, 1), (2, 6, 3)))
        grids = map(matrix, itertools.chain(*windows))
    else:
        grids = _random_grids(3000, seed=15)
    for M in grids:
        want = _reference_kind(M)
        assert kind_of_rows(M.rows) is want, M.text()
        assert degeneracy_class(M) is want, M.text()
        assert is_trivial(M) == _reference_trivial(M.rows), M.text()
        assert is_anti_trivial(M) == _reference_anti_trivial(M), M.text()


def test_row_view_cache_stays_bounded():
    info = _row_view.cache_info()
    assert info.maxsize is not None and info.maxsize <= 1024
    _row_view.cache_clear()
    for rows in candidate_stream(2, 6, 3):
        kind_of_rows(rows)
    assert _row_view.cache_info().currsize <= info.maxsize


def test_classify_leaves_the_triviality_cache_small():
    # classify sorts its candidates on rows without the cache; only the
    # matrices that it decides reach is_trivial (2,277 cached row tuples
    # when the cache held every candidate)
    is_trivial.cache_clear()
    classify(3, 3, 2)
    assert is_trivial.cache_info().currsize < 200
