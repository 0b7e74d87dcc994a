import itertools

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
    degeneracy_class,
    is_anti_trivial,
    is_trivial,
    matrix,
    normalize,
    parse_matrix,
)
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
