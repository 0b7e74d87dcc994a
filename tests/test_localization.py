import itertools

import pytest

from conftest import (
    ANTI_TRIVIAL,
    MAJORITY,
    MALTSEV,
    SU2,
    SU2_CANON,
    SU3,
    SUBTRACTION,
    TRIVIAL,
    UNITAL,
)
from mclex import (
    candidate_stream,
    decide,
    decide_pair,
    is_admissible,
    is_trivial,
    loc_bottom,
    loc_equal,
    localize,
    matrix,
    normalize,
    parse_matrix,
    substitute_star,
)
from mclex.enumeration import ANCHORS
from test_enumeration import _random_proper


# --- star substitution -------------------------------------------------------


def test_substitute_star_maltsev():
    assert substitute_star(MALTSEV, 2).rows == parse_matrix("1 * * | 1 ; * * 1 | 1").rows
    assert substitute_star(MALTSEV, 1).text() == "* 2 2 | * ; 2 2 * | *"


def test_substitute_star_majority():
    assert substitute_star(MAJORITY, 2).text() == "* 1 1 | 1 ; 1 * 1 | 1 ; 1 1 * | 1"


def test_substitute_star_guards():
    with pytest.raises(ValueError):
        substitute_star(MALTSEV, 3)
    with pytest.raises(ValueError):
        substitute_star(UNITAL, 1)  # not star-free
    with pytest.warns(UserWarning):
        out = substitute_star(parse_matrix("#nmk 2 1 2\n1 | 1 ; 1 | 1"), 2)
    assert out.rows == ((1, 1), (1, 1))


# --- admissible pairs --------------------------------------------------------


def test_admissible_maltsev_x2():
    w = is_admissible(MALTSEV, 2)
    assert w is not None and w.column == 1


def test_admissible_maltsev_x1_absent():
    assert is_admissible(MALTSEV, 1) is None


def test_admissible_majority_x2_absent():
    assert is_admissible(MAJORITY, 2) is None


def test_admissible_guards():
    with pytest.raises(ValueError):
        is_admissible(UNITAL, 1)  # not star-free
    with pytest.raises(ValueError):
        is_admissible(MALTSEV, 5)


def test_admissible_pair_localizes_back():
    # substituting out an admissible variable does not change the imposed
    # local property
    w = is_admissible(MALTSEV, 2)
    assert w is not None
    assert loc_equal(substitute_star(MALTSEV, 2), MALTSEV)


# --- localization ------------------------------------------------------------


def test_localize_strongly_unital():
    L = localize(SU2)
    assert L.text() == "3 1 3 3 | 1 ; 3 2 2 1 | 1"
    assert L.is_nonpointed


def test_localize_top():
    assert localize(ANTI_TRIVIAL).text() == "1 | 1"


def test_localize_unital_is_maltsev():
    L = localize(UNITAL)
    assert L.text() == "2 1 2 | 1 ; 2 2 1 | 1"
    assert normalize(L).rows == normalize(MALTSEV).rows


def test_loc_equal_unital_subtraction():
    assert loc_equal(UNITAL, SUBTRACTION)
    assert loc_equal(UNITAL, MALTSEV)
    assert not loc_equal(UNITAL, MAJORITY)


def test_loc_equal_trivial_cases():
    assert loc_equal(TRIVIAL, parse_matrix("* | 1"))
    assert not loc_equal(TRIVIAL, UNITAL)
    assert not loc_equal(ANTI_TRIVIAL, TRIVIAL)


def test_loc_equal_equivalence_relation():
    pool = [TRIVIAL, ANTI_TRIVIAL, UNITAL, SUBTRACTION, SU2, MALTSEV, MAJORITY]
    for A in pool:
        assert loc_equal(A, A)
        for B in pool:
            assert loc_equal(A, B) == loc_equal(B, A)
            for C in pool:
                if loc_equal(A, B) and loc_equal(B, C):
                    assert loc_equal(A, C)


@pytest.mark.parametrize("window", [(3, 3, 2), (4, 3, 1)], ids=str)
def test_loc_equal_is_two_decides_on_localized_matrices(window):
    mats = _random_proper(window, 12, seed=sum(window) + 2)
    agree = 0
    for A, B in itertools.combinations(mats, 2):
        la, lb = localize(A), localize(B)
        expected = decide([la], [lb])[0] and decide([lb], [la])[0]
        assert loc_equal(A, B) == expected, (A, B)
        agree += expected
    assert agree  # some pairs are localization-equal


def test_star_free_matrix_viewed_pointed():
    # a star-free matrix imposes on localizations exactly its own non-pointed
    # property
    for M in (MALTSEV, MAJORITY):
        assert loc_equal(M, M)
        L = localize(M)
        assert decide([M], [L])[0] or decide([L], [M])[0]


def test_loc_bottom_maltsev_group():
    group = [UNITAL, SUBTRACTION, SU2_CANON, SU3, MALTSEV]
    bottom = loc_bottom(group)
    assert bottom is MALTSEV
    for other in group:
        assert decide_pair(bottom, other)


def test_loc_bottom_singleton():
    assert loc_bottom([UNITAL]) is UNITAL


def test_loc_bottom_absent_without_maltsev_member():
    # one-variable strongly unital group pieces: no member implies all others
    assert loc_bottom([UNITAL, SUBTRACTION]) is None


def test_loc_bottom_incoherent_group():
    with pytest.raises(ValueError):
        loc_bottom([UNITAL, MAJORITY])
    with pytest.raises(ValueError):
        loc_bottom([])


def test_anchor_dictionary_is_consistent():
    for name, anchor in ANCHORS.items():
        assert anchor.is_nonpointed
        assert loc_equal(anchor, anchor)


@pytest.mark.parametrize("window,non_trivial", [
    ((3, 3, 2), 722), ((4, 3, 1), 343), ((2, 4, 2), 209), ((3, 6, 1), 275),
], ids=str)
def test_localize_keeps_triviality(window, non_trivial):
    # the signature filter of compute_groups and subposet_by_localization
    # rests on this: a localized proper class is not trivial
    count = 0
    for rows in candidate_stream(*window):
        M = matrix(rows)
        assert is_trivial(localize(M)) == is_trivial(M), M.text()
        count += not is_trivial(M)
    assert count == non_trivial
