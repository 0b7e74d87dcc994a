"""Acceptance suite: one test per frozen expectation.

The heavy enumerations are gated behind MCLEX_SLOW=1 (they take hours on a
laptop); everything else runs in the default suite.
"""

from conftest import (
    ARITHMETICAL,
    MALTSEV,
    MINORITY,
    NORMAL_PROJECTIONS,
    SU2,
    SU2_CANON,
    SU3,
    SUBTRACTION,
    UNITAL,
    classified,
    slow,
)
from mclex import classify, decide, decide_pair, matrix, saturate
from mclex.closure import check_tableau, encode_column
from mclex.degeneracy import DegeneracyClass, is_trivial
from mclex.enumeration import ANCHORS, candidate_stream, compute_groups
from mclex.localization import loc_equal
from mclex import oracle
from mclex.matrix import STAR


def _count(n, m, k):
    return len(classified((n, m, k)).classes)


def _subposet_count(graph, anchor):
    return sum(
        1
        for c in graph.classes
        if c.kind is DegeneracyClass.PROPER and loc_equal(c.rep, anchor)
    )


# --- criterion 1: sizes of the 3-row two-variable windows --------------------


def test_criterion_1_sizes_3xmx2():
    assert [_count(3, m, 2) for m in range(5)] == [2, 2, 8, 42, 217]


@slow
def test_criterion_1_sizes_3xmx2_slow():
    assert _count(3, 5, 2) == 1137
    assert _count(3, 6, 2) == 5100


# --- criterion 2: sizes of the 4-row one-variable windows --------------------


def test_criterion_2_sizes_4xmx1():
    assert [_count(4, m, 1) for m in range(6)] == [2, 2, 8, 48, 156, 453]


@slow
def test_criterion_2_sizes_4xmx1_slow():
    expected = {
        6: 1066,
        7: 1953,
        8: 2841,
        9: 3502,
        10: 3822,
        11: 3957,
        12: 4007,
        13: 4023,
        14: 4027,
    }
    for m, want in expected.items():
        assert _count(4, m, 1) == want
    # saturation: one more column adds nothing
    assert _count(4, 15, 1) == 4027


# --- criterion 3: the six-class two-row poset --------------------------------


def test_criterion_3_two_row_poset():
    graph = classify(2, 3, 2, with_order=True, with_groups=True)
    assert len(graph.classes) == 6
    by_text = {c.rep.text(): c.id for c in graph.classes}
    # canonical representatives (smallest column-major reading per class)
    assert set(by_text) == {
        "| 1",
        "| *",
        "1 2 2 | 1 ; 2 1 2 | 1",
        "1 * * | 1 ; 2 1 2 | 1",
        "1 * | 1 ; 1 1 | *",
        "1 * | 1 ; * 1 | 1",
    }
    # each display-form matrix lands in the expected class
    reps = {c.id: c.rep for c in graph.classes}
    for display, text in [
        (MALTSEV, "1 2 2 | 1 ; 2 1 2 | 1"),
        (SU2, "1 * * | 1 ; 2 1 2 | 1"),
        (UNITAL, "1 * | 1 ; * 1 | 1"),
        (SUBTRACTION, "1 * | 1 ; 1 1 | *"),
    ]:
        rep = reps[by_text[text]]
        assert decide_pair(display, rep) and decide_pair(rep, display)
    bottom, top = by_text["| 1"], by_text["| *"]
    mal = by_text["1 2 2 | 1 ; 2 1 2 | 1"]
    su = by_text["1 * * | 1 ; 2 1 2 | 1"]
    sub = by_text["1 * | 1 ; 1 1 | *"]
    uni = by_text["1 * | 1 ; * 1 | 1"]
    assert graph.reduced == {
        (bottom, mal),
        (mal, su),
        (su, sub),
        (su, uni),
        (sub, top),
        (uni, top),
    }


# --- criterion 4: known equivalences and implications ------------------------


def test_criterion_4_known_implications():
    # strongly unital = unital together with subtraction
    assert decide([SU2], [UNITAL, SUBTRACTION])[0]
    assert decide([UNITAL, SUBTRACTION], [SU2])[0]
    # the two strongly unital presentations imply each other
    assert decide_pair(SU2_CANON, SU3) and decide_pair(SU3, SU2_CANON)
    # the three-row normality-of-projections matrix is the subtraction class
    assert decide_pair(NORMAL_PROJECTIONS, SUBTRACTION)
    assert decide_pair(SUBTRACTION, NORMAL_PROJECTIONS)
    # pointed Mal'tsev implies strongly unital
    assert decide_pair(MALTSEV, SU2)
    # arithmetical implies minority (the missing arrow)
    assert decide_pair(ARITHMETICAL, MINORITY)


# --- criterion 5: localization subposet counts -------------------------------


@slow
def test_criterion_5_subposet_counts():
    g352 = classify(3, 5, 2)
    assert _subposet_count(g352, ANCHORS["maltsev"]) == 268

    g362 = classify(3, 6, 2)
    assert _subposet_count(g362, ANCHORS["arithmetical"]) == 123
    assert _subposet_count(g362, ANCHORS["majority"]) == 89
    assert _subposet_count(g362, ANCHORS["minority"]) == 12

    g4141 = classify(4, 14, 1)
    assert _subposet_count(g4141, ANCHORS["arithmetical"]) == 4
    assert _subposet_count(g4141, ANCHORS["majority"]) == 3
    assert _subposet_count(g4141, ANCHORS["minority"]) == 1


# --- criterion 6: localization groups of the one-variable window -------------


def test_criterion_6_thirteen_groups():
    graph = classify(3, 6, 1)
    groups = compute_groups(graph.classes)
    assert len(groups) == 13


# --- criterion 7: oracle equivalence suite -----------------------------------


def test_criterion_7_oracle_suite():
    # triviality agrees with two-element functionality and with forbidden
    # reductions on every normalized small matrix
    for rows in candidate_stream(3, 3, 2):
        M = matrix(rows)
        t = is_trivial(M)
        assert t == (not oracle.is_functional(M, 2))
        assert t == oracle.has_forbidden_reduction(M)

    # closure saturation agrees with the oracle's reflection
    cands = [matrix(r) for r in candidate_stream(2, 2, 1)]
    for M in cands:
        for N in cands:
            base = N.k + 1
            mask, _ = saturate([M], N, stop_at_goal=False)
            cols = [N.left_column(j) for j in range(N.m)] + [(0,) * N.n]
            refl = oracle.reflect(oracle.alphabet_relation(N.k, N.n, cols), [M])
            mask2 = 0
            for t in refl.tuples:
                mask2 |= 1 << encode_column(t, base)
            assert mask == mask2

    # the running example's four closedness verdicts
    R = oracle.relation(2, [(0, 0), (1, 0), (1, 1)])
    swapped = matrix((SU2.rows[1], SU2.rows[0]), SU2.k)
    assert oracle.strictly_closed(R, SU2)
    assert not oracle.strictly_closed(R, swapped)
    assert oracle.closed(R, swapped)
    assert not oracle.sharp(R, SU2)


# --- criterion 8: tableau fidelity -------------------------------------------


def test_criterion_8_tableau_fidelity():
    forward, f_tabs = decide([SU2_CANON], [SU3], record=True)
    reverse, r_tabs = decide([SU3], [SU2_CANON], record=True)
    assert forward and reverse
    f, r = f_tabs[0], r_tabs[0]
    assert check_tableau(f) and check_tableau(r)
    # the forward certificate adds exactly the columns of the known
    # three-step derivation (step order may differ)
    assert sorted(f.added_columns()) == sorted(
        [(STAR, STAR, STAR), (STAR, STAR, 1), (1, 1, STAR)]
    )
    assert sorted(r.added_columns()) == sorted([(STAR, STAR), (1, STAR), (1, 1)])
    # final column sets contain the goals' right columns
    assert SU3.right_column in f.final_columns
    assert SU2_CANON.right_column in r.final_columns


# --- criterion 9: two-row window saturation ----------------------------------


@slow
def test_criterion_9_two_row_saturation():
    base = sorted(c.rep.text() for c in classify(2, 3, 2).classes)
    wide = sorted(c.rep.text() for c in classify(2, 14, 3).classes)
    deep = sorted(c.rep.text() for c in classify(2, 10, 4).classes)
    assert wide == base
    assert deep == base
