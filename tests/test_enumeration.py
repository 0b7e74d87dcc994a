import collections
import functools
import hashlib
import itertools
import json
import random
import sys

import pytest

from conftest import (
    ANTI_TRIVIAL,
    MALTSEV,
    SU2,
    SU2_CANON,
    SU3,
    TRIVIAL,
    LATER_MEMBER,
    classified as _classified,
    write_later_member_checkpoint,
)

import mclex
from mclex import (
    ANCHORS,
    _kernel,
    canonical,
    candidate_stream,
    classify,
    compute_edges,
    lex_key,
    matrix,
    normalize,
    parse_matrix,
    transitive_reduction,
    window_caps,
)
from mclex.closure import decide, instantiate
from mclex.degeneracy import DegeneracyClass, degeneracy_class, is_trivial, kind_of_rows
from mclex.enumeration import (
    _EDGE_PROBES,
    CheckpointError,
    ClassNode,
    Decider,
    PosetGraph,
    _probe_bits,
    _probe_masks,
    candidate_batches,
    compute_groups,
    probes_for,
    signature,
    subposet_by_localization,
)
from mclex.export import poset_to_dot, poset_to_json
from mclex.localization import loc_equal, localize
from mclex.matrix import _normalize_rows
from test_matrix import all_matrices, symmetric_copy


# --- caps and candidate generation -------------------------------------------


def test_window_caps():
    assert window_caps(2, 14, 3) == (14, 3)
    assert window_caps(2, 10, 4) == (10, 4)
    assert window_caps(2, 5, 2) == (5, 2)
    assert window_caps(2, 14, 2) == (7, 2)  # (k+1)^n - 2
    assert window_caps(4, 15, 1) == (14, 1)
    assert window_caps(3, 0, 2) == (0, 2)
    assert window_caps(3, 2, 5) == (2, 1)  # k clamped to m - 1


def test_candidates_unique_and_ordered():
    seen = set()
    for shape, batch in candidate_batches(3, 3, 2):
        batch = list(batch)  # a generator: the keys alone would use it up
        keys = [(_maxvar(rows), lex_key(matrix(rows))) for rows in batch]
        assert keys == sorted(keys)
        for rows in batch:
            assert rows not in seen
            seen.add(rows)


def test_batches_keep_their_shape_when_held():
    # each batch binds its shape: taken all before streaming, the (1, 0)
    # batch once streamed the (2, 3) candidates
    batches = list(candidate_batches(2, 3, 2))
    assert [shape for shape, _batch in batches] == [
        (n_, m_) for n_ in (1, 2) for m_ in range(4)
    ]
    for (n_, m_), batch in batches:
        assert all(len(rows) == n_ and {len(r) for r in rows} == {m_ + 1} for rows in batch)


# sha256 over repr(rows) of the raw candidate stream, in stream order,
# with the candidate count; taken when each batch still regenerated its
# shapes once per variable budget and filtered them by largest variable.
# (4,4,1), (3,4,2) and (4,6,1), the certify pools and the largest 4-row
# stream here, were taken before _gen_shape read column bitmasks
_STREAM_DIGESTS = {
    (1, 0, 0): (1, "efd70b49446e8be6bedf3dfe219a88a352831f684dce5d48505e29b260989f2b"),
    (2, 0, 1): (3, "75ecf17e356b90aab40cacd5624dc8039367472ebe63d4ae7eedcf2b02a05d32"),
    (1, 1, 0): (1, "efd70b49446e8be6bedf3dfe219a88a352831f684dce5d48505e29b260989f2b"),
    (3, 0, 2): (3, "75ecf17e356b90aab40cacd5624dc8039367472ebe63d4ae7eedcf2b02a05d32"),
    (1, 4, 3): (4, "6f5056a07eccb5ff04f297cbb72b9fbf6ba436d58e353b74ca91a7ba9c17ad17"),
    (2, 4, 3): (1198, "ced28ddb5b1d4c4c4a5821b419cefe796c7dce747dfaf7a4efb7f999de2443f2"),
    (3, 3, 2): (2722, "148448f972be5dd7e030cc0c6272987d2e683276e098f012db70d2ce1a2ba8a4"),
    (4, 3, 1): (575, "95614838d3e5d8a6136da28b0d61a7aeaa766f69775b431fef29bf48c28fea4b"),
    (4, 4, 1): (2564, "a28f191387dc8c65bad13a12962f21b13296c4cf9de8e0a530f2be2006d589c6"),
    (3, 4, 2): (19451, "be2394014025e68d5c8e05c2f7d96aa727abfd02e0deb0ae149f9ac629319779"),
    (4, 6, 1): (19426, "1b19dbf1e3c0c7998d3d39107073fc6f5a6611ef3ff90289d3df7dc38c7a8d16"),
}


@pytest.mark.parametrize("window", sorted(_STREAM_DIGESTS), ids=str)
def test_candidate_stream_pinned(window):
    digest, count = hashlib.sha256(), 0
    for rows in candidate_stream(*window):
        digest.update(repr(rows).encode())
        count += 1
    assert (count, digest.hexdigest()) == _STREAM_DIGESTS[window]


def _maxvar(rows):
    return max((e for row in rows for e in row), default=0)


def test_candidates_cover_all_classes():
    # every matrix of the window is equivalent to some candidate (the k and m
    # caps preserve classes, not normal forms)
    from mclex import decide_pair
    from mclex.degeneracy import degeneracy_class

    cands = [parse_matrix("| 1"), parse_matrix("| *")] + [
        normalize(matrix_of(rows))
        for rows in candidate_stream(2, 2, 2)
    ]
    for M in all_matrices(2, 2, 2):
        assert any(
            degeneracy_class(M) == degeneracy_class(C)
            and decide_pair(M, C)
            and decide_pair(C, M)
            for C in cands
        )


def matrix_of(rows):
    from mclex import matrix

    return matrix(rows)


def test_minimal_windows():
    assert len(classify(1, 0, 1).classes) == 2
    assert len(classify(3, 0, 2).classes) == 2
    assert len(classify(3, 1, 2).classes) == 2
    assert len(classify(1, 4, 3).classes) == 2
    assert len(classify(3, 3, 0).classes) == 1


# --- signatures --------------------------------------------------------------


def test_signature_is_class_invariant():
    probes = probes_for(2, 2)
    from conftest import MALTSEV_CANON

    pairs = [(SU2, SU2_CANON), (MALTSEV, MALTSEV_CANON)]
    for A, B in pairs:
        assert signature(A, probes) == signature(B, probes)


def test_signature_separates_known_classes():
    probes = probes_for(2, 2)
    assert signature(SU2, probes) != signature(MALTSEV, probes)


def test_signatures_pinned():
    # sha256 over (rows, signature) of every class of (3,3,2) and (4,3,1)
    # over classify's own probes, taken before sharp_bits walked only sorted
    # row tuples and while classify still probed (2, 1) and kept one int per
    # probe; equal signatures keep buckets, decides and checkpoints
    digest, count = hashlib.sha256(), 0
    for n, m, k in [(3, 3, 2), (4, 3, 1)]:
        for node in classify(n, m, k).classes:
            sig = tuple(signature(node.rep, [p]) for p in [(2, 1)] + probes_for(n, k))
            digest.update(repr((node.rep.rows, sig)).encode())
            count += 1
    assert (count, digest.hexdigest()) == (
        90, "2b58d7bd807d9a4d0ef70b333938a066a0f1d8c84da0b4b30c861468d124e3ac"
    )


def test_two_row_probe_reads_as_its_three_row_cylinders():
    # a rule on three rows breaks the cylinder R x {*, x1} exactly when the
    # rule of its first two rows breaks R, so the (3, 1) bit of R's cylinder
    # is R's (2, 1) bit, and probes_for needs no (2, 1)
    masks_2, masks_3 = _probe_masks(2, 1), _probe_masks(3, 1)
    cylinders = [masks_3.index(R | R << 4) for R in masks_2]
    reps = [M for w in [(3, 3, 2), (4, 3, 1), (3, 6, 1)] for M in _reps(w)]
    mats = reps + [localize(M) for M in reps]
    mats += [matrix(rows) for rows in candidate_stream(3, 3, 2)]
    rng = random.Random(21)
    for _ in range(300):
        n, m, k = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 3)
        mats.append(matrix(
            [tuple(rng.randrange(k + 1) for _ in range(m + 1)) for _ in range(n)], k
        ))
    for M in mats:
        bits_2, bits_3 = signature(M, [(2, 1)]), signature(M, [(3, 1)])
        assert [bits_2 >> i & 1 for i in range(len(masks_2))] == [
            bits_3 >> c & 1 for c in cylinders
        ], M


# --- classification ----------------------------------------------------------


def test_figure_one_window():
    graph = classify(2, 3, 2, with_order=True, with_groups=True)
    assert len(graph.classes) == 6
    texts = {c.rep.text() for c in graph.classes}
    assert texts == {
        "| 1",
        "| *",
        "1 * | 1 ; * 1 | 1",
        "1 * | 1 ; 1 1 | *",
        "1 2 2 | 1 ; 2 1 2 | 1",
        "1 * * | 1 ; 2 1 2 | 1",
    }
    by_text = {c.rep.text(): c.id for c in graph.classes}
    bottom = by_text["| 1"]
    top = by_text["| *"]
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
    # order is a partial order with unique extremes
    for i in range(6):
        assert (i, i) not in graph.edges
    assert all((bottom, j) in graph.edges for j in range(6) if j != bottom)
    assert all((i, top) in graph.edges for i in range(6) if i != top)


def test_window_3_2_2():
    assert len(classify(3, 2, 2).classes) == 8


def test_window_3_3_2():
    assert len(classify(3, 3, 2).classes) == 42


def test_window_4_3_1():
    assert len(classify(4, 3, 1).classes) == 48


def test_members_count_totals():
    graph = classify(2, 3, 2)
    total = sum(c.members for c in graph.classes)
    assert total == sum(1 for _ in candidate_stream(2, 3, 2))


def test_window_monotonicity():
    small = {c.rep.text() for c in classify(2, 2, 2).classes}
    large = {c.rep.text() for c in classify(2, 3, 2).classes}
    assert small <= large


# --- localization groups -----------------------------------------------------


def test_groups_of_figure_one():
    graph = classify(2, 3, 2, with_groups=True)
    labels = sorted(g.label for g in graph.groups)
    assert labels == ["anti-trivial", "maltsev", "trivial"]
    mal = next(g for g in graph.groups if g.label == "maltsev")
    assert len(mal.class_ids) == 4


def _check_group_labels(window, count):
    # each proper group is named after the first anchor whose localization
    # equals that of the group's first class, else after that localization
    classes = _classified(window).classes
    groups = compute_groups(classes)  # what classify(with_groups=True) adds
    assert len(groups) == count
    named = set()
    for group in groups:
        first = classes[group.class_ids[0]]
        if first.kind is not DegeneracyClass.PROPER:
            assert group.label == first.kind.value
            continue
        want = next(
            (name for name, anchor in ANCHORS.items() if loc_equal(first.rep, anchor)),
            "loc:" + localize(first.rep).text(),
        )
        assert group.label == want
        named.add(want)
    assert set(ANCHORS) <= named


def test_group_labels_of_one_variable_window():
    _check_group_labels((3, 6, 1), 13)


def test_group_labels_of_two_variable_window():
    _check_group_labels((3, 3, 2), 12)


def test_group_labels_of_four_row_window():
    _check_group_labels((4, 3, 1), 21)


# compute_groups by digest of [[label, class ids], ...] per group, as taken
# before classes joined groups by the normal forms of their localizations
_GROUP_DIGESTS = {
    (3, 3, 2): "045902155268c8d53ab79f14776f94088e130db83a469c5663f4592b97676fac",
    (4, 3, 1): "f232c547789093611483bcfb98c1ff07ef9baa1df92b597b7af2f4e3bf03e93e",
    (3, 6, 1): "55f5c9a8594e3ea106f0aef2fa08fa06cf39ab977ba3a9bab6408ccab7f99224",
    (4, 4, 1): "3022d8ab2d871457a481f13265cb5623c97554d22294e01d05bfd16a4e4b6b6a",
}


@pytest.mark.parametrize("window", sorted(_GROUP_DIGESTS), ids=str)
def test_groups_equal_pinned_digests(window):
    groups = compute_groups(_classified(window).classes)
    text = json.dumps([[g.label, g.class_ids] for g in groups])
    assert hashlib.sha256(text.encode()).hexdigest() == _GROUP_DIGESTS[window]


def test_groups_join_equal_localized_forms_without_loc_equal(monkeypatch):
    # (4,4,1) took 311 loc_equal calls before classes joined the group of
    # an earlier class whose localization has the same normal form, and 133
    # since; each call that is left answers a class's first equal form
    classes = _classified((4, 4, 1)).classes
    answers = []

    def counting(A, B):
        answers.append(loc_equal(A, B))
        return answers[-1]

    monkeypatch.setattr(mclex.enumeration, "loc_equal", counting)
    groups = compute_groups(classes)
    assert len(groups) == 37
    assert len(answers) <= 133
    # the shortcut joins only what loc_equal joins
    for group in groups:
        first = classes[group.class_ids[0]].rep
        assert all(loc_equal(first, classes[i].rep) for i in group.class_ids[1:])


def test_subposet_by_localization_small():
    graph = classify(2, 3, 2)
    nodes, edges, reduced = subposet_by_localization(graph.classes, ANCHORS["maltsev"])
    assert len(nodes) == 4
    closure = set(edges)
    assert transitive_closure_equals(len(nodes), reduced, closure)


def _subposet_digest(nodes, edges, reduced):
    text = json.dumps([[c.id for c in nodes], sorted(edges), sorted(reduced)])
    return hashlib.sha256(text.encode()).hexdigest()


def _unfiltered_subposet(classes, anchor):
    """subposet_by_localization without the signature filter: loc_equal
    decides every proper class."""
    nodes = [
        c for c in classes
        if c.kind is DegeneracyClass.PROPER and loc_equal(c.rep, anchor)
    ]
    edges = compute_edges([c.rep for c in nodes])
    return nodes, edges, transitive_reduction(len(nodes), edges)


# Subposets as _unfiltered_subposet gives them, by digest of their class
# ids, edges and reduced edges, where running it live costs too much: about
# 3.3 s on (3,3,2) for 160 loc_equal calls, and 0.8 s on (4,3,1), the first
# window whose localizations have four rows.  Classes, edges and reduced
# edges:
# - (3,3,2): maltsev 6, 13, 5; majority 5, 9, 5; arithmetical 10, 30, 12;
#   minority 4, 5, 4;
# - (4,3,1): maltsev 4, 4, 3; majority 2, 1, 1; arithmetical 4, 3, 3;
#   minority 1, 0, 0.
_SUBPOSET_DIGESTS = {
    (3, 3, 2): {
        "maltsev": "f35b733566c214b9f508ca9fe2a3262bd02bbf595d2b70c1c8f7abf5aad365cf",
        "majority": "3af83af7263c4810188dfa6649c0d54de021e43133cc60b92c9a269b0a5c15c9",
        "arithmetical": "9027d8bee6c708edf1cb24168f40f946272cb8fc096d9aa281c1e2e3ee038a7a",
        "minority": "d8d7ea14932d6aaa0b715b2206ee16e90775e5cf32b16bcef5b24f6a54ae1b5a",
    },
    (4, 3, 1): {
        "maltsev": "d8ae3ce4f2c6d63f661af4ac74ea16da603f9af03eca3de69184cc7909389c4a",
        "majority": "d305f81761be1243e7c248c77998ce46c586e13bfa39db4a810afe8a04a01f60",
        "arithmetical": "deca88f217c34bd7b315dfdef533ba6ac3c61ce4e8507b08b3b45f3a1044333a",
        "minority": "7f6ffda9a9c374626407ded8dcbe5a36ec2d72b92c50e72ff690490bbce70e12",
    },
}


@pytest.mark.parametrize(
    "window", [(2, 3, 2), (3, 3, 2), (3, 6, 1), (4, 3, 1)], ids=str
)
def test_subposets_equal_unfiltered_reference(window):
    # the signature filter only skips classes that loc_equal would refuse
    classes = _classified(window).classes
    for name, anchor in ANCHORS.items():
        got = _subposet_digest(*subposet_by_localization(classes, anchor))
        if window in _SUBPOSET_DIGESTS:
            want = _SUBPOSET_DIGESTS[window][name]
        else:
            want = _subposet_digest(*_unfiltered_subposet(classes, anchor))
        assert got == want, name


@pytest.mark.parametrize("window", [(2, 3, 2), (3, 3, 2)], ids=str)
def test_subposets_of_degenerate_anchors(window):
    # localization keeps both degenerate kinds, so a degenerate anchor's
    # subposet is the class of its kind, as loc_equal over every class finds
    classes = _classified(window).classes
    for anchor in (ANTI_TRIVIAL, TRIVIAL):
        nodes, edges, reduced = subposet_by_localization(classes, anchor)
        assert [c.id for c in nodes] == [c.id for c in classes if loc_equal(c.rep, anchor)]
        assert [c.kind for c in nodes] == [degeneracy_class(anchor)]
        assert edges == reduced == set()


def test_subposets_decide_only_signature_equal_classes(monkeypatch):
    # over the four anchors, the 29 proper classes of (3,6,1) took 116
    # loc_equal calls without the filter; the 8 left are the 8 that hold.
    # Edges and groups have signed every representative and localization
    # already, so the subposets sign blocks of at most the localized
    # anchors: they took 126 signature calls when they signed over probes of
    # their own
    classes = classify(3, 6, 1, with_order=True, with_groups=True).classes
    answers = []

    def counting(A, B):
        answers.append(loc_equal(A, B))
        return answers[-1]

    monkeypatch.setattr(mclex.enumeration, "loc_equal", counting)
    signed = _signed_blocks(monkeypatch)
    nodes = [subposet_by_localization(classes, anchor)[0] for anchor in ANCHORS.values()]
    assert sum(map(len, nodes)) == 8
    assert answers == [True] * 8
    assert len(signed) <= 4


def _signed_blocks(monkeypatch):
    """The (matrix, probe) of each block `_probe_bits` signs from now on,
    read from its calls to `instantiate`."""
    signed = []

    def recording(M, k):
        signed.append((M, sys._getframe(1).f_locals["probe"]))
        return instantiate(M, k)

    monkeypatch.setattr(mclex.enumeration, "instantiate", recording)
    return signed


def test_each_block_signed_once(monkeypatch):
    # classify, its edges and groups, and the four anchor subposets of
    # (3,6,1) read one cache: 102 blocks, where two caches signed 131
    _probe_bits.cache_clear()
    signed = _signed_blocks(monkeypatch)
    classes = classify(3, 6, 1, with_order=True, with_groups=True).classes
    for anchor in ANCHORS.values():
        subposet_by_localization(classes, anchor)
    again = [key for key, count in collections.Counter(signed).items() if count > 1]
    assert signed and again == []


def test_comparisons_after_classify_sign_over_edge_probes(monkeypatch):
    # edges, groups and subposets all sign over _EDGE_PROBES; (4,3,1) is a
    # window where classify's own probes_for adds a third probe, (4, 1)
    callers = {"classify", "compute_edges", "compute_groups", "subposet_by_localization"}
    calls = []

    def recording(M, probes):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in callers:
            frame = frame.f_back
        calls.append((frame.f_code.co_name, tuple(probes)))
        return signature(M, probes)

    monkeypatch.setattr(mclex.enumeration, "signature", recording)
    _probe_bits.cache_clear()  # so that every caller signs afresh
    graph = classify(4, 3, 1, with_order=True, with_groups=True)
    _probe_bits.cache_clear()
    for anchor in ANCHORS.values():
        subposet_by_localization(graph.classes, anchor)
    assert {probes for name, probes in calls if name == "classify"} == {
        tuple(probes_for(4, 1))
    }
    later = {(name, probes) for name, probes in calls if name != "classify"}
    assert later == {
        (name, _EDGE_PROBES)
        for name in ("compute_edges", "compute_groups", "subposet_by_localization")
    }


def transitive_closure_equals(count, reduced, full):
    reach = {i: {j for (a, j) in reduced if a == i} for i in range(count)}
    changed = True
    while changed:
        changed = False
        for i in range(count):
            for j in list(reach[i]):
                extra = reach[j] - reach[i]
                if extra:
                    reach[i] |= extra
                    changed = True
    return {(i, j) for i in reach for j in reach[i]} == full


# --- canonical representatives -----------------------------------------------


def test_canonical_degenerate():
    assert canonical(TRIVIAL).text() == "| 1"
    assert canonical(parse_matrix("1 | 1")).text() == "| *"
    # the first candidate of the matrix's kind, as classify names its class
    reps = {c.kind: c.rep for c in _classified((2, 3, 2)).classes}
    for M in map(matrix, candidate_stream(2, 3, 2)):
        kind = degeneracy_class(M)
        if kind is not DegeneracyClass.PROPER:
            assert canonical(M, (2, 3, 2)) == reps[kind], M
    assert canonical(ANTI_TRIVIAL, (2, 2, 0)).text() == "| *"
    # a window without variables has no trivial candidate
    with pytest.raises(ValueError, match="no window candidate"):
        canonical(TRIVIAL, (2, 2, 0))


def test_canonical_strongly_unital_two_rows():
    assert canonical(SU2, (2, 3, 2)).text() == "1 * * | 1 ; 2 1 2 | 1"


def test_canonical_strongly_unital_one_variable_window():
    assert canonical(SU2, (3, 6, 1)).text() == SU3.text()


def test_canonical_stability():
    # canonical in a larger window restricts to the smaller one
    assert canonical(SU2, (3, 6, 2)).text() == "1 * * | 1 ; 2 1 2 | 1"


def test_canonical_no_window_member():
    with pytest.raises(ValueError):
        canonical(MALTSEV, (2, 3, 1))  # needs two variables


def test_canonical_of_every_representative_and_its_copies():
    # each representative is the first candidate of its class, and a copy
    # under row, column and per-row renaming symmetries maps back to it
    rng = random.Random(332)
    for rep in _reps((3, 3, 2)):
        assert canonical(rep, (3, 3, 2)) == rep, rep
        C = symmetric_copy(rep, rng)
        assert canonical(C, (3, 3, 2)) == rep, (rep, C)


def test_canonical_computes_few_signatures(monkeypatch):
    # candidates that share a normal form with M, or with a candidate found
    # not equivalent to M, need no signature: the last class of (3,3,2)
    # takes 175 instead of 267
    last = _reps((3, 3, 2))[-1]
    calls = []

    def counting(M, probes):
        calls.append(1)
        return signature(M, probes)

    monkeypatch.setattr(mclex.enumeration, "signature", counting)
    assert canonical(last, (3, 3, 2)) == last
    assert len(calls) <= 200


def _probe_calls(monkeypatch):
    """A counter of `_kernel.sharp_bits` calls per probe from now on."""
    calls = collections.Counter()
    sharp_bits = _kernel.sharp_bits

    def counting(n_p, k_p, *args):
        calls[n_p, k_p] += 1
        return sharp_bits(n_p, k_p, *args)

    monkeypatch.setattr(_kernel, "sharp_bits", counting)
    _probe_bits.cache_clear()
    return calls


def test_canonical_takes_other_probes_on_equal_first_blocks(monkeypatch):
    # a candidate whose (3, 1) block differs from M's needs no (2, 2) block:
    # the last class of (3,3,2) takes 3 instead of 175
    last = _reps((3, 3, 2))[-1]
    calls = _probe_calls(monkeypatch)
    assert canonical(last, (3, 3, 2)) == last
    assert calls[2, 2] <= 10


# --- order utilities ---------------------------------------------------------


def test_transitive_reduction_chain():
    edges = {(0, 1), (1, 2), (0, 2)}
    assert transitive_reduction(3, edges) == {(0, 1), (1, 2)}


def reference_transitive_reduction(count, edges):
    """Edge by edge: (i, j) stays unless a successor w of i other than i
    and j has j among its successors."""
    succ = [0] * count
    for i, j in edges:
        succ[i] |= 1 << j
    reduced = set()
    for i, j in edges:
        ss = succ[i] & ~(1 << j) & ~(1 << i)
        redundant = False
        while ss:
            w = (ss & -ss).bit_length() - 1
            ss &= ss - 1
            if (succ[w] >> j) & 1:
                redundant = True
                break
        if not redundant:
            reduced.add((i, j))
    return reduced


def _closed(count, edges):
    reach = {(i, i) for i in range(count)} | set(edges)
    for w, i, j in itertools.product(range(count), repeat=3):
        if (i, w) in reach and (w, j) in reach:
            reach.add((i, j))
    return {(i, j) for i, j in reach if i != j}


def test_transitive_reduction_by_rows_matches_edge_by_edge():
    windows = [(2, 2, 2), (2, 3, 2), (3, 3, 2), (4, 3, 1), (3, 6, 1)]
    cases = [(len(_reps(w)), _brute_edges(w)) for w in windows]
    rng = random.Random(1972)
    for _ in range(40):
        count = rng.randint(1, 25)
        order = rng.sample(range(count), count)
        p = rng.random()
        dag = {
            (order[a], order[b])
            for a in range(count) for b in range(a + 1, count) if rng.random() < p
        }
        cases += [(count, dag), (count, _closed(count, dag))]
    for count, edges in cases:
        assert transitive_reduction(count, edges) == reference_transitive_reduction(
            count, edges
        )


def _reps(window):
    return tuple(c.rep for c in _classified(window).classes)


@functools.lru_cache(maxsize=None)
def _brute_edges(window):
    """Every ordered pair of the window's representatives, decided."""
    reps = _reps(window)
    return {
        (i, j)
        for i, A in enumerate(reps)
        for j, B in enumerate(reps)
        if i != j and decide([A], [B])[0]
    }


@pytest.mark.parametrize("shuffle", [None, 7004])
@pytest.mark.parametrize(
    "window", [(2, 2, 2), (2, 3, 2), (3, 3, 2), (4, 3, 1), (3, 6, 1)], ids=str
)
def test_pruned_edges_equal_brute_force(window, shuffle):
    # the Decider answers most pairs from signatures and transitivity, so
    # its answers depend on the order it is asked in; the hasse benchmark
    # permutes the representatives
    perm = list(range(len(_reps(window))))
    if shuffle is not None:
        random.Random(shuffle).shuffle(perm)
    reps = [_reps(window)[p] for p in perm]
    edges = {(perm[i], perm[j]) for i, j in compute_edges(reps)}
    assert edges == _brute_edges(window)


def test_pruned_edges_decide_few_pairs(monkeypatch):
    # classified before counting: run alone, the classify decides would count
    reps, reps_4 = _reps((3, 3, 2)), _reps((4, 3, 1))
    calls = []

    def counting(S, U, record=False):
        calls.append(1)
        return decide(S, U, record)

    monkeypatch.setattr(mclex.enumeration, "decide", counting)
    compute_edges(reps)
    assert len(reps) * (len(reps) - 1) == 1722
    assert len(calls) <= 600
    # 443 with the inference from succ[B] and nots[A], 458 without it
    calls.clear()
    compute_edges(reps_4)
    assert len(calls) <= 450


def test_packed_signatures_refute_as_the_probe_tuples():
    # every ordered pair of both windows' representatives, the trivial and
    # anti-trivial classes included, so that a trivial matrix sits on
    # each side
    reps = _reps((3, 3, 2)) + _reps((4, 3, 1))
    assert sum(is_trivial(M) for M in reps) == 2
    decider = Decider()
    ids = [decider._number(M) for M in reps]
    parts = [[signature(M, [p]) for p in _EDGE_PROBES] for M in reps]
    refuted = []
    for A, parts_A, i in zip(reps, parts, ids):
        for B, parts_B, j in zip(reps, parts, ids):
            # per probe; a trivial A refutes nothing, and a trivial B
            # refutes every non-trivial A
            if is_trivial(A) or is_trivial(B):
                want = is_trivial(B) and not is_trivial(A)
            else:
                want = any(a & ~b for a, b in zip(parts_A, parts_B))
            assert bool(decider._sig[i] & ~decider._sig[j]) == want, (A, B)
            if want:
                refuted.append((A, B))
    assert 0 < len(refuted) < len(reps) ** 2
    assert not any(decide([A], [B])[0] for A, B in refuted)


# --- properties of decide on random candidates --------------------------------


def _random_proper(window, count, seed):
    proper = [
        M
        for M in map(matrix, candidate_stream(*window))
        if degeneracy_class(M) is DegeneracyClass.PROPER
    ]
    return random.Random(seed).sample(proper, count)


@pytest.mark.parametrize("window", [(3, 3, 2), (4, 3, 1)], ids=str)
def test_decide_is_a_preorder_refined_by_signatures(window):
    mats = _random_proper(window, 20, seed=sum(window))
    implies = {
        (i, j): decide([A], [B])[0]
        for (i, A), (j, B) in itertools.product(enumerate(mats), repeat=2)
    }
    assert all(implies[i, i] for i in range(len(mats)))
    chains = 0
    for a, b, c in itertools.product(range(len(mats)), repeat=3):
        if implies[a, b] and implies[b, c]:
            chains += len({a, b, c}) == 3
            assert implies[a, c], (mats[a], mats[b], mats[c])
    assert chains  # some triples do test transitivity
    # inclusion holds for every probe; (2, 1) and (3, 2), which no window
    # takes, add the shapes with two rows over one variable and three rows
    # over two; the packed signature includes bit by bit, probe by probe
    probes = [(2, 1)] + probes_for(4, 2) + [(3, 2)]
    sigs = [signature(M, probes) for M in mats]
    for (i, j), ok in implies.items():
        if ok:
            assert sigs[i] & ~sigs[j] == 0, (mats[i], mats[j])


@pytest.mark.parametrize("window", [(3, 3, 2), (4, 3, 1)], ids=str)
def test_normalize_properties_on_random_candidates(window):
    # classify places candidates by their normal form, so it must be a
    # class invariant that is stable under the symmetries it factors out
    rng = random.Random(sum(window) + 1)
    for M in _random_proper(window, 20, seed=sum(window) + 1):
        N = normalize(M)
        assert normalize(N) == N, M
        assert decide([M], [N])[0] and decide([N], [M])[0], M
        for _ in range(5):
            C = symmetric_copy(M, rng)
            assert normalize(C) == N, (M, C)


def test_normal_forms_pinned():
    # the normal forms of every (3,3,2) and (4,3,1) candidate, in stream
    # order; the digest was taken when _minimize still searched row orders
    digest = hashlib.sha256()
    for window in [(3, 3, 2), (4, 3, 1)]:
        for rows in candidate_stream(*window):
            digest.update(repr(_normalize_rows(rows)).encode())
    assert digest.hexdigest() == (
        "e0afe816aea9712f2f303041df4e7ec54377d6226d01da534c5fe0075103a211"
    )


@pytest.mark.parametrize("window", [(3, 3, 2), (4, 3, 1)], ids=str)
def test_classify_computes_few_signatures(window, monkeypatch):
    # candidates that share a normal form are placed without a signature;
    # (3,3,2) and (4,3,1) need 128 each, 183 and 171 without that
    calls = []

    def counting(M, probes):
        calls.append(1)
        return signature(M, probes)

    monkeypatch.setattr(mclex.enumeration, "signature", counting)
    classify(*window)
    assert len(calls) <= 140


@pytest.mark.parametrize("window", [(3, 3, 2), (4, 3, 1)], ids=str)
def test_classify_gates_the_last_class_on_the_first_block(window, monkeypatch):
    # the last class placed is decided only against candidates with its
    # first probe block: 385 and 318 decides instead of 544 and 474, for
    # 186 and 153 (3, 1) blocks instead of 128; the other probes stay at 128
    decides, first_blocks = {(3, 3, 2): (400, 200), (4, 3, 1): (330, 170)}[window]
    decided, pairs = [], []
    equiv = mclex.enumeration._equiv

    def counting(*args):
        decided.append(1)
        return decide(*args)

    def recording(A, B):
        pairs.append((A, B))
        return equiv(A, B)

    monkeypatch.setattr(mclex.enumeration, "decide", counting)
    monkeypatch.setattr(mclex.enumeration, "_equiv", recording)
    blocks = _probe_calls(monkeypatch)
    classify(*window)
    first, *others = probes_for(window[0], window[2])
    assert len(decided) <= decides
    assert blocks[first] <= first_blocks
    assert set(blocks) == {first, *others}
    assert all(blocks[p] <= 140 for p in others)
    block = {M: signature(M, [first]) for pair in pairs for M in pair}
    assert pairs and all(block[A] == block[B] for A, B in pairs)


# sha256 over (text, kind, members) of each class, taken before classify
# gated its last-class decide on the first probe block
_CLASS_LIST_DIGESTS = {
    (3, 4, 2): "7d34846ebd4c58b126dcbb024ea56cc8581fe4b1ae473d4efae5d370d540de8f",
    (4, 4, 1): "0803d7cb2fca7d04b06d349a413a2f3b7c45dae4eb0ce611d28c092481cee252",
    (4, 5, 1): "2df4ccd43f69a82646d8010455a65c87a4dc87204a765c33aae31264f13e2afb",
    (3, 6, 1): "eb1d4231ed094e60abc26037c42014804e4ebb6212b0c9f511170f259ca854a2",
}


@pytest.mark.parametrize("window", list(_CLASS_LIST_DIGESTS), ids=str)
def test_class_lists_pinned(window):
    digest = hashlib.sha256()
    for c in _classified(window).classes:
        digest.update(repr((c.rep.text(), c.kind.value, c.members)).encode())
    assert digest.hexdigest() == _CLASS_LIST_DIGESTS[window]


@pytest.mark.parametrize("window", [(3, 3, 2), (4, 3, 1)], ids=str)
def test_normal_forms_keep_the_candidate_shape(window):
    # so classify keeps its normal-form memo for one batch only
    for rows in candidate_stream(*window):
        form = _normalize_rows(rows)
        assert (len(form), len(form[0])) == (len(rows), len(rows[0])), rows


@pytest.mark.parametrize("window", [(2, 3, 2), (3, 3, 2), (4, 3, 1), (2, 5, 3)], ids=str)
def test_first_proper_candidate_of_a_form_is_the_form(window):
    # so a checkpoint's proper class is its own normal form, and canonical
    # skips a candidate that is not: its form's class came earlier
    for _shape, batch in candidate_batches(*window):
        forms = set()
        for rows in batch:
            if kind_of_rows(rows) is DegeneracyClass.PROPER:
                form = _normalize_rows(rows)
                assert (form == rows) == (form not in forms), rows
                forms.add(form)


# --- checkpointing -----------------------------------------------------------


def test_checkpoint_resume(tmp_path):
    ck = str(tmp_path)
    first = classify(2, 3, 2, checkpoint_dir=ck)
    assert (tmp_path / "classify_2_3_2.json").exists()
    resumed = classify(2, 3, 2, checkpoint_dir=ck)
    assert [c.rep.text() for c in resumed.classes] == [
        c.rep.text() for c in first.classes
    ]
    assert [c.members for c in resumed.classes] == [c.members for c in first.classes]


def test_checkpoint_resume_mid_window(tmp_path):
    # interrupted before its last batch, (3,3,2) resumes from 10 classes
    class Interrupted(Exception):
        pass

    def progress(shape, count):
        if shape == (3, 3):
            raise Interrupted

    with pytest.raises(Interrupted):
        classify(3, 3, 2, checkpoint_dir=str(tmp_path), progress=progress)
    state = json.loads((tmp_path / "classify_3_3_2.json").read_text())
    assert len(state["classes"]) == 10
    resumed = classify(3, 3, 2, checkpoint_dir=str(tmp_path))
    whole = classify(3, 3, 2)
    assert [(c.rep, c.kind, c.members) for c in resumed.classes] == [
        (c.rep, c.kind, c.members) for c in whole.classes
    ]


def test_checkpoint_env_variable_ignored(tmp_path, monkeypatch):
    # checkpoints are written only where checkpoint_dir asks, never because
    # of the environment
    monkeypatch.setenv("MCLEX_CHECKPOINT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    classify(2, 3, 2)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_corruption(tmp_path):
    path = tmp_path / "classify_2_3_2.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


def test_checkpoint_not_utf8(tmp_path):
    (tmp_path / "classify_2_3_2.json").write_bytes(b"\xff\xfe{")
    with pytest.raises(CheckpointError):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


_GOOD_CLASS = {"rows": [[1]], "kind": "trivial", "members": 1}
# `| *`, the first candidate of the first batch, (1, 0)
_STAR = {"rows": [[0]], "kind": "anti-trivial", "members": 1}
# what a checkpoint of (2, 3, 2) written by this build is stamped with
_STAMP = {"version": mclex.__version__, "probes": [[3, 1], [2, 2]]}


@pytest.mark.parametrize(
    "state",
    [
        [2, 3, 2],
        {**_STAMP, "params": [2, 3, 2], "classes": []},
        {**_STAMP, "params": [2, 3, 2], "classes": [], "done_batches": [[1]]},
        {**_STAMP, "params": [2, 3, 2], "classes": {}, "done_batches": []},
        {**_STAMP, "params": [2, 3], "classes": [], "done_batches": []},
        {**_STAMP, "params": [2, 3, 2], "classes": [[1]], "done_batches": []},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [],
         "classes": [dict(_GOOD_CLASS, rows=[])]},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [],
         "classes": [dict(_GOOD_CLASS, rows=[[1, 2], [1]])]},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [],
         "classes": [dict(_GOOD_CLASS, rows=[5])]},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]],
         "classes": [dict(_STAR, kind="odd")]},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]],
         "classes": [dict(_STAR, kind=["proper"])]},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]],
         "classes": [dict(_STAR, members="1")]},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]],
         "classes": [{"rows": [[0]], "kind": "anti-trivial"}]},
        # well formed, but no state _save_checkpoint writes: a class with
        # more rows, columns or variables than the window's caps allow
        # (the last a 4 x 7 class that uses variable 9)
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]],
         "classes": [dict(_GOOD_CLASS, rows=[[1], [1], [1]])]},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]],
         "classes": [dict(_GOOD_CLASS, rows=[[1, 1, 1, 1, 1]])]},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]],
         "classes": [dict(_GOOD_CLASS, rows=[[3]])]},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]],
         "classes": [dict(_GOOD_CLASS, rows=[[9] * 8] * 4)]},
        # a kind other than the rows' own
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]],
         "classes": [dict(_STAR, kind="proper")]},
        # a class of a batch that is not done
        {**_STAMP, "params": [2, 3, 2], "done_batches": [],
         "classes": [_GOOD_CLASS]},
        # done batches that are not the first of the batch order
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 1]], "classes": []},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0], [1, 2]], "classes": []},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 1], [1, 0]], "classes": []},
        {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0], [1, 0]], "classes": []},
    ],
)
def test_checkpoint_malformed_state(tmp_path, state):
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    with pytest.raises(CheckpointError):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


@pytest.mark.parametrize(
    "change, problem",
    [({"kind": "proper"}, "kind is not the kind of its rows"),
     ({"members": "1"}, "members"), ({"members": 0}, "members"),
     ({"members": True}, "members")],
    ids=["kind", "members-text", "members-zero", "members-true"],
)
def test_checkpoint_class_fields_checked(tmp_path, change, problem):
    # batch (1, 0) is `| *` and `| 1`, one class each
    classes = [dict(_STAR, **change), _GOOD_CLASS]
    state = {**_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0]], "classes": classes}
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match=rf"classes\[0\]\.{problem}$"):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))
    state["classes"][0] = _STAR
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    assert len(classify(2, 3, 2, checkpoint_dir=str(tmp_path)).classes) == 6


def test_checkpoint_records_stamp(tmp_path):
    classify(2, 3, 2, checkpoint_dir=str(tmp_path))
    state = json.loads((tmp_path / "classify_2_3_2.json").read_text())
    assert {key: state[key] for key in _STAMP} == _STAMP


@pytest.mark.parametrize(
    "change",
    [
        {"version": None},
        {"probes": None},
        {"version": "0.0.1"},
        {"probes": [[1, 1], [2, 1], [3, 1], [2, 2]]},
    ],
)
def test_checkpoint_other_build_refused(tmp_path, change):
    classify(2, 3, 2, checkpoint_dir=str(tmp_path))
    path = tmp_path / "classify_2_3_2.json"
    state = json.loads(path.read_text())
    state.update(change)
    state = {key: value for key, value in state.items() if value is not None}
    path.write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match="another build"):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


def test_checkpoint_of_the_old_probes_refused(tmp_path):
    # (3, 3, 2) checkpoints were once stamped with a (2, 1) probe, and before
    # that with a (3, 2) probe as well
    for probes in [[[2, 1], [3, 1], [2, 2], [3, 2]], [[2, 1], [3, 1], [2, 2]]]:
        state = {"version": mclex.__version__, "probes": probes,
                 "params": [3, 3, 2], "done_batches": [], "classes": []}
        (tmp_path / "classify_3_3_2.json").write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="another build"):
            classify(3, 3, 2, checkpoint_dir=str(tmp_path))


# what _save_checkpoint writes for (2, 3, 2) once its four one-row batches
# are done
_FOUR_BATCHES = {
    **_STAMP, "params": [2, 3, 2], "done_batches": [[1, 0], [1, 1], [1, 2], [1, 3]],
    "classes": [{"rows": [[0]], "kind": "anti-trivial", "members": 5},
                {"rows": [[1]], "kind": "trivial", "members": 2}],
}


def test_checkpoint_of_four_batches_resumes(tmp_path):
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(_FOUR_BATCHES))
    resumed = classify(2, 3, 2, checkpoint_dir=str(tmp_path))
    assert [(c.rep, c.kind, c.members) for c in resumed.classes] == [
        (c.rep, c.kind, c.members) for c in classify(2, 3, 2).classes
    ]


@pytest.mark.parametrize(
    "extra, problem",
    [
        # `| *` listed twice, which resumed to a seventh class
        pytest.param({"rows": [[0]], "kind": "anti-trivial", "members": 5},
                     r"no done batch generates classes\[2\]", id="extra0"),
        # `1 | 1`, a candidate of batch (1, 1), as a second anti-trivial class
        pytest.param({"rows": [[1, 1]], "kind": "anti-trivial", "members": 1},
                     "repeats a class", id="extra1"),
    ],
)
def test_checkpoint_repeated_class_refused(tmp_path, extra, problem):
    state = dict(_FOUR_BATCHES, classes=_FOUR_BATCHES["classes"] + [extra])
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match=problem):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


def test_checkpoint_foreign_class_refused(tmp_path):
    # SU2 in place of SU2_CANON: same class and batch, but no candidate
    classify(2, 3, 2, checkpoint_dir=str(tmp_path))
    path = tmp_path / "classify_2_3_2.json"
    state = json.loads(path.read_text())
    (rec,) = [c for c in state["classes"] if c["rows"] == [list(r) for r in SU2_CANON.rows]]
    rec["rows"] = [list(r) for r in SU2.rows]
    path.write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match="no done batch generates"):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


def test_checkpoint_without_a_degenerate_class_refused(tmp_path):
    # without `| *` it resumed to `1 | 1` as the anti-trivial class, with 61
    # members instead of 66
    state = dict(_FOUR_BATCHES, classes=_FOUR_BATCHES["classes"][1:])
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match=r"first anti-trivial candidate, \| \*,"):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


def test_checkpoint_members_must_add_up(tmp_path):
    # 8 members over the 7 candidates of the four batches resumed `| *` with
    # 67 members instead of 66
    star, trivial = _FOUR_BATCHES["classes"]
    state = dict(_FOUR_BATCHES, classes=[dict(star, members=6), trivial])
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match="8 members, but the done batches 7"):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


def test_checkpoint_with_swapped_classes_refused(tmp_path):
    classify(2, 3, 2, checkpoint_dir=str(tmp_path))
    path = tmp_path / "classify_2_3_2.json"
    state = json.loads(path.read_text())
    first, second = [i for i, c in enumerate(state["classes"]) if c["kind"] == "proper"][:2]
    classes = state["classes"]
    classes[first], classes[second] = classes[second], classes[first]
    path.write_text(json.dumps(state))
    with pytest.raises(CheckpointError, match="no done batch generates"):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


def test_checkpoint_later_member_refused(tmp_path):
    # a later member of SU2_CANON's class, whose normal form is SU2_CANON
    later = parse_matrix(LATER_MEMBER)
    assert canonical(later) == SU2_CANON == normalize(later) != later
    write_later_member_checkpoint(tmp_path)
    with pytest.raises(CheckpointError, match=r"classes\[5\], 1 2 2 \| 1 ; \* 1 \* \| 1, "
                                              "is not its own normal form"):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


def _batch_shapes(window):
    return [shape for shape, _batch in candidate_batches(*window)]


@pytest.mark.parametrize(
    "window, stop",
    [((2, 3, 2), shape) for shape in _batch_shapes((2, 3, 2))]
    + [((3, 3, 2), shape) for shape in [(1, 2), (2, 2), (3, 1)]],
    ids=str,
)
def test_checkpoint_resumes_from_every_prefix(tmp_path, window, stop):
    # interrupted as batch `stop` ends, before it is saved, so the
    # checkpoint holds the batches before it (none for the first batch)
    class Interrupted(Exception):
        pass

    def progress(shape, count):
        if shape == stop:
            raise Interrupted

    with pytest.raises(Interrupted):
        classify(*window, checkpoint_dir=str(tmp_path), progress=progress)
    resumed = classify(*window, checkpoint_dir=str(tmp_path))
    assert [(c.rep, c.kind, c.members) for c in resumed.classes] == [
        (c.rep, c.kind, c.members) for c in _classified(window).classes
    ]


# --- export ------------------------------------------------------------------


def test_poset_json_shape():
    graph = classify(2, 3, 2, with_order=True, with_groups=True)
    data = poset_to_json(graph)
    assert data["params"] == {"n": 2, "m": 3, "k": 2}
    assert len(data["classes"]) == 6
    assert all(isinstance(c["members"], int) for c in data["classes"])
    assert len(data["reducedEdges"]) == 6
    json.dumps(data)  # serializable


def test_record_defaults():
    node = ClassNode(0, MALTSEV, DegeneracyClass.PROPER)
    assert (node.id, node.rep, node.kind, node.members) == (
        0, MALTSEV, DegeneracyClass.PROPER, 1,
    )
    graph = PosetGraph(params=(2, 3, 2), classes=[node])
    assert (graph.params, graph.classes) == ((2, 3, 2), [node])
    assert (graph.edges, graph.reduced, graph.groups) == (None, None, None)
    assert poset_to_json(graph)["edges"] == [] and "->" not in poset_to_dot(graph)


def test_poset_dot_shape():
    graph = classify(2, 3, 2, with_order=True, with_groups=True)
    dot = poset_to_dot(graph)
    assert dot.startswith("digraph")
    assert dot.count("subgraph cluster_") == 3
    assert dot.count("->") == 6
    assert 'label="maltsev"' in dot
