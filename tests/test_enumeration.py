import json

import pytest

from conftest import MALTSEV, SU2, SU2_CANON, SU3, TRIVIAL
from mclex import (
    ANCHORS,
    canonical,
    candidate_stream,
    classify,
    compute_edges,
    normalize,
    parse_matrix,
    transitive_reduction,
    window_caps,
)
from mclex.degeneracy import DegeneracyClass
from mclex.enumeration import (
    CheckpointError,
    Decider,
    candidate_batches,
    probes_for,
    signature,
    subposet_by_localization,
)
from mclex.export import poset_to_dot, poset_to_json
from mclex.matrix import rows_lex_key
from test_matrix import all_matrices


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
        keys = [(_maxvar(rows), rows_lex_key(rows)) for rows in batch]
        assert keys == sorted(keys)
        for rows in batch:
            assert rows not in seen
            seen.add(rows)


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


def test_subposet_by_localization_small():
    graph = classify(2, 3, 2)
    nodes, edges, reduced = subposet_by_localization(graph.classes, ANCHORS["maltsev"])
    assert len(nodes) == 4
    closure = set(edges)
    assert transitive_closure_equals(len(nodes), reduced, closure)


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


# --- order utilities ---------------------------------------------------------


def test_transitive_reduction_chain():
    edges = {(0, 1), (1, 2), (0, 2)}
    assert transitive_reduction(3, edges) == {(0, 1), (1, 2)}


def test_compute_edges_workers_agree():
    reps = [c.rep for c in classify(2, 2, 2).classes]
    seq = compute_edges(reps, Decider(), workers=1)
    par = compute_edges(reps, None, workers=2)
    assert seq == par


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


@pytest.mark.parametrize(
    "state",
    [
        [2, 3, 2],
        {"params": [2, 3, 2], "classes": []},
        {"params": [2, 3, 2], "classes": [], "done_batches": [[1]]},
        {"params": [2, 3, 2], "classes": {}, "done_batches": []},
        {"params": [2, 3], "classes": [], "done_batches": []},
        {"params": [2, 3, 2], "classes": [[1]], "done_batches": []},
        {"params": [2, 3, 2], "done_batches": [],
         "classes": [dict(_GOOD_CLASS, rows=[])]},
        {"params": [2, 3, 2], "done_batches": [],
         "classes": [dict(_GOOD_CLASS, rows=[[1, 2], [1]])]},
        {"params": [2, 3, 2], "done_batches": [],
         "classes": [dict(_GOOD_CLASS, rows=[5])]},
        {"params": [2, 3, 2], "done_batches": [],
         "classes": [dict(_GOOD_CLASS, kind="odd")]},
        {"params": [2, 3, 2], "done_batches": [],
         "classes": [dict(_GOOD_CLASS, kind=["proper"])]},
        {"params": [2, 3, 2], "done_batches": [],
         "classes": [dict(_GOOD_CLASS, members="1")]},
        {"params": [2, 3, 2], "done_batches": [],
         "classes": [{"rows": [[1]], "kind": "trivial"}]},
    ],
)
def test_checkpoint_malformed_state(tmp_path, state):
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    with pytest.raises(CheckpointError):
        classify(2, 3, 2, checkpoint_dir=str(tmp_path))


# --- export ------------------------------------------------------------------


def test_poset_json_shape():
    graph = classify(2, 3, 2, with_order=True, with_groups=True)
    data = poset_to_json(graph)
    assert data["params"] == {"n": 2, "m": 3, "k": 2}
    assert len(data["classes"]) == 6
    assert all(isinstance(c["members"], int) for c in data["classes"])
    assert len(data["reducedEdges"]) == 6
    json.dumps(data)  # serializable


def test_poset_dot_shape():
    graph = classify(2, 3, 2, with_order=True, with_groups=True)
    dot = poset_to_dot(graph)
    assert dot.startswith("digraph")
    assert dot.count("subgraph cluster_") == 3
    assert dot.count("->") == 6
    assert 'label="maltsev"' in dot
