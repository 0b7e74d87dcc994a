import copy
import hashlib
import itertools
import json
import pickle
import random

import pytest

from conftest import (
    ANTI_TRIVIAL,
    ARITHMETICAL,
    MALTSEV,
    MINORITY,
    NORMAL_PROJECTIONS,
    SU2,
    SU2_CANON,
    SU3,
    SUBTRACTION,
    TRIVIAL,
    UNITAL,
    classified,
)
import mclex.closure
from mclex import candidate_stream, decide, decide_pair, matrix, parse_matrix, saturate
from mclex.closure import (
    _derived,
    _witness,
    apply_map,
    check_tableau,
    col_star_mask,
    decode_column,
    dump_tableau,
    encode_column,
    instantiate,
    load_tableau,
    tableau_from_json,
    tableau_to_json,
    verify_tableau,
)
from mclex.degeneracy import DegeneracyClass, degeneracy_class, is_trivial
from mclex.matrix import STAR
from test_matrix import all_matrices


# --- column codes and instantiation ------------------------------------------


def test_encode_decode_round_trip():
    for base in (2, 3, 4):
        for code in range(base**3):
            assert encode_column(decode_column(code, base, 3), base) == code
    assert encode_column((STAR, STAR, STAR), 3) == 0


def test_instantiate_subtraction_into_one_variable():
    rows = instantiate(SUBTRACTION, 1)
    assert (1, 0, 1) in rows and (0, 0, 0) in rows and (1, 1, 0) in rows
    assert len(rows) == len(set(rows))


def test_instantiate_into_star_only():
    rows = instantiate(MALTSEV, 0)
    assert rows == ((0, 0, 0, 0),)


def test_equal_matrices_share_one_instantiation():
    # instantiate is keyed by the matrix: an equal matrix built apart finds
    # the entry of the first
    instantiate.cache_clear()
    again = parse_matrix(MALTSEV.text())
    assert again == MALTSEV and again is not MALTSEV
    rows = instantiate(MALTSEV, 2)
    assert instantiate(again, 2) is rows
    info = instantiate.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_instantiate_counts_before_dedup():
    # 2 rows x 3^2 pointed maps, deduplicated
    raw = [r for r in instantiate(MALTSEV, 2)]
    assert len(raw) <= 18 and len(raw) == len(set(raw))


def reference_instances(rows, k_source, k_target):
    """Each instance of the rows over 0..k_target mapped to its first
    (row index, variable map), in order of first occurrence, over every
    map of all k_source variables."""
    first = {}
    for ri, row in enumerate(rows):
        for fmap in itertools.product(range(k_target + 1), repeat=k_source):
            first.setdefault(apply_map(row, fmap), (ri, fmap))
    return first


def generator_instances(M, k_target):
    """instantiate's rows by a generator per entry: each row mapped by every
    map of the variables it uses, the others at STAR, in product order."""

    def apply(row, fmap):
        return tuple(e if e == STAR else fmap[e - 1] for e in row)

    def maps(row):
        values = range(k_target + 1)
        return itertools.product(*[values if v in row else (STAR,) for v in range(1, M.k + 1)])

    return tuple(dict.fromkeys(apply(row, fmap) for row in M.rows for fmap in maps(row)))


def test_instantiate_maps_only_the_variables_a_row_uses():
    # witness row indices and the tableau digests rest on this order
    from mclex import candidate_stream, degeneracy_class
    from mclex.degeneracy import DegeneracyClass

    rng = random.Random(49)
    mats = [matrix(rows) for w in [(3, 3, 2), (2, 4, 2)] for rows in candidate_stream(*w)]
    mats += [M for M in map(matrix, candidate_stream(4, 4, 1))
             if degeneracy_class(M) is DegeneracyClass.PROPER]
    mats += list(all_matrices(2, 1, 2))
    mats += [parse_matrix(t) for t in ("| 1", "| *", "| 2", "| 1 ; | *")]  # one-entry rows
    # rows that skip variables of a larger budget
    mats += [
        matrix([tuple(rng.choice((STAR, 1, 3, 5)) for _ in range(4)) for _ in range(3)], 5)
        for _ in range(60)
    ]
    for M in mats:
        for k_target in range(3):
            want = reference_instances(M.rows, M.k, k_target)
            assert instantiate(M, k_target) == tuple(want) == generator_instances(M, k_target), M
            assert {row: _witness(M, row) for row in instantiate(M, k_target)} == want, M
    assert instantiate(parse_matrix("| 1"), 2) == ((0,), (1,), (2,))
    for fmap in [(1, 2), (STAR, 1), (2, STAR)]:
        for row in [(1, STAR, 2, 1), (2, 2, STAR), (1,), (STAR,)]:
            assert apply_map(row, fmap) == tuple(e if e == STAR else fmap[e - 1] for e in row)


# --- saturation --------------------------------------------------------------


def test_saturate_empty_hypotheses_is_identity():
    mask, _ = saturate([], SU3, stop_at_goal=False)
    assert mask == col_star_mask(SU3)


def test_saturate_reflexive():
    for M in (UNITAL, SUBTRACTION, SU2, MALTSEV):
        base = M.k + 1
        mask, _ = saturate([M], M, stop_at_goal=False)
        assert (mask >> encode_column(M.right_column, base)) & 1


def test_saturate_fixpoint():
    for M in (UNITAL, SUBTRACTION):
        for N in (UNITAL, SUBTRACTION, SU2):
            mask, _ = saturate([M], N, stop_at_goal=False)
            again, _ = saturate([M], _with_columns(N, mask), stop_at_goal=False)
            assert again == mask


def _with_columns(N, mask):
    """N with its left part replaced by all columns of the mask."""
    base = N.k + 1
    cols = []
    code = 0
    bits = mask
    while bits:
        if bits & 1:
            cols.append(decode_column(code, base, N.n))
        bits >>= 1
        code += 1
    rows = tuple(
        tuple(c[i] for c in cols) + (N.rows[i][-1],) for i in range(N.n)
    )
    return matrix(rows, N.k)


def test_saturate_monotone():
    rng = random.Random(3)
    mats = [m for m in all_matrices(2, 2, 1)]
    for _ in range(30):
        M = rng.choice(mats)
        N = rng.choice(mats)
        small, _ = saturate([M], N, stop_at_goal=False)
        big, _ = saturate([M], _with_columns(N, small), stop_at_goal=False)
        assert small | big == big


# --- decide ------------------------------------------------------------------


def test_maltsev_implies_strongly_unital():
    assert decide_pair(MALTSEV, SU2)
    assert not decide_pair(SU2, MALTSEV)


def test_strongly_unital_meet_identity():
    assert decide([UNITAL, SUBTRACTION], [SU2])[0]
    assert decide([SU2], [UNITAL, SUBTRACTION])[0]


def test_unital_subtraction_incomparable():
    assert not decide_pair(UNITAL, SUBTRACTION)
    assert not decide_pair(SUBTRACTION, UNITAL)


def test_two_strongly_unital_presentations():
    assert decide_pair(SU2, SU3) and decide_pair(SU3, SU2)
    assert decide_pair(SU2, SU2_CANON) and decide_pair(SU2_CANON, SU2)


def test_normal_projections_is_subtraction():
    assert decide_pair(SUBTRACTION, NORMAL_PROJECTIONS)
    assert decide_pair(NORMAL_PROJECTIONS, SUBTRACTION)


def test_arithmetical_implies_minority():
    assert decide_pair(ARITHMETICAL, MINORITY)
    assert not decide_pair(MINORITY, ARITHMETICAL)


def test_trivial_hypothesis_short_circuits():
    verdict, tableaux = decide([TRIVIAL], [MALTSEV], record=True)
    assert verdict and tableaux == []


def test_anti_trivial_goal_always_follows():
    assert decide_pair(UNITAL, ANTI_TRIVIAL)


def test_decide_reflexive_exhaustive():
    for M in all_matrices(2, 1, 1):
        assert decide_pair(M, M)


def test_decide_transitive_sample():
    rng = random.Random(5)
    mats = [m for m in all_matrices(2, 2, 1)]
    for _ in range(60):
        A, B, C = rng.choice(mats), rng.choice(mats), rng.choice(mats)
        if decide_pair(A, B) and decide_pair(B, C):
            assert decide_pair(A, C)


# --- column sets that earlier decides derived ---------------------------------


def _cold_verdict(S, U):
    """decide's verdict from one saturation per goal, with no derived sets:
    a trivial hypothesis implies everything, and its saturation need not
    show it."""
    return any(map(is_trivial, S)) or all(
        (saturate(S, N)[0] >> encode_column(N.right_column, N.k + 1)) & 1 for N in U
    )


def _goal_in_col_star(N):
    return (col_star_mask(N) >> encode_column(N.right_column, N.k + 1)) & 1


# (saturations, pairs settled true, pairs settled false) of the ordered
# pairs of each window's representatives, asked row by row
DERIVED_COUNTS = {
    (2, 4, 2): (21, 0, 0), (3, 3, 2): (1450, 85, 106), (4, 3, 1): (1582, 69, 512),
}


def _counting_saturations(monkeypatch):
    """A list that gains the goal of each saturation from here on."""
    goals = []
    real = mclex.closure.saturate

    def counting(S, N, record=False, stop_at_goal=True):
        goals.append(N)
        return real(S, N, record, stop_at_goal)

    monkeypatch.setattr(mclex.closure, "saturate", counting)
    return goals


@pytest.mark.parametrize("window", [(2, 4, 2), (3, 3, 2), (4, 3, 1)], ids=str)
def test_derived_sets_answer_as_cold_saturations(window, monkeypatch):
    # every ordered pair of the representatives, row by row as compute_edges
    # asks them, against the verdict of a saturation that knows nothing
    reps = [c.rep for c in classified(window).classes]
    expected = {
        (i, j): _cold_verdict([A], [B])
        for i, A in enumerate(reps) for j, B in enumerate(reps) if i != j
    }
    _derived.cache_clear()
    goals = _counting_saturations(monkeypatch)
    # pairs that the derived sets settled, by verdict: no saturation, and
    # neither a trivial hypothesis nor a goal in its own col*
    settled = {True: 0, False: 0}
    for (i, j), want in expected.items():
        A, B = reps[i], reps[j]
        before = len(goals)
        assert decide([A], [B])[0] == want, (A, B)
        if len(goals) == before and not is_trivial(A) and not _goal_in_col_star(B):
            settled[want] += 1
    assert (len(goals), settled[True], settled[False]) == DERIVED_COUNTS[window]


def test_derived_sets_answer_mixed_queries_as_cold_saturations(monkeypatch):
    # 200 seeded queries of two hypotheses or two goals over the (3,4,2) and
    # (4,4,1) candidates; each pool's hypotheses come from a few tuples, so
    # that later queries find the sets of earlier ones
    rng = random.Random(3)
    queries = []
    for window in [(3, 4, 2), (4, 4, 1)]:
        pool = [matrix(rows) for rows in candidate_stream(*window)]
        proper = [M for M in pool if degeneracy_class(M) is DegeneracyClass.PROPER]
        hyps = [rng.sample(proper, size) for size in (2, 2, 2, 1, 1, 1)]
        for _ in range(100):
            S = rng.choice(hyps)
            queries.append((S, rng.sample(pool, 3 - len(S))))
    rng.shuffle(queries)
    expected = [_cold_verdict(S, U) for S, U in queries]
    _derived.cache_clear()
    goals = _counting_saturations(monkeypatch)
    verdicts = [decide(S, U)[0] for S, U in queries]
    assert verdicts == expected
    # 69 true queries; 168 saturations where the queries ask 292 goals
    assert (sum(expected), len(goals)) == (69, 168)
    assert sum(len(U) for _S, U in queries) == 292


# --- tableaux ----------------------------------------------------------------


def test_forward_tableau_matches_known_additions():
    verdict, tableaux = decide([SU2_CANON], [SU3], record=True)
    assert verdict and len(tableaux) == 1
    proof = tableaux[0]
    assert check_tableau(proof)
    assert proof.steps[0].added == (STAR, STAR, STAR)
    added = set(proof.added_columns())
    assert added == {(STAR, STAR, STAR), (STAR, STAR, 1), (1, 1, STAR)}


def test_reverse_tableau_matches_known_additions():
    verdict, tableaux = decide([SU3], [SU2_CANON], record=True)
    assert verdict
    proof = tableaux[0]
    assert check_tableau(proof)
    added = set(proof.added_columns())
    assert added == {(STAR, STAR), (1, STAR), (1, 1)}


def test_tableau_deterministic():
    a = decide([SU2_CANON], [SU3], record=True)[1][0]
    b = decide([SU2_CANON], [SU3], record=True)[1][0]
    assert tableau_to_json(a) == tableau_to_json(b)


def test_failed_goal_partial_tableau_verifies():
    verdict, tableaux = decide([UNITAL], [SUBTRACTION], record=True)
    assert not verdict
    proof = tableaux[0]
    assert not proof.verdict
    assert check_tableau(proof)


def test_every_recorded_tableau_verifies_sample():
    rng = random.Random(9)
    mats = [m for m in all_matrices(2, 2, 1)]
    from mclex.degeneracy import is_trivial

    for _ in range(40):
        S = [rng.choice(mats)]
        if is_trivial(S[0]):
            continue
        U = [rng.choice(mats)]
        _verdict, tableaux = decide(S, U, record=True)
        for proof in tableaux:
            assert check_tableau(proof)


# sha256 over the tableau JSON of 120 recorded decides: pins each step's
# witness, consumed columns and position byte for byte
SEED_TABLEAU_DIGEST = "6cd3b6e7494d6f49ff26a4a1d7a5de59d32bf216ec9b2c76c01f9b62a135b2ed"


def test_recorded_tableaux_digest_3x3x2():
    from mclex import candidate_stream, degeneracy_class
    from mclex.degeneracy import DegeneracyClass

    pool = [matrix(rows) for rows in candidate_stream(3, 3, 2)]
    pool = [M for M in pool if degeneracy_class(M) is DegeneracyClass.PROPER]
    assert len(pool) == 277
    rng = random.Random(0)
    h = hashlib.sha256()
    for _ in range(120):
        A, B = rng.sample(pool, 2)
        _verdict, tableaux = decide([A], [B], record=True)
        h.update(json.dumps([tableau_to_json(t) for t in tableaux], sort_keys=True).encode())
    assert h.hexdigest() == SEED_TABLEAU_DIGEST


# sha256 over the tableau JSON of 120 recorded decides that the (3,3,2)
# digest does not reach: two hypotheses (so witnesses of hypothesis 1), two
# goals, and matrices of (4,4,1)
MIXED_TABLEAU_DIGEST = "e02469668387bca2914395af67081f82ddb1df11faa779acea65b9e8667a48bd"


def test_recorded_tableaux_digest_mixed_queries():
    from mclex import candidate_stream, degeneracy_class
    from mclex.degeneracy import DegeneracyClass

    pools = {
        w: [M for M in map(matrix, candidate_stream(*w))
            if degeneracy_class(M) is DegeneracyClass.PROPER]
        for w in [(3, 3, 2), (4, 4, 1)]
    }
    rng = random.Random(1)
    h = hashlib.sha256()
    second_hypothesis = 0
    for window, hyps, goals in [((3, 3, 2), 2, 1), ((3, 3, 2), 1, 2),
                                ((4, 4, 1), 1, 1), ((4, 4, 1), 2, 1)]:
        for _ in range(30):
            drawn = rng.sample(pools[window], hyps + goals)
            _verdict, tableaux = decide(drawn[:hyps], drawn[hyps:], record=True)
            assert len(tableaux) == goals
            second_hypothesis += sum(
                step.witnesses[0][0] == 1 for t in tableaux for step in t.steps[1:]
            )
            h.update(json.dumps([tableau_to_json(t) for t in tableaux], sort_keys=True).encode())
    assert second_hypothesis > 0
    assert h.hexdigest() == MIXED_TABLEAU_DIGEST


def test_hand_transcribed_tableau():
    # the three-row to two-row strongly unital inclusion, written out by hand
    data = {
        "goal": "1 * * | 1 ; 2 1 2 | 1",
        "hypotheses": ["1 1 * | 1 ; * * 1 | 1 ; 1 * 1 | *"],
        "steps": [
            {"added": ["*", "*"], "witnesses": [], "consumed": []},
            {
                "added": ["1", "*"],
                "witnesses": [
                    {"matrix": 0, "row": 1, "map": ["1"]},
                    {"matrix": 0, "row": 2, "map": ["2"]},
                ],
                "consumed": [["*", "2"], ["*", "*"], ["1", "2"]],
            },
            {
                "added": ["1", "1"],
                "witnesses": [
                    {"matrix": 0, "row": 0, "map": ["1"]},
                    {"matrix": 0, "row": 1, "map": ["1"]},
                ],
                "consumed": [["1", "*"], ["1", "*"], ["*", "1"]],
            },
        ],
        "verdict": True,
    }
    proof = tableau_from_json(data)
    ok, bad = verify_tableau(proof)
    assert ok, f"invalid at step {bad}"


def _valid_proof():
    return decide([SU2_CANON], [SU3], record=True)[1][0]


def test_mutated_tableau_missing_column():
    data = tableau_to_json(_valid_proof())
    # delete a consumed column from the last step
    data["steps"][-1]["consumed"] = data["steps"][-1]["consumed"][:-1]
    ok, bad = verify_tableau(tableau_from_json(data))
    assert not ok and bad == len(data["steps"]) - 1


def test_mutated_tableau_wrong_witness():
    data = tableau_to_json(_valid_proof())
    data["steps"][-1]["witnesses"][0]["row"] = 99
    ok, bad = verify_tableau(tableau_from_json(data))
    assert not ok and bad == len(data["steps"]) - 1


# _valid_proof's step 2 consumes the column that step 1 adds
@pytest.mark.parametrize(
    "mutate,step",
    [
        (lambda d: d["steps"][0].update(added=["1", "*", "*"]), 0),
        (lambda d: d["steps"][1]["witnesses"].pop(), 1),
        (lambda d: d["steps"][1]["witnesses"][0].update(matrix=1), 1),
        (lambda d: [w.update(matrix=1) for w in d["steps"][1]["witnesses"]], 1),
        (lambda d: d["steps"][1]["witnesses"][0]["map"].__setitem__(0, "2"), 1),
        (lambda d: d["steps"].pop(1), 1),
        (lambda d: d["steps"][2].update(added=["1", "1", "1"]), 2),
    ],
    ids=[
        "first step not the star column",
        "witness count not n",
        "witnesses name two hypotheses",
        "hypothesis index out of range",
        "map value outside 0..k",
        "consumed column not yet derived",
        "right column not added",
    ],
)
def test_verify_tableau_rejects(mutate, step):
    data = tableau_to_json(_valid_proof())
    mutate(data)
    assert verify_tableau(tableau_from_json(data)) == (False, step)


def test_mutated_tableau_lying_verdict():
    data = tableau_to_json(_valid_proof())
    data["steps"] = data["steps"][:1]
    data["verdict"] = True
    ok, _bad = verify_tableau(tableau_from_json(data))
    assert not ok


def test_tableau_json_round_trip(tmp_path):
    proof = _valid_proof()
    path = tmp_path / "proof.json"
    dump_tableau(proof, path)
    again = load_tableau(path)
    assert again == proof and again is not proof and hash(again) == hash(proof)
    assert again.steps == proof.steps and hash(again.steps[-1]) == hash(proof.steps[-1])
    assert pickle.loads(pickle.dumps(proof)) == proof == copy.copy(proof)
    with open(path) as fh:
        json.load(fh)  # well-formed JSON


def test_tableau_json_round_trip_mixed_queries():
    # the 120 queries of test_recorded_tableaux_digest_mixed_queries, drawn
    # the same way: the digest shows they are the same tableaux
    from mclex import candidate_stream, degeneracy_class
    from mclex.degeneracy import DegeneracyClass

    pools = {
        w: [M for M in map(matrix, candidate_stream(*w))
            if degeneracy_class(M) is DegeneracyClass.PROPER]
        for w in [(3, 3, 2), (4, 4, 1)]
    }
    rng = random.Random(1)
    h = hashlib.sha256()
    for window, hyps, goals in [((3, 3, 2), 2, 1), ((3, 3, 2), 1, 2),
                                ((4, 4, 1), 1, 1), ((4, 4, 1), 2, 1)]:
        for _ in range(30):
            drawn = rng.sample(pools[window], hyps + goals)
            _verdict, tableaux = decide(drawn[:hyps], drawn[hyps:], record=True)
            for t in tableaux:
                again = tableau_from_json(json.loads(json.dumps(tableau_to_json(t))))
                assert again == t and verify_tableau(again) == (True, None)
            h.update(json.dumps([tableau_to_json(t) for t in tableaux], sort_keys=True).encode())
    assert h.hexdigest() == MIXED_TABLEAU_DIGEST


def test_tableau_records_are_immutable():
    proof = _valid_proof()
    for record, field in ((proof, "verdict"), (proof.steps[-1], "added")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert proof.verdict is True and proof.steps[-1] != proof.steps[0]
    assert proof.steps[0] != ((STAR,) * 3, (), ())
    assert repr(proof.steps[0]) == "TableauStep(added=(0, 0, 0), witnesses=(), consumed=())"


# tokens that int() reads but matrix text refuses, and two it refuses too
BAD_TOKENS = ["0", "-0", "+1", " 1", "\u0661", "1_0", "", "x1"]


def _maltsev_proof_json():
    data = tableau_to_json(decide([MALTSEV], [parse_matrix("1 * | 1 ; 1 1 | *")], record=True)[1][0])
    assert data["steps"][-1]["added"] == ["1", "*"]
    assert check_tableau(tableau_from_json(data))
    return data


@pytest.mark.parametrize("token", BAD_TOKENS)
def test_tableau_json_refuses_bad_column_token(token):
    data = _maltsev_proof_json()
    data["steps"][-1]["added"][0] = token
    with pytest.raises(ValueError, match="malformed tableau"):
        tableau_from_json(data)


@pytest.mark.parametrize("token", BAD_TOKENS)
def test_tableau_json_refuses_bad_map_token(token):
    data = _maltsev_proof_json()
    data["steps"][-1]["witnesses"][0]["map"][0] = token
    with pytest.raises(ValueError, match="malformed tableau"):
        tableau_from_json(data)


def test_tableau_json_refuses_entries_of_another_type():
    # a column that is a list of non-strings or no list, and a hypothesis
    # that is not a string, each fail with their own message
    for column in ([1, "*"], ["1", None], "1 *"):
        data = _maltsev_proof_json()
        data["steps"][-1]["consumed"][0] = column
        with pytest.raises(ValueError, match="a column must be a list of strings"):
            tableau_from_json(data)
    for hypothesis in (["1 * | 1"], 3, None):
        data = _maltsev_proof_json()
        data["hypotheses"][0] = hypothesis
        with pytest.raises(ValueError, match="a hypothesis must be a string"):
            tableau_from_json(data)


def test_tableau_json_reads_long_tokens():
    data = _maltsev_proof_json()
    data["steps"][-1]["added"][0] = "10"
    assert tableau_from_json(data).steps[-1].added == (10, STAR)
