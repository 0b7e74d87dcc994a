"""Column-closure engine: implication between matrix sets with certificates.

decide(S, U) answers whether every finitely complete pointed category with
closed relations for all of S also has them for every member of U.  The
positive direction is witnessed by a column tableau per goal matrix; the
negative direction by the saturated column set missing the goal's right
column.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache

from . import _kernel
from .degeneracy import is_trivial
from .matrix import STAR, _Frozen, entry_text, parse_entries, parse_matrix


def encode_column(col, base):
    code = 0
    for i, e in enumerate(col):
        code += e * base**i
    return code


def decode_column(code, base, n):
    col = []
    for _ in range(n):
        col.append(code % base)
        code //= base
    return tuple(col)


def apply_map(row, fmap):
    return tuple(e if e == STAR else fmap[e - 1] for e in row)


def _maps(row, k_source, k_target):
    """Variable maps into 0..k_target in itertools.product order, each
    variable that row does not use fixed at STAR.  Every instance of row
    comes once, from its first map over all k_source variables."""
    values = range(k_target + 1)
    return itertools.product(
        *[values if v in row else (STAR,) for v in range(1, k_source + 1)]
    )


# small on purpose: enumeration instantiates each candidate once, and large
# alphabets make entries big; only the recurring representatives need to
# stay.  Keyed by the matrix, whose hash is kept, so a decide's lookup
# hashes no rows
@lru_cache(maxsize=1 << 8)
def instantiate(M, k_target):
    """Deduplicated instantiated rows of M over the target alphabet."""
    return tuple(dict.fromkeys(
        apply_map(row, fmap) for row in M.rows for fmap in _maps(row, M.k, k_target)
    ))


def col_star_mask(N):
    """Bitmask of N's left columns together with the all-star column."""
    base = N.k + 1
    mask = 1  # all-star column has code 0
    for j in range(N.m):
        mask |= 1 << encode_column(N.left_column(j), base)
    return mask


# one entry per goal matrix, and the only per-goal cache of a decide.
# compute_edges asks the goals of a window over and over, one row of pairs
# at a time, so the cache holds every class of (4,7,1) (1,953): its
# compute_edges hits on 149,535 of 151,170 lookups.  An entry holds the
# goal's kernel seed, about 1.4 KB on (4,7,1), so at most 3 MB
@lru_cache(maxsize=1 << 11)
def _goal_codes(N):
    """The kernel seed of col*(N) (`_kernel._seed`: the column mask, its
    digit lists and its column set) and the code of N's right column."""
    seed = _kernel._seed(N.n, N.k, col_star_mask(N))
    return seed, encode_column(N.right_column, N.k + 1)


def saturate(S, N, record=False, stop_at_goal=True):
    """Close col*(N) under the derivation rules of S inside N's universe.

    Returns (mask, log); the log (record=True only) maps each derived column
    code, in order of derivation, to (cost, hypothesis_index,
    consumed_codes) of its witness.  Both kernels start from the goal's
    cached seed (`_goal_codes`) and S's cached rows (`instantiate`); a
    verdict-only call that stops at a goal already in col*(N) returns
    before packing the rows.  The kernels read the same pruned stream of
    row tuples and differ only in when a derived column joins the set.
    Without record `_kernel.closure_mask` adds each column at once; with
    record `_kernel.closure_record` runs batch rounds (each round reads the
    column set as it was at its start) and keeps, for each new column, the
    first witness that consumes the fewest derived columns, so that a
    dependency-minimal certificate can be read off the log.
    """
    n, k = N.n, N.k
    seed, goal = _goal_codes(N)
    stop = goal if stop_at_goal else -1
    mats = [(M.m, instantiate(M, k)) for M in S]
    if not record:
        return _kernel.closure_mask(n, k, mats, seed, stop), None
    return _kernel.closure_record(n, k, mats, seed, stop)


# --- tableaux ---------------------------------------------------------------


class TableauStep(_Frozen):
    __slots__ = (
        "added",  # column tuple
        "witnesses",  # per coordinate: (hypothesis index, row index, var map)
        "consumed",  # column tuples, one per left column of the hypothesis
    )

    def __init__(self, added, witnesses, consumed):
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "consumed", consumed)

    def _values(self):
        return (self.added, self.witnesses, self.consumed)


class TableauProof(_Frozen):
    __slots__ = ("goal", "hypotheses", "steps", "verdict")

    def __init__(self, goal, hypotheses, steps, verdict):
        object.__setattr__(self, "goal", goal)
        object.__setattr__(self, "hypotheses", hypotheses)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "verdict", verdict)

    def _values(self):
        return (self.goal, self.hypotheses, self.steps, self.verdict)

    @property
    def final_columns(self):
        cols = {tuple(self.goal.left_column(j)) for j in range(self.goal.m)}
        for step in self.steps:
            cols.add(step.added)
        return frozenset(cols)

    def added_columns(self):
        return [step.added for step in self.steps]


def _witness(M, row):
    """The first (row index, variable map) of M that instantiates to row, in
    instantiate's order: the first row of M that row fits, with the map it
    forces and STAR for the variables it leaves out."""
    for ri, pattern in enumerate(M.rows):
        fmap = {}
        for e, value in zip(pattern, row):
            if value != STAR if e == STAR else fmap.setdefault(e, value) != value:
                break
        else:
            return ri, tuple(fmap.get(v, STAR) for v in range(1, M.k + 1))


def _build_proof(S, N, log, verdict):
    base = N.k + 1
    n = N.n
    steps = [TableauStep((STAR,) * n, (), ())]
    if verdict:
        needed = set()
        stack = [_goal_codes(N)[1]]
        while stack:
            code = stack.pop()
            if code in log and code not in needed:
                needed.add(code)
                stack.extend(log[code][2])
        codes = [c for c in log if c in needed]
    else:
        # a failed goal keeps the whole saturation as its partial tableau
        codes = list(log)

    for code in codes:
        _cost, mi, consumed = log[code]
        added = decode_column(code, base, n)
        cols = [decode_column(c, base, n) for c in consumed]
        rows = [tuple(col[i] for col in cols) + (added[i],) for i in range(n)]
        steps.append(
            TableauStep(added, tuple((mi,) + _witness(S[mi], row) for row in rows), tuple(cols))
        )
    return TableauProof(N, tuple(S), tuple(steps), verdict)


def decide(S, U, record=False):
    """Does closedness for every matrix in S force closedness for all of U?

    Returns (verdict, tableaux); tableaux are produced only with record=True
    and triviality of S short-circuits without certificates.
    """
    S = list(S)
    U = list(U)
    if any(is_trivial(M) for M in S):
        return True, []
    tableaux = []
    verdict = True
    for N in U:
        mask, log = saturate(S, N, record=record)
        ok = bool((mask >> _goal_codes(N)[1]) & 1)
        if record:
            tableaux.append(_build_proof(S, N, log, ok))
        elif not ok:
            return False, []
        verdict = verdict and ok
    return verdict, tableaux


def decide_pair(A, B):
    """Single implication: the class of A is contained in the class of B."""
    return decide([A], [B])[0]


# --- independent replay ------------------------------------------------------


def verify_tableau(proof):
    """Replay a tableau from scratch; returns (ok, first_bad_step_or_None)."""
    N = proof.goal
    n = N.n
    star_col = (STAR,) * n
    cols = {tuple(N.left_column(j)) for j in range(N.m)}
    if not proof.steps or proof.steps[0].added != star_col:
        return False, 0
    cols.add(star_col)
    for si, step in enumerate(proof.steps[1:], start=1):
        if len(step.witnesses) != n:
            return False, si
        mats = set(w[0] for w in step.witnesses)
        if len(mats) != 1:
            return False, si
        mi = next(iter(mats))
        if not (0 <= mi < len(proof.hypotheses)):
            return False, si
        M = proof.hypotheses[mi]
        inst_rows = []
        for _mi, ri, fmap in step.witnesses:
            if not (0 <= ri < M.n) or len(fmap) != M.k:
                return False, si
            if any(not (0 <= v <= N.k) for v in fmap):
                return False, si
            inst_rows.append(apply_map(M.rows[ri], fmap))
        consumed = tuple(
            tuple(inst_rows[i][j] for i in range(n)) for j in range(M.m)
        )
        if consumed != step.consumed:
            return False, si
        if any(c not in cols for c in consumed):
            return False, si
        right = tuple(inst_rows[i][-1] for i in range(n))
        if right != step.added:
            return False, si
        cols.add(right)
    goal_right = N.right_column
    if proof.verdict != (goal_right in cols):
        return False, len(proof.steps)
    return True, None


def check_tableau(proof):
    return verify_tableau(proof)[0]


# --- JSON interchange --------------------------------------------------------


def _col_json(col):
    return [entry_text(e) for e in col]


_JSON_KINDS = {list: "a list", str: "a string", int: "an integer", bool: "a boolean"}
# (key, JSON type) of each part of a certificate
_PROOF_FIELDS = (("goal", str), ("hypotheses", list), ("steps", list), ("verdict", bool))
_STEP_FIELDS = (("added", list), ("witnesses", list), ("consumed", list))
_WITNESS_FIELDS = (("matrix", int), ("row", int), ("map", list))


def _fields(obj, fields):
    """obj's values under the keys of fields, each of exactly its JSON type
    (so true is no index); ValueError if obj is no object or one is not."""
    if type(obj) is not dict:
        keys = ", ".join(key for key, _ in fields)
        raise ValueError(f"malformed tableau: expected an object with {keys}")
    values = []
    for key, kind in fields:
        value = obj.get(key)
        if type(value) is not kind:
            problem = f"{key!r} must be {_JSON_KINDS[kind]}" if key in obj else f"missing {key!r}"
            raise ValueError(f"malformed tableau: {problem}")
        values.append(value)
    return values


def _col_from_json(items):
    if type(items) is not list or not {str}.issuperset(map(type, items)):
        raise ValueError("malformed tableau: a column must be a list of strings")
    try:
        return parse_entries(items)
    except ValueError as err:
        raise ValueError(f"malformed tableau: {err} in a column") from None


def tableau_to_json(proof):
    return {
        "goal": proof.goal.text(),
        "hypotheses": [M.text() for M in proof.hypotheses],
        "steps": [
            {
                "added": _col_json(step.added),
                "witnesses": [
                    {"matrix": mi, "row": ri, "map": [entry_text(v) for v in fmap]}
                    for mi, ri, fmap in step.witnesses
                ],
                "consumed": [_col_json(c) for c in step.consumed],
            }
            for step in proof.steps
        ],
        "verdict": proof.verdict,
    }


def tableau_from_json(data):
    """The proof a JSON certificate holds; ValueError if it is malformed."""
    goal, hyps, steps, verdict = _fields(data, _PROOF_FIELDS)
    if not {str}.issuperset(map(type, hyps)):
        raise ValueError("malformed tableau: a hypothesis must be a string")
    proof_steps = []
    for s in steps:
        added, witnesses, consumed = _fields(s, _STEP_FIELDS)
        witnesses = [_fields(w, _WITNESS_FIELDS) for w in witnesses]
        proof_steps.append(
            TableauStep(
                _col_from_json(added),
                tuple((mi, ri, _col_from_json(fmap)) for mi, ri, fmap in witnesses),
                tuple(_col_from_json(c) for c in consumed),
            )
        )
    return TableauProof(
        parse_matrix(goal), tuple(parse_matrix(t) for t in hyps), tuple(proof_steps), verdict
    )


def dump_tableau(proof, path):
    with open(path, "w") as fh:
        json.dump(tableau_to_json(proof), fh, indent=2)
        fh.write("\n")


def load_tableau(path):
    with open(path) as fh:
        return tableau_from_json(json.load(fh))
