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
from dataclasses import dataclass
from functools import lru_cache

from . import _closure_py, _kernel
from .degeneracy import is_trivial
from .matrix import STAR, ExtendedMatrix, entry_text, parse_matrix


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


# small on purpose: enumeration instantiates each candidate once, and large
# alphabets make entries big; only the recurring representatives need to stay
@lru_cache(maxsize=1 << 8)
def _instantiate_cached(rows, k_source, k_target):
    out = []
    seen = set()
    for row in rows:
        for fmap in itertools.product(range(k_target + 1), repeat=k_source):
            t = apply_map(row, fmap)
            if t not in seen:
                seen.add(t)
                out.append(t)
    return tuple(out)


def instantiate(M, k_target):
    """Deduplicated instantiated rows of M over the target alphabet."""
    return _instantiate_cached(M.rows, M.k, k_target)


def col_star_mask(N):
    """Bitmask of N's left columns together with the all-star column."""
    base = N.k + 1
    mask = 1  # all-star column has code 0
    for j in range(N.m):
        mask |= 1 << encode_column(N.left_column(j), base)
    return mask


def saturate(S, N, record=False, stop_at_goal=True):
    """Close col*(N) under the derivation rules of S inside N's universe.

    Returns (mask, log); the log (record=True only) maps each derived column
    code, in order of derivation, to (cost, hypothesis_index,
    consumed_codes) of its witness.  Without record the closure kernel of
    the active backend answers; with record the pure-Python
    `_closure_py.closure_record` runs the closure in batch rounds (each
    round reads the column set as it was at its start) and keeps, for each
    new column, the first witness that consumes the fewest derived columns,
    so that a dependency-minimal certificate can be read off the log.
    """
    n, k = N.n, N.k
    r0 = col_star_mask(N)
    goal = encode_column(N.right_column, k + 1)
    stop = goal if stop_at_goal else -1
    mats = [(M.m, instantiate(M, k)) for M in S]
    if not record:
        return _kernel.closure_mask(n, k, mats, r0, stop), None
    return _closure_py.closure_record(n, k, mats, r0, stop)


# --- tableaux ---------------------------------------------------------------


@dataclass(frozen=True)
class TableauStep:
    added: tuple  # column tuple
    witnesses: tuple  # per coordinate: (hypothesis index, row index, var map)
    consumed: tuple  # column tuples, one per left column of the hypothesis


@dataclass(frozen=True)
class TableauProof:
    goal: ExtendedMatrix
    hypotheses: tuple
    steps: tuple
    verdict: bool

    @property
    def final_columns(self):
        cols = {tuple(self.goal.left_column(j)) for j in range(self.goal.m)}
        for step in self.steps:
            cols.add(step.added)
        return frozenset(cols)

    def added_columns(self):
        return [step.added for step in self.steps]


def _first_witness(M, row, k):
    """First (row index, variable map) of M instantiating row, in
    instantiate's order."""
    for ri, source in enumerate(M.rows):
        for fmap in itertools.product(range(k + 1), repeat=M.k):
            if apply_map(source, fmap) == row:
                return ri, fmap


def _build_proof(S, N, log, verdict):
    base = N.k + 1
    n = N.n
    steps = [TableauStep((STAR,) * n, (), ())]
    if verdict:
        needed = set()
        stack = [encode_column(N.right_column, base)]
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
            TableauStep(
                added,
                tuple((mi,) + _first_witness(S[mi], row, N.k) for row in rows),
                tuple(cols),
            )
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
        base = N.k + 1
        goal = encode_column(N.right_column, base)
        if record:
            mask, log = saturate(S, N, record=True, stop_at_goal=True)
            ok = bool((mask >> goal) & 1)
            tableaux.append(_build_proof(S, N, log, ok))
        else:
            mask, _ = saturate(S, N, record=False, stop_at_goal=True)
            ok = bool((mask >> goal) & 1)
        if not ok:
            verdict = False
            if not record:
                return False, []
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
    if frozenset(cols) != proof.final_columns:
        return False, len(proof.steps)
    return True, None


def check_tableau(proof):
    return verify_tableau(proof)[0]


# --- JSON interchange --------------------------------------------------------


def _col_json(col):
    return [entry_text(e) for e in col]


def _col_from_json(items):
    return tuple(STAR if t == "*" else int(t) for t in items)


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
    goal = parse_matrix(data["goal"])
    hyps = tuple(parse_matrix(t) for t in data["hypotheses"])
    steps = []
    for s in data["steps"]:
        witnesses = tuple(
            (
                w["matrix"],
                w["row"],
                tuple(STAR if t == "*" else int(t) for t in w["map"]),
            )
            for w in s["witnesses"]
        )
        steps.append(
            TableauStep(
                _col_from_json(s["added"]),
                witnesses,
                tuple(_col_from_json(c) for c in s["consumed"]),
            )
        )
    return TableauProof(goal, hyps, tuple(steps), bool(data["verdict"]))


def dump_tableau(proof, path):
    with open(path, "w") as fh:
        json.dump(tableau_to_json(proof), fh, indent=2)
        fh.write("\n")


def load_tableau(path):
    with open(path) as fh:
        return tableau_from_json(json.load(fh))
