"""Column-closure engine: implication between matrix sets with certificates.

decide(S, U) answers whether every finitely complete pointed category with
closed relations for all of S also has them for every member of U.  The
positive direction is witnessed by a column tableau per goal matrix; the
negative direction by the saturated column set missing the goal's right
column.

The closure of a goal's columns under S's rules depends on S and on the
goal's shape (n, k) only, so a verdict-only decide keeps the column sets
it derived per (S, n, k) and answers a later goal from them where
monotonicity settles it (`_Derived`): the closure of a smaller seed lies
in the goal's closure, and a closed set holding the goal's columns holds
their closure.  Recorded decides always saturate.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from operator import itemgetter

from . import _kernel
from .degeneracy import is_trivial
from .matrix import STAR, _Frozen, entry_texts, parse_entries, parse_matrix


def encode_column(col, base):
    code = 0
    for e in reversed(col):  # Horner: entry i has weight base**i
        code = code * base + e
    return code


def decode_column(code, base, n):
    col = []
    for _ in range(n):
        col.append(code % base)
        code //= base
    return tuple(col)


def apply_map(row, fmap):
    # entry e of row is item e of (STAR, *fmap)
    return tuple(map((STAR, *fmap).__getitem__, row))


# small on purpose: enumeration instantiates each candidate once, and large
# alphabets make entries big; only the recurring representatives need to
# stay.  Keyed by the matrix, whose hash is kept, so a decide's lookup
# hashes no rows
@lru_cache(maxsize=1 << 8)
def instantiate(M, k_target):
    """Deduplicated instantiated rows of M over the target alphabet: row by
    row, each row's instances in the itertools.product order of the maps of
    the variables it uses into 0..k_target."""
    values = range(k_target + 1)
    rows = itertools.chain.from_iterable(
        # each map as (STAR, *fmap), so that entry e of the row is item e,
        # with the variables the row leaves out fixed at STAR
        map(itemgetter(*row), itertools.product(
            (STAR,), *[values if v in row else (STAR,) for v in range(1, M.k + 1)]))
        for row in M.rows
    )
    # the itemgetter of a one-entry row returns the entry, not a tuple
    return tuple(dict.fromkeys(rows if M.m else zip(rows)))


def col_star_mask(N):
    """Bitmask of N's left columns together with the all-star column."""
    base = N.k + 1
    mask = 1  # all-star column has code 0
    for col in itertools.islice(zip(*N.rows), N.m):
        mask |= 1 << encode_column(col, base)
    return mask


# one entry per goal matrix, and the only per-goal cache of a decide.
# compute_edges asks the goals of a window over and over, one row of pairs
# at a time, so the cache holds every class of (4,7,1) (1,953): its
# compute_edges hits on 149,535 of 151,170 lookups.  An entry holds the
# goal's kernel seed, about 0.65 KB on (4,7,1), so at most 1.4 MB
@lru_cache(maxsize=1 << 11)
def _goal_codes(N):
    """The kernel seed of col*(N) (`_kernel._seed`: the column mask, its
    digit lists and the field mask) and the code of N's right column."""
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
    row tuples, keep the column set as digit lists and one int mask, and
    differ only in when a derived column joins the set.  Without record
    `_kernel.closure_mask` adds each column at once; with record
    `_kernel.closure_record` runs batch rounds (each round reads the column
    set as it was at its start) and keeps, for each new column, the first
    witness that consumes the fewest derived columns, so that a
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
        rows = zip(*cols, added)
        steps.append(
            TableauStep(added, tuple((mi,) + _witness(S[mi], row) for row in rows), tuple(cols))
        )
    return TableauProof(N, tuple(S), tuple(steps), verdict)


class _Derived:
    """The column sets that verdict-only decides of one tuple of hypotheses
    derived for goals of one shape (n, k): (seed, mask, closed) per
    saturation, seed the goal's col* mask, mask the kernel's result and
    closed whether that mask is the full fixpoint (the goal was not
    reached).  It keeps the first `room` saturations, one per column code
    of the universe, so that a lookup scans at most that many.
    """

    __slots__ = ("hyps", "known", "room")

    def __init__(self, hyps, room):
        self.hyps = hyps
        self.known = []
        self.room = room

    def reaches(self, N):
        """Does the closure of col*(N) under the hypotheses hold N's right
        column?

        Their closure cl over N's universe is monotone, and a closed set
        holds the closure of each of its subsets.  So a kept saturation of
        seed s and mask c settles N, of col* mask r0, where
        - c holds the goal and s <= r0: True, since c <= cl(s) <= cl(r0);
        - c lacks the goal, is closed and r0 <= c: False, since
          cl(r0) <= c.
        Otherwise `saturate` runs, and its result is kept while there is
        room.
        """
        seed, goal = _goal_codes(N)
        r0 = seed[0]
        if (r0 >> goal) & 1:
            return True
        known = self.known
        for s, c, closed in known:
            if (c >> goal) & 1:
                if not s & ~r0:
                    return True
            elif closed and not r0 & ~c:
                return False
        mask, _ = saturate(self.hyps, N)
        ok = bool((mask >> goal) & 1)
        if len(known) < self.room:
            known.append((r0, mask, not ok))
        return ok


# one entry per (hypotheses, goal shape).  compute_edges asks one hypothesis
# against a row of goals, classify a representative against the candidates
# of its bucket, and the subposets repeat the groups' loc_equal.  Measured
# in pure Python, classify with order and groups: (3,4,2) settles 2,167 of
# its 16,850 verdict-only goals without a saturation (2,277 with no bound,
# 2,004 with 1,024 keys, 1,903 with 16 saturations per key), (4,4,1) 689
# of 2,764 (762 with no bound); the hasse workload's orders 50 of 369.
# (3,4,2) ends holding 12,725 saturations in 1.5 MB, about 0.12 KB each.
# A key holds at most (k+1)**n, 81 for the localized goals of 4-row
# windows of one variable, so 2,048 full keys would take about 20 MB
@lru_cache(maxsize=1 << 11)
def _derived(S, n, k):
    """The `_Derived` of the hypotheses S, a tuple, for goals of shape (n, k)."""
    return _Derived(S, (k + 1) ** n)


def decide(S, U, record=False):
    """Does closedness for every matrix in S force closedness for all of U?

    Returns (verdict, tableaux); tableaux are produced only with record=True
    and triviality of S short-circuits without certificates.  A
    verdict-only decide answers a goal from the column sets that earlier
    decides of the same hypotheses derived for goals of its shape where
    they settle it (`_Derived.reaches`), else saturates; a recorded
    decide always saturates, so every tableau comes from the kernel.
    """
    S = tuple(S)
    if any(map(is_trivial, S)):
        return True, []
    if not record:
        for N in U:
            if not _derived(S, N.n, N.k).reaches(N):
                return False, []
        return True, []
    tableaux = []
    for N in U:
        mask, log = saturate(S, N, record=True)
        tableaux.append(_build_proof(S, N, log, bool((mask >> _goal_codes(N)[1]) & 1)))
    return all(t.verdict for t in tableaux), tableaux


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
        mats = {w[0] for w in step.witnesses}
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
        *consumed, right = zip(*inst_rows)
        if tuple(consumed) != step.consumed:
            return False, si
        if any(c not in cols for c in consumed):
            return False, si
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
                "added": entry_texts(step.added),
                "witnesses": [
                    {"matrix": mi, "row": ri, "map": entry_texts(fmap)}
                    for mi, ri, fmap in step.witnesses
                ],
                "consumed": list(map(entry_texts, step.consumed)),
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
