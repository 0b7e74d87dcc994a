"""Enumeration of matrix classes within a dimension window.

Candidates are generated directly in a constrained shape that every
lexicographically smallest class member satisfies (fixed right-column
pattern, ordered distinct left columns, per-row first-occurrence variable
naming, block-sorted rows), streamed in (rows, cols, vars, lex) order so the
first member seen of each class is its canonical representative.

Classes are separated cheaply by a semantic signature: the family of small
pointed relations stable under a matrix's derivation rules is an invariant
of the matrix class, so differing signatures can never mean equal classes.
Within a signature bucket the closure engine confirms equality both ways.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__, _kernel
from .closure import decide, instantiate
from .degeneracy import DegeneracyClass, degeneracy_class, is_trivial
from .localization import loc_equal, localize
from .matrix import STAR, entry_key, matrix
from .matrix import ExtendedMatrix

# Named localization targets (star-free matrices).
ANCHORS = {
    "maltsev": matrix([(1, 2, 2, 1), (2, 2, 1, 1)]),
    "majority": matrix([(2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1)]),
    "arithmetical": matrix([(1, 2, 2, 1), (2, 2, 1, 1), (1, 2, 1, 1)]),
    "minority": matrix([(1, 2, 2, 1), (2, 1, 2, 1), (2, 2, 1, 1)]),
}


class CheckpointError(RuntimeError):
    pass


# --- candidate generation ----------------------------------------------------


def window_caps(n, m, k):
    """Saturation caps: beyond them a window gains no new classes."""
    m_eff = m
    if k > 0:
        m_eff = min(m, (k + 1) ** n - 2)
    k_eff = k
    if m_eff > 1:
        k_eff = min(k, m_eff - 1)
    return m_eff, k_eff


def _valid_columns(n_rows, k):
    cols = [
        c
        for c in itertools.product(range(k + 1), repeat=n_rows)
        if any(e != STAR for e in c)
    ]
    cols.sort(key=lambda c: tuple(entry_key(e) for e in c))
    return cols


def _gen_shape(n_rows, a, m_cols, cols):
    """Candidate row tuples for a fixed row count, right-column split
    (a variable rights, the rest stars) and left column count, streamed in
    left-column lex order."""
    b = n_rows - a
    pairs = [i for i in range(n_rows - 1) if (i + 1 < a) or (i >= a)]
    seen0 = tuple([1] * a + [0] * b)
    sep0 = tuple([False] * len(pairs))

    def emit(chosen):
        rows = []
        for r in range(n_rows):
            rows.append(tuple(c[r] for c in chosen) + ((1,) if r < a else (0,)))
        return tuple(rows)

    def rec(start, chosen, seen, seps):
        if len(chosen) == m_cols:
            if all(seps):
                yield emit(chosen)
            return
        need = m_cols - len(chosen)
        for idx in range(start, len(cols) - need + 1):
            c = cols[idx]
            new_seen = list(seen)
            ok = True
            for r in range(n_rows):
                e = c[r]
                if e == STAR:
                    continue
                if e > seen[r] + 1:
                    ok = False
                    break
                if e == seen[r] + 1:
                    new_seen[r] = e
            if not ok:
                continue
            new_seps = list(seps)
            for pi, r in enumerate(pairs):
                if seps[pi]:
                    continue
                ka, kb = entry_key(c[r]), entry_key(c[r + 1])
                if ka > kb:
                    ok = False
                    break
                if ka < kb:
                    new_seps[pi] = True
            if not ok:
                continue
            yield from rec(idx + 1, chosen + [c], tuple(new_seen), tuple(new_seps))

    if m_cols == 0:
        if all(sep0) or not pairs:
            yield emit([])
    else:
        yield from rec(0, [], seen0, sep0)


def _max_var(rows):
    return max((e for row in rows for e in row), default=0)


def _batch_stream(n_, m_, k_eff):
    """One batch, lazily, in (max variable, lex key) order.

    The lex key reads the right column first, so for a fixed variable budget
    the splits with more variable rights come first; within a split
    _gen_shape already emits in left-column lex order.  Candidates are
    grouped by their exact maximum variable by regenerating with each budget
    and filtering, which keeps the stream sorted without materializing it.
    """
    for v in range(0, k_eff + 1):
        cols = _valid_columns(n_, v)
        for a in range(n_, -1, -1):
            if a > 0 and v == 0:
                continue
            for rows in _gen_shape(n_, a, m_, cols):
                if _max_var(rows) == v:
                    yield rows


def candidate_batches(n, m, k):
    """Yields ((n', m'), candidate row tuple stream) in stream order."""
    m_eff, k_eff = window_caps(n, m, k)
    for n_ in range(1, n + 1):
        for m_ in range(0, m_eff + 1):
            yield (n_, m_), _batch_stream(n_, m_, k_eff)


def candidate_stream(n, m, k):
    for _shape, batch in candidate_batches(n, m, k):
        yield from batch


# --- class signatures --------------------------------------------------------

_SAMPLE_LIMIT = 1024
_probe_cache = {}


def _probe_masks(n_p, k_p):
    key = (n_p, k_p)
    if key not in _probe_cache:
        universe = (k_p + 1) ** n_p
        count = 1 << (universe - 1)
        if count <= _SAMPLE_LIMIT:
            masks = [1 | (r << 1) for r in range(count)]
        else:
            rng = random.Random(0xC0FFEE ^ (n_p * 31 + k_p))
            picks = {1 | (rng.getrandbits(universe - 1) << 1) for _ in range(_SAMPLE_LIMIT)}
            masks = sorted(picks)
        _probe_cache[key] = tuple(masks)
    return _probe_cache[key]


def probes_for(n, k):
    # no (1, 1) probe: its relations are {*} and the full one, and {*} is
    # stable unless a row's variable right entry is missing from its left
    # part, which makes the matrix trivial.  So the probe reads the same on
    # every non-trivial matrix and tells no proper classes apart.
    probes = [(2, 1), (3, 1)]
    if k >= 2:
        probes.append((2, 2))
    if n >= 4:
        probes.append((4, 1))
    if n >= 3 and k >= 2:
        probes.append((3, 2))
    return probes


def signature(M, probes):
    """Stability bitvectors of small pointed relations under M's rules."""
    sig = []
    for n_p, k_p in probes:
        masks = _probe_masks(n_p, k_p)
        rows = instantiate(M, k_p)
        sig.append(_kernel.sharp_bits(n_p, k_p, M.m, rows, masks))
    return tuple(sig)


# --- classification ----------------------------------------------------------


@dataclass
class ClassNode:
    id: int
    rep: ExtendedMatrix
    kind: DegeneracyClass
    members: int = 1
    sig: tuple = None


@dataclass
class Group:
    label: str
    class_ids: list


@dataclass
class PosetGraph:
    params: tuple  # (n, m, k)
    classes: list
    edges: set = None  # directed (i, j): class i implies class j
    reduced: set = None
    groups: list = None


def _equiv(A, B):
    """Class equality: A and B imply each other."""
    return decide([A], [B])[0] and decide([B], [A])[0]


# probes of the edge signatures: on the Hasse order of (3,3,2) and (4,3,1)
# they cost 0.015 s in all, while (3,2) alone costs about 2 ms per matrix
_EDGE_PROBES = ((2, 1), (3, 1))


class Decider:
    """Directional implication between single matrices, as the Hasse edges
    ask it, answered from what earlier answers imply where they can.

    Each matrix is numbered the first time it is seen and keeps a signature
    over `_EDGE_PROBES` and two bitsets over the numbers: `succ`, the
    matrices it is known to imply (itself included), and `nots`, those it
    is known not to imply.  `implies(A, B)` answers, in this order:

    1. False when A's signature has a bit that B's lacks;
    2. True when B is in succ[A];
    3. False when B is in nots[A];
    4. otherwise `decide([A], [B])`, whose answer extends the bitsets.

    Signatures: suppose A implies B, so B's right column derives from its
    left columns and `*` under A's rules.  Instantiate that derivation
    along any row map of B.  If a pointed relation is stable under A's
    rules, each step keeps it closed, so it is stable under B's rules too:
    stable(A) is a subset of stable(B), bit by bit.  A trivial A implies
    everything without a derivation, so it gets the empty signature, which
    refutes nothing.

    Transitivity: `decide` is a complete decision procedure for a
    preorder.  A => B gives A => every successor of B, and B =/=> every
    known non-successor of A.  A =/=> B gives W =/=> B for every W that A
    implies, since W => B would give A => B.

    Every Hasse pair goes through `implies`, so the traced benchmark
    (`perfbench/tracer.py`) counts the pairs as `Decider.implies` calls,
    the `enumeration.decide` calls below them as edge decides and the rest
    as hits.  Membership and grouping tests must not call it: they go
    through `_equiv`, so that `implies` counts the edge decides alone.
    """

    def __init__(self):
        self._ids = {}
        self._sig = []
        self._succ = []
        self._nots = []

    def _number(self, M):
        i = self._ids.get(M)
        if i is None:
            i = self._ids[M] = len(self._sig)
            self._sig.append(() if is_trivial(M) else signature(M, _EDGE_PROBES))
            self._succ.append(1 << i)
            self._nots.append(0)
        return i

    def implies(self, A, B):
        i, j = self._number(A), self._number(B)
        if any(a & ~b for a, b in zip(self._sig[i], self._sig[j])):
            return False
        succ, nots = self._succ, self._nots
        if (succ[i] >> j) & 1:
            return True
        if (nots[i] >> j) & 1:
            return False
        if decide([A], [B])[0]:
            succ[i] |= succ[j]
            nots[j] |= nots[i]
            return True
        bit, ws = 1 << j, succ[i]
        while ws:
            low = ws & -ws
            nots[low.bit_length() - 1] |= bit
            ws ^= low
        return False


def classify(n, m, k, *, with_order=False, with_groups=False,
             checkpoint_dir=None, workers=1, progress=None):
    """Partition the window's candidates into matrix classes.

    Returns a PosetGraph whose classes appear in canonical order; edges and
    groups are filled in only on request.
    """
    _check_window(n, m, k)
    _check_workers(workers)
    probes = probes_for(n, k)

    classes = []
    sig_buckets = {}
    degenerate_ids = {}
    done = set()

    state = _load_checkpoint(checkpoint_dir, n, m, k)
    if state is not None:
        done = {tuple(s) for s in state["done_batches"]}
        for rec in state["classes"]:
            node = ClassNode(
                id=len(classes),
                rep=matrix([tuple(r) for r in rec["rows"]]),
                kind=DegeneracyClass(rec["kind"]),
                members=rec["members"],
            )
            classes.append(node)
            if node.kind is DegeneracyClass.PROPER:
                # signatures are recomputed rather than trusted: a stored
                # value from a different build would silently split classes
                node.sig = signature(node.rep, probes)
                sig_buckets.setdefault(node.sig, []).append(node.id)
            else:
                degenerate_ids[node.kind] = node.id

    last_cid = None
    for shape, batch in candidate_batches(n, m, k):
        if shape in done:
            continue
        for rows in batch:
            M = matrix(rows)
            kind = degeneracy_class(M)
            if kind is not DegeneracyClass.PROPER:
                cid = degenerate_ids.get(kind)
                if cid is None:
                    node = ClassNode(len(classes), M, kind)
                    degenerate_ids[kind] = node.id
                    classes.append(node)
                else:
                    classes[cid].members += 1
                continue
            # consecutive candidates often share a class; checking that first
            # skips the signature computation.  Membership tests are not
            # memoized: every candidate is seen once, caching them only
            # grows memory with the window size.
            if last_cid is not None and _equiv(M, classes[last_cid].rep):
                classes[last_cid].members += 1
                continue
            sig = signature(M, probes)
            bucket = sig_buckets.setdefault(sig, [])
            for cid in reversed(bucket):
                if cid == last_cid:
                    continue
                if _equiv(M, classes[cid].rep):
                    classes[cid].members += 1
                    last_cid = cid
                    break
            else:
                node = ClassNode(len(classes), M, DegeneracyClass.PROPER, sig=sig)
                classes.append(node)
                bucket.append(node.id)
                last_cid = node.id
        done.add(shape)
        if progress:
            progress(shape, len(classes))
        _save_checkpoint(checkpoint_dir, n, m, k, done, classes)

    graph = PosetGraph(params=(n, m, k), classes=classes)
    if with_order:
        graph.edges = compute_edges([c.rep for c in classes], workers)
        graph.reduced = transitive_reduction(len(classes), graph.edges)
    if with_groups:
        graph.groups = compute_groups(classes)
    return graph


def _check_window(n, m, k):
    if n < 1 or m < 0 or k < 0:
        raise ValueError(f"window ({n}, {m}, {k}) needs n >= 1, m >= 0 and k >= 0")


def _check_workers(workers):
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")


# --- order and reduction -----------------------------------------------------


def _edge_rows(reps, rows):
    """The edges (i, j) leaving the representatives whose index i is in rows."""
    implies = Decider().implies
    return [
        (i, j)
        for i in rows
        for j in range(len(reps))
        if i != j and implies(reps[i], reps[j])
    ]


def compute_edges(reps, workers=1):
    """All directed implications between class representatives, decided in
    `workers` processes (this one alone when workers is 1)."""
    _check_workers(workers)
    P = len(reps)
    if workers == 1:
        return set(_edge_rows(reps, range(P)))
    edges = set()
    chunks = [range(i, P, workers) for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_edge_rows, [reps] * workers, chunks):
            edges.update(part)
    return edges


def transitive_reduction(count, edges):
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


# --- localization grouping ---------------------------------------------------


def compute_groups(classes):
    """Partition classes by the property they impose on localizations.

    The two degenerate classes each stand alone; proper classes are grouped
    through their localized matrices, bucketed by signature first.  A group
    is named after the first anchor its localization equals: for a proper
    class and a non-trivial anchor, that is `loc_equal`.
    """
    groups = []
    loc_reps = {}  # group index -> localized representative
    buckets = {}
    # one probe set for every localized matrix: signatures are comparable
    # across shapes only when taken over identical probes
    proper = [c for c in classes if c.kind is DegeneracyClass.PROPER]
    if proper:
        probes = probes_for(
            max(c.rep.n for c in proper), max(c.rep.k for c in proper) + 1
        )
    for node in classes:
        if node.kind is DegeneracyClass.TRIVIAL:
            groups.append(Group("trivial", [node.id]))
            continue
        if node.kind is DegeneracyClass.ANTI_TRIVIAL:
            groups.append(Group("anti-trivial", [node.id]))
            continue
        L = localize(node.rep)
        sig = signature(L, probes)
        for gi in buckets.get(sig, []):
            if _equiv(L, loc_reps[gi]):
                groups[gi].class_ids.append(node.id)
                break
        else:
            gi = len(groups)
            groups.append(Group(None, [node.id]))
            loc_reps[gi] = L
            buckets.setdefault(sig, []).append(gi)
    anchors = {name: localize(anchor) for name, anchor in ANCHORS.items()}
    for gi, L in loc_reps.items():
        groups[gi].label = next(
            (name for name, A in anchors.items() if _equiv(L, A)), "loc:" + L.text()
        )
    return groups


def subposet_by_localization(classes, anchor, workers=1):
    """Classes localization-equal to the anchor, with their induced order."""
    nodes = [c for c in classes if not _degenerate(c) and loc_equal(c.rep, anchor)]
    reps = [c.rep for c in nodes]
    local = compute_edges(reps, workers)
    reduced = transitive_reduction(len(reps), local)
    return nodes, local, reduced


def _degenerate(node):
    return node.kind is not DegeneracyClass.PROPER


# --- canonical representative ------------------------------------------------


def canonical(M, window=None):
    """First candidate of the window equivalent to M: the smallest class
    member by (rows, cols, vars, lex)."""
    if window is None:
        window = (M.n, M.m, M.k)
    n, m, k = window
    _check_window(n, m, k)
    kind = degeneracy_class(M)
    if kind is DegeneracyClass.TRIVIAL:
        return matrix([(1,)])
    if kind is DegeneracyClass.ANTI_TRIVIAL:
        return matrix([(STAR,)])
    probes = probes_for(n, k)
    sig_M = signature(M, probes)
    for rows in candidate_stream(n, m, k):
        C = matrix(rows)
        if degeneracy_class(C) is not DegeneracyClass.PROPER:
            continue
        if signature(C, probes) != sig_M:
            continue
        if _equiv(C, M):
            return C
    raise ValueError("no window candidate is equivalent to the matrix")


# --- checkpointing -----------------------------------------------------------


def _ckpt_path(directory, n, m, k):
    return os.path.join(directory, f"classify_{n}_{m}_{k}.json")


def _load_checkpoint(directory, n, m, k):
    if not directory:
        return None
    path = _ckpt_path(directory, n, m, k)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            state = json.load(fh)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise CheckpointError(f"corrupted checkpoint {path}: {exc}")
    problem = _checkpoint_problem(state, n, m, k)
    if problem:
        raise CheckpointError(f"cannot resume from checkpoint {path}: {problem}")
    return state


def _stamp(n, k):
    """The build a checkpoint belongs to: the package version and the
    signature probes, which decide how candidates are bucketed."""
    return {"version": __version__, "probes": [list(p) for p in probes_for(n, k)]}


def _int_list(value, length=None):
    return (
        isinstance(value, list)
        and (length is None or len(value) == length)
        and all(type(e) is int and e >= 0 for e in value)
    )


def _checkpoint_problem(state, n, m, k):
    """What keeps state from being a checkpoint _save_checkpoint wrote for
    the window (n, m, k), or None."""
    if not isinstance(state, dict):
        return "not a JSON object"
    for key, want in _stamp(n, k).items():
        if state.get(key) != want:
            return (f"written by another build ({key} {state.get(key)!r}, "
                    f"expected {want!r}); delete it to start over")
    if state.get("params") != [n, m, k]:
        return "params"
    done = state.get("done_batches")
    if not isinstance(done, list) or not all(_int_list(s, 2) for s in done):
        return "done_batches"
    classes = state.get("classes")
    if not isinstance(classes, list):
        return "classes"
    kinds = [kind.value for kind in DegeneracyClass]  # a list: kind may be unhashable
    for i, rec in enumerate(classes):
        if not isinstance(rec, dict):
            return f"classes[{i}]"
        rows = rec.get("rows")
        if not (
            isinstance(rows, list)
            and rows
            and all(_int_list(r) and r and len(r) == len(rows[0]) for r in rows)
        ):
            return f"classes[{i}].rows"
        if rec.get("kind") not in kinds:
            return f"classes[{i}].kind"
        members = rec.get("members")
        if type(members) is not int or members < 1:
            return f"classes[{i}].members"
    return None


def _save_checkpoint(directory, n, m, k, done, classes):
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    path = _ckpt_path(directory, n, m, k)
    state = {
        **_stamp(n, k),
        "params": [n, m, k],
        "done_batches": sorted(list(s) for s in done),
        "classes": [
            {
                "rows": [list(r) for r in c.rep.rows],
                "kind": c.kind.value,
                "members": c.members,
            }
            for c in classes
        ],
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh)
    os.replace(tmp, path)
