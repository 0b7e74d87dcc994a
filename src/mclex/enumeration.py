"""Enumeration of matrix classes within a dimension window.

Candidates are generated directly in a constrained shape that every
lexicographically smallest class member satisfies (fixed right-column
pattern, ordered distinct left columns, per-row first-occurrence variable
naming, block-sorted rows), streamed in (rows, cols, vars, lex) order so the
first member seen of each class is its canonical representative.

Candidates with the same entry-level normal form share a class outright.
The others are separated cheaply by a semantic signature: the family of small
pointed relations stable under a matrix's derivation rules is an invariant
of the matrix class, so differing signatures can never mean equal classes.
Within a signature bucket the closure engine confirms equality both ways,
except in a direction whose goal a probe listing every pointed relation of
its shape covers: there equal signatures mean implication (`_covers`).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from functools import lru_cache

from . import __version__, _kernel
from .closure import decide, instantiate
from .degeneracy import DegeneracyClass, degeneracy_class, is_trivial, kind_of_rows
from .localization import loc_equal, localize
from .matrix import STAR, _normalize_rows, entry_key, matrix

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


def _gen_shape(n_rows, a, m_cols, v):
    """Candidate row tuples for a fixed row count, right-column split
    (a variable rights, the rest stars), left column count and largest
    variable v, streamed lazily, depth first, in left-column lex order.

    Rows are block-sorted: each column has a bitmask of the neighbouring
    row pairs it orders wrongly and one of those it separates, and the
    walk keeps the pairs not yet separated as one int.  seen[r] is the
    largest variable of row r so far, right entry included (STAR is 0, so
    seen starts at rights); its step per (column, seen) is memoized."""
    cols = _valid_columns(n_rows, v)
    rights = (1,) * a + (STAR,) * (n_rows - a)
    pairs = [r for r in range(n_rows - 1) if r + 1 < a or r >= a]
    keys = [tuple(map(entry_key, c)) for c in cols]
    wrong = [sum(1 << i for i, r in enumerate(pairs) if k[r] > k[r + 1]) for k in keys]
    splits = [sum(1 << i for i, r in enumerate(pairs) if k[r] < k[r + 1]) for k in keys]
    steps = {}

    def step(idx, seen):
        # () when column idx names a variable out of order
        new_seen = list(seen)
        for r, e in enumerate(cols[idx]):
            if e > seen[r] + 1:
                return ()
            if e == seen[r] + 1:
                new_seen[r] = e
        return tuple(new_seen)

    chosen = []

    def rec(start, seen, open_pairs):
        depth = len(chosen) + 1
        for idx in range(start, len(cols) - m_cols + depth):
            if wrong[idx] & open_pairs:
                continue
            new_seen = steps.get((idx, seen))
            if new_seen is None:
                new_seen = steps[idx, seen] = step(idx, seen)
            if not new_seen:
                continue
            if depth == m_cols:
                # the last column yields without a generator per candidate
                if not open_pairs & ~splits[idx] and max(new_seen) == v:
                    yield tuple(zip(*chosen, cols[idx], rights))
            else:
                chosen.append(cols[idx])
                yield from rec(idx + 1, new_seen, open_pairs & ~splits[idx])
                chosen.pop()

    if m_cols:
        yield from rec(0, rights, (1 << len(pairs)) - 1)
    elif not pairs and max(rights) == v:
        yield tuple(zip(rights))


def candidate_batches(n, m, k):
    """Yields ((n', m'), candidate row tuple stream) in stream order.

    A batch streams lazily in (largest variable, lex key) order.  The lex
    key reads the right column first, so for one largest variable the
    splits with more variable rights come first, and within a split
    _gen_shape emits in left-column lex order.  Each largest variable v
    generates the shapes again over the columns with entries up to v and
    keeps the candidates that use v, which keeps the stream sorted without
    materializing it.
    """
    m_eff, k_eff = window_caps(n, m, k)
    for n_ in range(1, n + 1):
        for m_ in range(0, m_eff + 1):
            yield (n_, m_), _batch(n_, m_, k_eff)


def _batch(n_, m_, k_eff):
    # a function, so each batch binds its own shape however late it streams
    for v in range(k_eff + 1):
        # a variable right entry needs v >= 1
        for a in range(n_ if v else 0, -1, -1):
            yield from _gen_shape(n_, a, m_, v)


def candidate_stream(n, m, k):
    for _shape, batch in candidate_batches(n, m, k):
        yield from batch


# --- class signatures --------------------------------------------------------

_SAMPLE_LIMIT = 1024


# one entry per probe shape, at most 1,024 small ints each
@lru_cache(maxsize=16)
def _probe_masks(n_p, k_p):
    universe = (k_p + 1) ** n_p
    count = 1 << (universe - 1)
    if count <= _SAMPLE_LIMIT:
        return tuple(1 | (r << 1) for r in range(count))
    rng = random.Random(0xC0FFEE ^ (n_p * 31 + k_p))
    picks = {1 | (rng.getrandbits(universe - 1) << 1) for _ in range(_SAMPLE_LIMIT)}
    return tuple(sorted(picks))


def probes_for(n, k):
    # Signatures choose which classes a candidate is decided against, and
    # answer without a decide the goals that a complete probe covers: (3, 1)
    # and (2, 2) list all their 128 and 256 pointed relations, (4, 1) only
    # 1,024 samples of 32,768 (see `_covers`).  Either way the answers are
    # exact, so the probe list sets the speed of classify, never its
    # output.  Measured in pure Python on 2 noisy cores, single runs, with
    # the sorted-tuple sharp_bits, before covered goals skipped their
    # decides:
    # - no (1, 1) probe: its relations are {*} and the full one, and {*} is
    #   stable unless a row's variable right entry is missing from its left
    #   part, which makes the matrix trivial.  So the probe reads the same
    #   on every non-trivial matrix and tells no proper classes apart.
    # - no (2, 1) probe: a rule on three rows breaks the cylinder
    #   R x {*, x1} of a pointed relation R on two rows exactly when the
    #   rule of its first two rows breaks R, so (3, 1), which tests every
    #   pointed relation on three rows, decides R through its cylinder.
    # - no (3, 2) probe: with it (3,3,2) took 0.32 s instead of 0.18 s to
    #   save 2 of 544 decides, and (3,4,2) 8.5 s instead of 3.9 s to save
    #   609 of 18,048.
    # - (2, 2) stays: without it (3,4,2) took 4.9 s instead of 3.9 s, with
    #   19,600 decides instead of 18,048.
    # - (4, 1) stays: without it (4,6,1) took 11.3 s instead of 4.9 s, with
    #   42,473 decides instead of 12,526.
    # - (3, 1) comes first: its block alone gates classify's decide against
    #   the last class placed, so the first probe stays the cheapest one,
    #   and it covers the gate's goals of at most 3 rows and 1 variable.
    probes = [(3, 1)]
    if k >= 2:
        probes.append((2, 2))
    if n >= 4:
        probes.append((4, 1))
    return probes


# bounded, and the only signature cache: classify, canonical, the Decider,
# groups and subposets all read it, so a block is signed once while it is
# among the last 4,096 asked.  Edges and groups take two (3, 1) blocks per
# class, its representative's and its localization's, so the subposets of
# a window up to 2,000 classes find all of theirs.  An entry keeps a small
# matrix and an int of at most 1,024 bits, under 1 KB, so at most 4 MB
@lru_cache(maxsize=1 << 12)
def _probe_bits(M, probe):
    """M's block of `signature` for one probe."""
    n_p, k_p = probe
    return _kernel.sharp_bits(n_p, k_p, M.m, instantiate(M, k_p), _probe_masks(n_p, k_p))


def signature(M, probes):
    """Stability bits of small pointed relations under M's rules, packed
    into one int: one block of len(_probe_masks(*probe)) bits per probe,
    the first probe highest.

    If A implies B, B's right column derives from its left columns and `*`
    under A's rules.  Instantiated along any row map of B, each step of that
    derivation keeps a relation that is stable under A's rules closed, so
    the relation is stable under B's rules too: sig(A) & ~sig(B) == 0, and
    non-trivial matrices that imply each other have equal signatures, block
    by block.  A trivial matrix implies everything without a derivation, so
    its signature says nothing about its class (see `Decider`).
    Localization keeps triviality: the prepended all-x column plays the part
    of the star node of `_trivial_rows`.  So proper matrices whose
    localizations have different signatures are not localization-equal.
    """
    sig = 0
    for probe in probes:
        sig = sig << len(_probe_masks(*probe)) | _probe_bits(M, probe)
    return sig


# --- classification ----------------------------------------------------------


class ClassNode:
    __slots__ = ("id", "rep", "kind", "members")

    def __init__(self, id, rep, kind, members=1):
        self.id = id
        self.rep = rep
        self.kind = kind
        self.members = members


class Group:
    __slots__ = ("label", "class_ids")

    def __init__(self, label, class_ids):
        self.label = label
        self.class_ids = class_ids


class PosetGraph:
    __slots__ = ("params", "classes", "edges", "reduced", "groups")

    def __init__(self, params, classes, edges=None, reduced=None, groups=None):
        self.params = params  # (n, m, k)
        self.classes = classes
        self.edges = edges  # directed (i, j): class i implies class j
        self.reduced = reduced
        self.groups = groups


def _covers(probes, N):
    """True when some probe lists every pointed relation of its shape
    (n_p, k_p) and N.n <= n_p, N.k <= k_p.  Then signatures over `probes`
    decide every implication whose goal is N from a non-trivial A (a
    trivial one implies everything): A => N exactly when
    sig(A) & ~sig(N) == 0.

    One way is `signature`'s.  For the other, suppose A does not imply N.
    The saturation S = cl_A(col*(N)) is a pointed relation of N's shape
    (N.n, N.k): it holds the all-star column, it is stable under A's rules
    over N.k variables, and N's own rule, its rows under the identity map,
    breaks it, as S has N's left columns but not its right column.  S
    reaches a relation of the probe's shape in two steps, each keeping
    both facts.

    - Sub-alphabet, for N.k < k_p: S read as a relation over 0..k_p.  Take
      a rule of A over k_p whose left columns lie in S.  A is not trivial,
      so each row's variable right entry reappears in its own left part;
      every variable the rule's rows use then takes a value of a left
      column, at most N.k, and the rule is one of A's rules over N.k.  So
      its right column lies in S.  N's identity map is a map into 0..k_p,
      so N's rule still breaks S.
    - Cylinder, for N.n < n_p: S x {0..k_p}^(n_p - N.n), the columns whose
      first N.n entries form a column of S.  A rule of A on n_p rows whose
      left columns lie in the cylinder restricts, on its first N.n rows, to
      a rule with left columns in S, so its right column lies in the
      cylinder.  N's rows followed by n_p - N.n copies of its first row
      form a rule of N whose left columns lie in the cylinder and whose
      right column does not.

    The relation reached is listed by the probe, stable under A and not
    under N, so its bit is in sig(A) and not in sig(N)."""
    return any(N.n <= n_p and N.k <= k_p
               and len(_probe_masks(n_p, k_p)) == 1 << ((k_p + 1) ** n_p - 1)
               for n_p, k_p in probes)


def _equiv(A, B, probes=()):
    """Class equality: A and B imply each other.  A and B have equal blocks
    over `probes`, so a direction whose goal `_covers` holds without a
    decide."""
    return ((_covers(probes, B) or decide([A], [B])[0])
            and (_covers(probes, A) or decide([B], [A])[0]))


# probes of every signature taken after classify, localized ones included.
# In pure Python on 2 cores, single runs, (4,1) would pay on the 79 groups
# of (4,5,1), 1.55 s against 2.57 s, but cost on the 37 of (4,4,1), 0.72 s
# against 0.45 s; (3,2) costs about 0.4 ms per matrix.
_EDGE_PROBES = ((3, 1),)


class Decider:
    """Directional implication between single matrices, as the Hasse edges
    ask it, answered from what earlier answers imply where they can.

    Each matrix is numbered the first time it is seen and keeps its
    signature over `_EDGE_PROBES`, 0 for a trivial matrix, and two bitsets
    over the numbers: `succ`, the matrices it is known to imply (itself
    included), and `nots`, those it is known not to imply.  `implies(A, B)`
    answers, in this order:

    1. False when A's signature has a bit that B's lacks, since
       implication keeps stability (see `signature`): one AND, sig[A] &
       ~sig[B], tests every probe.  A trivial A, of signature 0, refutes
       nothing.  A trivial B refutes every non-trivial A, whose (3, 1)
       block has the bit of the full relation, and rightly: a trivial
       matrix holds only in degenerate categories, which a non-trivial one
       does not force;
    2. True when B is in succ[A];
    3. False when succ[B] meets nots[A]: B implies a matrix that A does
       not, so A =/=> B (B itself included, as B is in succ[B]);
    4. True when `_covers(_EDGE_PROBES, B)`, kept as one flag per number:
       rule 1 has passed, and over a probe that lists every pointed
       relation of a shape that holds B, signatures decide A => B exactly;
    5. otherwise `decide([A], [B])`, which answers from the column sets
       that earlier decides with hypothesis A derived for goals of B's
       shape where they settle it, and saturates otherwise (see
       `closure._Derived`): compute_edges asks row i's pairs in a row, so
       they share one list.  A true answer of rule 4 or 5 extends succ[A],
       a false one of rule 5 the nots.

    A and B are matrices or the numbers `_number` gave them.
    `compute_edges` numbers its representatives once and asks by number,
    so a pair costs no lookup; asking by matrix costs a dict lookup each,
    on the matrix's cached hash.

    Transitivity: `decide` is a complete decision procedure for a
    preorder.  A => B gives A => every successor of B, and B =/=> every
    known non-successor of A.  A =/=> B gives W =/=> B for every W that A
    implies, since W => B would give A => B.

    Every Hasse pair goes through `implies`, so the traced benchmark
    (`perfbench/tracer.py`) counts the pairs as `Decider.implies` calls,
    the `enumeration.decide` calls below them as edge decides and the rest
    as hits.  Membership and grouping tests must not call it: they go
    through `_equiv` and `loc_equal`, so that `implies` counts the edge
    decides alone.
    """

    def __init__(self):
        self._ids = {}
        self._mats = []
        self._sig = []
        self._cover = []
        self._succ = []
        self._nots = []

    def _number(self, M):
        i = self._ids.get(M)
        if i is None:
            i = self._ids[M] = len(self._sig)
            self._mats.append(M)
            self._sig.append(0 if is_trivial(M) else signature(M, _EDGE_PROBES))
            self._cover.append(_covers(_EDGE_PROBES, M))
            self._succ.append(1 << i)
            self._nots.append(0)
        return i

    def implies(self, A, B):
        i = A if A.__class__ is int else self._number(A)
        j = B if B.__class__ is int else self._number(B)
        if self._sig[i] & ~self._sig[j]:
            return False
        succ, nots = self._succ, self._nots
        if (succ[i] >> j) & 1:
            return True
        if succ[j] & nots[i]:
            return False
        if self._cover[j] or decide([self._mats[i]], [self._mats[j]])[0]:
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
             checkpoint_dir=None, progress=None):
    """Partition the window's candidates into matrix classes.

    Returns a PosetGraph whose classes appear in canonical order; edges and
    groups are filled in only on request.
    """
    _check_window(n, m, k)
    probes = probes_for(n, k)
    gate = probes[0]

    classes = []
    sig_buckets = {}
    degenerate_ids = {}

    def add_class(M, kind, members=1):
        # every class is created here
        cid = len(classes)
        classes.append(ClassNode(cid, M, kind, members))
        if kind is not DegeneracyClass.PROPER:
            degenerate_ids[kind] = cid
        return cid

    done, resumed = _load_checkpoint(checkpoint_dir, n, m, k)
    for rows, kind, members in resumed:
        # signed by this build: a stored signature from another build would
        # split classes
        M = matrix(rows)
        cid = add_class(M, kind, members)
        if kind is DegeneracyClass.PROPER:
            sig_buckets.setdefault(signature(M, probes), []).append(cid)

    last_cid = None
    for shape, batch in itertools.islice(candidate_batches(n, m, k), len(done), None):
        # A candidate's rows are distinct and named by first occurrence, and
        # its left columns distinct and not all stars, so its normal form
        # has the candidate's shape.  A form never recurs in a later batch,
        # and a resumed run starts the memo empty at no cost.
        by_normal_form = {}  # _normalize_rows of a proper member -> its class id
        for rows in batch:
            # a matrix is built only for each degenerate class's first
            # candidate and for the proper candidates that the normal forms
            # do not place
            kind = kind_of_rows(rows)
            if kind is not DegeneracyClass.PROPER:
                cid = degenerate_ids.get(kind)
                if cid is None:
                    add_class(matrix(rows), kind)
                else:
                    classes[cid].members += 1
                continue
            # Row and column order, per-row renaming and dropping duplicate
            # or all-star columns and duplicate rows all keep the class, so
            # candidates with one normal form share a class: the first of
            # them places it, the rest need no signature and no decide.
            form = _normalize_rows(rows)
            cid = by_normal_form.get(form)
            if cid is not None:
                classes[cid].members += 1
                last_cid = cid
                continue
            M = matrix(rows)
            # consecutive candidates often share a class, so the last class
            # placed is decided first, when its first probe block (a class
            # invariant) is the candidate's; the signature reuses that block
            if (last_cid is not None
                    and _probe_bits(M, gate) == _probe_bits(classes[last_cid].rep, gate)
                    and _equiv(M, classes[last_cid].rep, (gate,))):
                classes[last_cid].members += 1
            else:
                same = sig_buckets.setdefault(signature(M, probes), [])
                for cid in reversed(same):
                    if cid == last_cid:
                        continue
                    if _equiv(M, classes[cid].rep, probes):
                        classes[cid].members += 1
                        last_cid = cid
                        break
                else:
                    last_cid = add_class(M, DegeneracyClass.PROPER)
                    same.append(last_cid)
            by_normal_form[form] = last_cid
        done.append(shape)
        if progress:
            progress(shape, len(classes))
        _save_checkpoint(checkpoint_dir, n, m, k, done, classes)

    graph = PosetGraph(params=(n, m, k), classes=classes)
    if with_order:
        graph.edges = compute_edges([c.rep for c in classes])
        graph.reduced = transitive_reduction(len(classes), graph.edges)
    if with_groups:
        graph.groups = compute_groups(classes)
    return graph


def _check_window(n, m, k):
    if n < 1 or m < 0 or k < 0:
        raise ValueError(f"window ({n}, {m}, {k}) needs n >= 1, m >= 0 and k >= 0")


# --- order and reduction -----------------------------------------------------


def compute_edges(reps):
    """All directed implications between class representatives.

    One Decider answers every ordered pair, i outer and j inner, so each
    pair can be settled by the answers to the pairs before it.  It numbers
    the representatives once and is asked by number.
    """
    decider = Decider()
    ids = [decider._number(M) for M in reps]
    implies = decider.implies
    return {
        (i, j)
        for i, a in enumerate(ids)
        for j, b in enumerate(ids)
        if i != j and implies(a, b)
    }


def transitive_reduction(count, edges):
    """Row i keeps the successors of i that no other successor of i reaches."""
    succ = [0] * count
    for i, j in edges:
        succ[i] |= 1 << j
    reduced = set()
    for i, row in enumerate(succ):
        through, ws = 0, row & ~(1 << i)
        while ws:
            low = ws & -ws
            through |= succ[low.bit_length() - 1] & ~low
            ws ^= low
        row &= ~through
        while row:
            low = row & -row
            reduced.add((i, low.bit_length() - 1))
            row ^= low
    return reduced


# --- localization grouping ---------------------------------------------------


def compute_groups(classes):
    """Partition classes by the property they impose on localizations.

    The two degenerate classes each stand alone, labelled by their kind.
    A proper class whose localization has the normal form of an earlier
    class's localization joins that class's group: equal normal forms mean
    equivalent localizations.  The others are grouped by `loc_equal`,
    which each class runs only against the first classes of the groups
    with its localized signature over `_EDGE_PROBES`.  A group is named
    after the first anchor that its first class is loc-equal to, asked
    only of anchors of the group's signature, else after that class's
    localization.
    """
    groups = []
    firsts = {}  # localized signature -> [(group index, its first class)]
    by_form = {}  # _normalize_rows of a localization -> its group index
    for node in classes:
        if node.kind is not DegeneracyClass.PROPER:
            groups.append(Group(node.kind.value, [node.id]))
            continue
        L = localize(node.rep)
        # signed first, shortcut or not: subposets read these blocks
        sig = signature(L, _EDGE_PROBES)
        form = _normalize_rows(L.rows)
        gi = by_form.get(form)
        if gi is not None:
            groups[gi].class_ids.append(node.id)
            continue
        bucket = firsts.setdefault(sig, [])
        for gi, rep in bucket:
            if loc_equal(node.rep, rep):
                groups[gi].class_ids.append(node.id)
                break
        else:
            gi = len(groups)
            bucket.append((gi, node.rep))
            label = next(
                (name for name, A in ANCHORS.items()
                 if signature(localize(A), _EDGE_PROBES) == sig
                 and loc_equal(node.rep, A)),
                "loc:" + L.text(),
            )
            groups.append(Group(label, [node.id]))
        by_form[form] = gi
    return groups


def subposet_by_localization(classes, anchor):
    """Classes localization-equal to the anchor, with their induced order.

    Localization keeps both degenerate kinds, so a degenerate anchor's
    classes are those of its kind, with no decide.  For a proper anchor,
    `loc_equal` decides only the proper classes whose localized signature
    over `_EDGE_PROBES` equals the localized anchor's: the others are not
    loc-equal to it.
    """
    kind = degeneracy_class(anchor)
    nodes = [c for c in classes if c.kind is kind]
    if kind is DegeneracyClass.PROPER:
        sig = signature(localize(anchor), _EDGE_PROBES)
        nodes = [c for c in nodes if signature(localize(c.rep), _EDGE_PROBES) == sig
                 and loc_equal(c.rep, anchor)]
    reps = [c.rep for c in nodes]
    local = compute_edges(reps)
    reduced = transitive_reduction(len(reps), local)
    return nodes, local, reduced


# --- canonical representative ------------------------------------------------


def canonical(M, window=None):
    """First candidate of the window equivalent to M: the smallest class
    member by (rows, cols, vars, lex).

    Meant for single queries: every call walks the window's candidate stream
    from its start. For the representatives of all classes, read the `rep`
    of each node of `classify(n, m, k).classes`, which is this same
    candidate.  Each degenerate kind is one class, so a degenerate M's
    answer is the first candidate of its kind, if the window has one."""
    if window is None:
        window = (M.n, M.m, M.k)
    n, m, k = window
    _check_window(n, m, k)
    kind = degeneracy_class(M)
    probes = probes_for(n, k)
    sig_M = signature(M, probes)
    block_M = _probe_bits(M, probes[0])
    # candidates with one normal form share a class, so one with M's form is
    # equivalent to M.  A batch's first proper candidate with a given form
    # is that form, so one that is not its own form shares the class of an
    # earlier one, found not equivalent.  The others take their other
    # probes only when their first probe block is M's
    form_M = _normalize_rows(M.rows)
    for rows in candidate_stream(n, m, k):
        if kind_of_rows(rows) is not kind:
            continue
        form = _normalize_rows(rows)
        if kind is not DegeneracyClass.PROPER or form == form_M:
            return matrix(rows)
        if form != rows:
            continue
        C = matrix(rows)
        if (_probe_bits(C, probes[0]) == block_M and signature(C, probes) == sig_M
                and _equiv(C, M, probes)):
            return C
    raise ValueError("no window candidate is equivalent to the matrix")


# --- checkpointing -----------------------------------------------------------


def _ckpt_path(directory, n, m, k):
    return os.path.join(directory, f"classify_{n}_{m}_{k}.json")


def _stamp(n, k):
    """The build a checkpoint belongs to: the package version and the
    signature probes, which decide how candidates are bucketed.  Which
    probes cover a goal follows from the probes listed, so checkpoints
    written before covered goals skipped their decides still resume: they
    list the same probes, and the classes are the same either way."""
    return {"version": __version__, "probes": [list(p) for p in probes_for(n, k)]}


def _load_checkpoint(directory, n, m, k):
    """The done batch shapes and the (rows, kind, members) of each class of
    the window's checkpoint in directory, both empty when there is none.

    classify lists each class at its first member, so the classes of a
    checkpoint it wrote are, in order, candidates of its done batches, and
    each degenerate kind that occurs there is listed at its first
    candidate.  One walk of the done batches, with a cursor on the listed
    classes, checks that and takes each class's rows from the stream; every
    candidate joins one class, so the members add up to the candidates.
    A listed proper class must be its own normal form, as a batch's first
    candidate of each form is.  A later member of another form still
    resumes, with that member as its representative: telling the two apart
    takes the decides that classify makes, and the walk makes none."""
    path = directory and _ckpt_path(directory, n, m, k)
    if not path or not os.path.exists(path):
        return [], []
    try:
        with open(path) as fh:
            state = json.load(fh)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise CheckpointError(f"corrupted checkpoint {path}: {exc}")

    def refuse(problem):
        return CheckpointError(f"cannot resume from checkpoint {path}: {problem}")

    if not isinstance(state, dict):
        raise refuse("not a JSON object")
    for key, want in _stamp(n, k).items():
        if state.get(key) != want:
            raise refuse(f"written by another build ({key} {state.get(key)!r}, "
                         f"expected {want!r}); delete it to start over")
    if state.get("params") != [n, m, k]:
        raise refuse("params")
    done = state.get("done_batches")
    if not isinstance(done, list):
        raise refuse("done_batches")
    batches = list(itertools.islice(candidate_batches(n, m, k), len(done)))
    if [list(shape) for shape, _batch in batches] != done:
        raise refuse("done_batches are not the first batches of the window")
    listed = state.get("classes")
    if not isinstance(listed, list) or not all(isinstance(rec, dict) for rec in listed):
        raise refuse("classes")
    # each class's rows as the stream yields them, and None past the last
    wanted = [
        tuple(map(tuple, rows))
        if isinstance(rows, list) and all(isinstance(r, list) for r in rows) else None
        for rows in (rec.get("rows") for rec in listed)
    ] + [None]
    resumed, kinds, count = [], set(), 0
    for _shape, batch in batches:
        for rows in batch:
            count += 1
            i = len(resumed)
            kind = kind_of_rows(rows)
            if kind is not DegeneracyClass.PROPER:
                if kind in kinds:
                    if rows == wanted[i]:
                        raise refuse(f"classes[{i}] repeats a class listed before it")
                    continue
                kinds.add(kind)
                if rows != wanted[i]:
                    raise refuse(f"the first {kind.value} candidate, {matrix(rows).text()}, "
                                 f"is not listed as classes[{i}]")
            elif rows != wanted[i]:
                continue
            elif _normalize_rows(rows) != rows:
                raise refuse(f"classes[{i}], {matrix(rows).text()}, is not its own "
                             "normal form, so not the first member of its class")
            if listed[i].get("kind") != kind.value:
                raise refuse(f"classes[{i}].kind is not the kind of its rows")
            members = listed[i].get("members")
            if type(members) is not int or members < 1:
                raise refuse(f"classes[{i}].members")
            resumed.append((rows, kind, members))
    if len(resumed) < len(listed):
        raise refuse(f"no done batch generates classes[{len(resumed)}] "
                     "after the classes listed before it")
    total = sum(members for _rows, _kind, members in resumed)
    if total != count:
        raise refuse(f"the classes have {total} members, "
                     f"but the done batches {count} candidates")
    return [shape for shape, _batch in batches], resumed


def _save_checkpoint(directory, n, m, k, done, classes):
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    path = _ckpt_path(directory, n, m, k)
    state = {
        **_stamp(n, k),
        "params": [n, m, k],
        "done_batches": [list(s) for s in done],
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
