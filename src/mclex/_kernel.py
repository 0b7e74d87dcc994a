"""Closure kernels.

Column sets over the universe of (k+1)^n pointed columns are Python ints
used as bitmasks; a column (e_1,...,e_n) has code sum(e_i * (k+1)**i).

All kernels build their row tuples from rows packed into fixed-width
integer fields, one per column, so that a whole row adds its entries to
every column code with one addition.

The closure kernel `closure_mask` extends row tuples one coordinate at a
time and drops a partial tuple as soon as one of its partial left columns
is no prefix of a column in the set.  It visits the surviving tuples in
the order of the unpruned scan, so it returns the same int, early stop
included.

The recorded closure kernel `closure_record` walks the row tuples the same
way, but in batch rounds against the set at the start of each round, and
logs a witness for every column it derives; tableaux are read off that log.

The signature kernel `sharp_bits` is bit-sliced: instead of testing every
derivation rule against one relation mask at a time, it turns the masks
into one int per column code (bit i set when mask i contains the code) and
evaluates each rule on all masks with a few big-int ANDs.
"""

from __future__ import annotations

from functools import lru_cache

# perfbench/unit.py records mclex.BACKEND in every result line
BACKEND = "python"


# one entry per (universe, hypothesis).  compute_edges decides one
# hypothesis against the goals of a row, so a few entries suffice: on the
# Hasse order of (3,3,2) and (4,3,1), 8 to 32 entries hit on 496 of the 676
# packings (an unbounded cache on 505), while random certify queries rarely
# repeat one
@lru_cache(maxsize=32)
def _packed(n, k, m, rows):
    """Rows packed into fixed-width fields, with their per-depth multiples.

    Each row becomes one int with a field of w = universe.bit_length() bits
    per entry, the right entry in field m.  Returns (steps, shifts, right):
    steps[d] holds packed_row * (k+1)**d for every row, shifts the offsets
    of the m left fields and right the offset of the right field.  Adding
    steps[d][i] extends every partial column of a tuple by one digit at
    once; no field carries into the next because every field stays below
    universe < 2**w.
    """
    base = k + 1
    w = (base**n).bit_length()
    packed = [sum(e << (w * j) for j, e in enumerate(row)) for row in rows]
    steps = tuple(tuple(p * base**d for p in packed) for d in range(n))
    return steps, range(0, w * m, w), w * m


def _walk(steps, shifts, field, known, leaf, d=0, acc=0):
    """Depth-first walk over the row tuples of one hypothesis, pruned on
    column prefixes; True as soon as leaf returns True.

    A partial tuple of d+1 rows survives while every partial left column,
    the low d+1 digits of a left column, is in known[d].  For each partial
    tuple of n-1 rows that survives, in itertools.product order (first
    coordinate outermost), leaf gets the packed sum of its rows and tries
    the last row itself.  The sets are read as the walk goes, so a leaf
    that adds to them prunes the rest of the walk by the larger sets.
    """
    if d == len(steps) - 1:
        return leaf(acc)
    seen = known[d]
    for s in steps[d]:
        v = acc + s
        for sh in shifts:
            if (v >> sh) & field not in seen:
                break
        else:
            if _walk(steps, shifts, field, known, leaf, d + 1, v):
                return True
    return False


def _start(n, k, mats, r0):
    """Shared set-up of the closure kernels: the field mask, the residues
    of the columns of r0 per depth, and the packed hypotheses as
    (index, steps, shifts, right), leaving out those without rows."""
    base = k + 1
    universe = base**n
    cols = [c for c in range(universe) if (r0 >> c) & 1]
    # known[d]: codes % (k+1)**(d+1) of the columns in the set; the last
    # depth holds the columns themselves
    known = [{c % base ** (d + 1) for c in cols} for d in range(n)]
    scans = [
        (mi,) + _packed(n, k, m, tuple(rows))
        for mi, (m, rows) in enumerate(mats)
        if rows
    ]
    return (1 << universe.bit_length()) - 1, known, scans


def _add(known, k, c):
    for d, kd in enumerate(known):
        kd.add(c % (k + 1) ** (d + 1))


def closure_mask(n, k, mats, r0, stop=-1):
    """Least fixpoint of the one-step derivation operator above r0.

    mats is a list of (m, rows) pairs where rows is a flat list of
    instantiated row tuples (length m+1, entries in 0..k).  Stops early when
    the column code `stop` becomes derivable (unless stop < 0).

    Rounds scan the hypotheses in list order until a round adds nothing.  A
    scan walks the n-tuples of rows in itertools.product order (first
    coordinate outermost) and adds each tuple's right column once all its
    left columns are in the set; a column added mid-scan counts for the
    tuples after it.

    Prefix pruning: the first d rows of a tuple fix the low d digits of
    each column, code % (k+1)**d.  A partial tuple is dropped as soon as one
    of these partial left columns is no prefix of a column in the set.  No
    tuple below it can pass before a column with that prefix is added, and
    only a passing tuple below it could add one; so every pruned tuple is
    one the full scan would find failing.  A complete tuple whose right
    column is already in the set is skipped before its left columns are
    tested, since it could add nothing.  The tuples that add a column are
    visited in the unpruned order, so the result, `stop` included, is the
    same.
    """
    if stop >= 0 and (r0 >> stop) & 1:
        return r0
    field, known, scans = _start(n, k, mats, r0)
    full = known[-1]

    def scan(steps, shifts, right):
        # True once stop is added; new columns go into every known set
        def leaf(acc):
            for s in steps[-1]:
                v = acc + s
                c = v >> right
                if c in full:
                    continue
                for sh in shifts:
                    if (v >> sh) & field not in full:
                        break
                else:
                    _add(known, k, c)
                    if c == stop:
                        return True
            return False

        return _walk(steps, shifts, field, known, leaf)

    size = None
    while size != len(full):
        size = len(full)
        if any(scan(steps, shifts, right) for _mi, steps, shifts, right in scans):
            break
    r = r0
    for c in full:
        r |= 1 << c
    return r


def closure_record(n, k, mats, r0, stop=-1):
    """closure_mask in batch rounds, with a witness for every derived column.

    Returns (mask, log).  The log maps each derived column code, in order
    of derivation, to (cost, hypothesis index, consumed codes) of its
    witness: the hypothesis index is the position in mats, hypotheses
    without rows included, and the consumed codes are the witness tuple's
    left columns.

    Each round scans every hypothesis against the set as it was at the
    start of the round: the prefix sets that prune partial tuples and the
    membership of left and right columns are all read from that snapshot,
    and the columns a round derives join the set only when the round ends.
    The rounds stop when one adds nothing, or when `stop` (unless < 0) is
    in the set; the goal is checked only between rounds.  Tuples are
    visited in itertools.product order, pruned as in closure_mask, and of
    the tuples deriving a new column in a round the log keeps the first
    with the fewest consumed columns outside r0, counted as distinct codes.
    """
    field, known, scans = _start(n, k, mats, r0)
    full = known[-1]
    fresh = set()  # columns of the set that are not in r0
    log = {}
    r = r0
    while stop not in full:
        size = len(log)
        for mi, steps, shifts, right in scans:

            def leaf(acc):
                for s in steps[-1]:
                    v = acc + s
                    c = v >> right
                    if c in full:
                        continue
                    for sh in shifts:
                        if (v >> sh) & field not in full:
                            break
                    else:
                        consumed = tuple((v >> sh) & field for sh in shifts)
                        cost = len(fresh.intersection(consumed))
                        best = log.get(c)
                        if best is None or cost < best[0]:
                            log[c] = (cost, mi, consumed)

            _walk(steps, shifts, field, known, leaf)
        if len(log) == size:
            break
        for c in list(log)[size:]:
            _add(known, k, c)
            fresh.add(c)
            r |= 1 << c
    return r, log


# one entry per probe shape; enumeration passes the same probe tuples on
# every call, so this hits on all but the first call per shape
@lru_cache(maxsize=16)
def _slices(universe, rel_masks):
    """Bit slices of the relation masks: entry c has bit i set when
    rel_masks[i] contains column code c."""
    return tuple(
        sum(1 << i for i, rm in enumerate(rel_masks) if (rm >> c) & 1)
        for c in range(universe)
    )


def sharp_bits(n, k, m, rows, rel_masks):
    """For each relation mask decide stability under every one-step
    derivation rule of the given instantiated rows; returns a packed int,
    bit i set when rel_masks[i] is stable.

    A rule is an n-tuple of rows.  Its antecedent is the set of its m left
    column codes, its consequent the code of its right column, and it breaks
    a mask that contains the antecedent but not the consequent.

    Rules: each row becomes one int with a field of w = universe.bit_length()
    bits per entry (field j holds entry j, the right entry in field m).
    Row d of a tuple adds packed_row * (k+1)**d, which adds e_j * (k+1)**d to
    every field j at once.  A field then holds a base-(k+1) number of at most
    n digits, below universe = (k+1)**n < 2**w, so no field ever carries into
    the next and field j of the sum is the code of column j.  The sums of the
    first n-1 rows are built depth by depth as a set; the last row is added
    on the fly, so no more than one depth's sums are held at a time.

    A rule whose consequent is among its antecedents is dropped: a mask
    that contains the antecedent contains the consequent, so the rule holds
    on every mask.  The rest are grouped by antecedent.  With the masks'
    bit slices, the AND of the antecedent's slices is the set of masks that
    contain the antecedent, and those of them outside the AND of the
    consequents' slices are broken.  The ANDs start from the masks not yet
    broken and stop once nothing is left.
    """
    base = k + 1
    universe = base**n
    slices = _slices(universe, tuple(rel_masks))
    w = universe.bit_length()
    field = (1 << w) - 1
    packed = [sum(e << (w * j) for j, e in enumerate(row)) for row in rows]
    partial = {0}
    for d in range(n - 1):
        step = [p * base**d for p in packed]
        partial = {q + s for q in partial for s in step}
    last = [p * base ** (n - 1) for p in packed]
    shifts = [w * j for j in range(m)]
    right = w * m
    by_ant = {}
    for q in partial:
        for s in last:
            v = q + s
            cons = v >> right
            ant = 0
            for sh in shifts:
                ant |= 1 << ((v >> sh) & field)
            if not (ant >> cons) & 1:
                by_ant[ant] = by_ant.get(ant, 0) | (1 << cons)

    live = (1 << len(rel_masks)) - 1
    for ant, cons in by_ant.items():
        hit = live
        while ant and hit:
            low = ant & -ant
            hit &= slices[low.bit_length() - 1]
            ant ^= low
        kept = hit
        while cons and kept:
            low = cons & -cons
            kept &= slices[low.bit_length() - 1]
            cons ^= low
        live &= ~hit | kept
        if not live:
            break
    return live
