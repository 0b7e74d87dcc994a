"""Pure-Python closure kernels.

Column sets over the universe of (k+1)^n pointed columns are Python ints
used as bitmasks; a column (e_1,...,e_n) has code sum(e_i * (k+1)**i).
The compiled extension exposes the same two entry points.

The signature kernel `sharp_bits` is bit-sliced: instead of testing every
derivation rule against one relation mask at a time, it turns the masks
into one int per column code (bit i set when mask i contains the code) and
evaluates each rule on all masks with a few big-int ANDs.  Its rules come
from row tuples packed into fixed-width integer fields, one per column, so
that a whole row adds its entries to every column code with one addition.
"""

from __future__ import annotations

from functools import lru_cache

BACKEND = "python"


def closure_mask(n, k, mats, r0, stop=-1):
    """Least fixpoint of the one-step derivation operator above r0.

    mats is a list of (m, rows) pairs where rows is a flat list of
    instantiated row tuples (length m+1, entries in 0..k).  Stops early when
    the column code `stop` becomes derivable (unless stop < 0).
    """
    base = k + 1
    weights = [base**i for i in range(n)]
    r = r0
    if stop >= 0 and (r >> stop) & 1:
        return r
    changed = True
    while changed:
        changed = False
        for m, rows in mats:
            added = _scan(n, m, rows, weights, r, stop)
            if added is None:
                continue
            r, hit = added
            changed = True
            if hit:
                return r
    return r


def _scan(n, m, rows, weights, r, stop):
    """One full pass; returns (new_mask, stop_hit) if anything was added."""
    nrows = len(rows)
    start = r
    hit = False
    # iterative odometer with partial column codes per depth
    idx = [0] * n
    pcols = [[0] * m for _ in range(n + 1)]
    pright = [0] * (n + 1)
    depth = 0
    while depth >= 0:
        if idx[depth] >= nrows:
            idx[depth] = 0
            depth -= 1
            if depth >= 0:
                idx[depth] += 1
            continue
        row = rows[idx[depth]]
        w = weights[depth]
        cur = pcols[depth]
        nxt = pcols[depth + 1]
        ok = True
        for j in range(m):
            nxt[j] = cur[j] + row[j] * w
        pright[depth + 1] = pright[depth] + row[-1] * w
        if depth == n - 1:
            for j in range(m):
                if not (r >> nxt[j]) & 1:
                    ok = False
                    break
            if ok:
                right = pright[n]
                if not (r >> right) & 1:
                    r |= 1 << right
                    if right == stop:
                        hit = True
                        break
            idx[depth] += 1
        else:
            depth += 1
    if r == start:
        return None
    return r, hit


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
