"""Closure kernels.

Column sets over the universe of (k+1)^n pointed columns are Python ints
used as bitmasks; a column (e_1,...,e_n) has code sum(e_i * (k+1)**i).

All kernels build their row tuples from rows packed by `_steps` into
fixed-width integer fields, so that a whole row adds its entries to every
column code with one addition.  A row becomes one int with a field of
w = universe.bit_length() bits per entry: field j holds entry j, the right
entry is in field m, so the packed row is the sum of its entries times the
field weights 2**(w*j), computed once per hypothesis.  Row d of a tuple
adds its step packed_row * (k+1)**d, which adds e_j * (k+1)**d to every
field j at once.  A field then holds a base-(k+1) number of at most n
digits, below universe = (k+1)**n < 2**w, so no field ever carries into
the next and field j of the sum is the code of column j.

The closure kernels extend row tuples one row at a time; row d of a tuple
gives digit d of each of its columns.  They keep the column set as digit
lists, one per depth d with (k+1)**d entries: entry p is the bitmask of
the digits d that extend the low d digits p to a column of the set.  A set
of rows of one hypothesis is a row mask.  Each column of a hypothesis has
a row table that maps a set of digits to the mask of the rows whose entry
is one of them.  The rows that may extend a partial tuple are then the
AND, over its left columns, of one row-table entry each (the set
intersection of generic join, bit-parallel over the rows) instead of one
prefix test per row.  A partial tuple is dropped as soon as one of its
partial left columns is no prefix of a column in the set, and a complete
tuple whose right column is in the set is never visited.  A goal's seed,
built by `_seed` and cached per goal by the caller, holds the mask r0 of
its columns, their digit lists and the field mask; a call copies the digit
lists and keeps the set as them and one int mask, grown together.

Both closure kernels read one stream of the surviving tuples, `_tuples`, in
the order of the unpruned scan, under two round policies.  `closure_mask`
adds each right column as it arrives, so it returns the same int as that
scan, early stop included.  `closure_record` adds a round's columns when it
ends and logs a witness for each; tableaux are read off that log.

The signature kernel `sharp_bits` is bit-sliced: instead of testing every
derivation rule against one relation mask at a time, it turns the masks
into one int per column code (bit i set when mask i contains the code) and
evaluates each rule on all masks with a few big-int ANDs.  Permuting the
rows of a tuple permutes the digits of its rule's columns, so it walks only
the sorted row tuples; each int holds one block of bits per digit
permutation of the masks, and the blocks are ANDed down to one bit per mask
at the end.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import mul

# perfbench/unit.py records mclex.BACKEND in every result line
BACKEND = "python"


def _steps(n, k, m, rows):
    """The field width w and the rows' steps: steps[d][i] is row i packed
    into fields of w bits, times (k+1)**d."""
    base = k + 1
    w = (base**n).bit_length()
    weights = [1 << w * j for j in range(m + 1)]  # entry j goes to field j
    packed = [sum(map(mul, row, weights)) for row in rows]
    return w, tuple([tuple(map((base**d).__mul__, packed)) for d in range(n)])


# one entry per (universe, hypothesis).  compute_edges decides one
# hypothesis against the goals of a row, so a few entries suffice: on the
# Hasse order of (3,3,2) and (4,3,1), 8 to 32 entries hit on 461 of the 623
# packings (an unbounded cache on 469).  classify of the same windows hits
# on 273, 311 and 324 of its 703 with 8, 16 and 32 entries (404
# unbounded).  On certify (800 queries, seed 0), 2 to 32 entries hit on
# 986 to 995 of 1,870 packings (1,051 unbounded), where the recorded decide
# repacks the hypothesis of the verdict-only one.  There an entry holds
# about 3.3 KB of tuples, lists and uncached ints, half of it row tables
@lru_cache(maxsize=32)
def _packed(n, k, m, rows):
    """The steps of `_steps`, a row table per column, and the offset of the
    right field.

    Returns (steps, left, leaf, right).  left holds one (offset, table) pair
    per left column j: table[digits], for a set of digits given as a
    bitmask, is the row mask of the rows whose entry j is one of those
    digits, 2**(k+1) entries.  leaf is left with one more pair for the right
    column, whose table is complemented: the rows whose right entry is none
    of the digits.
    """
    w, steps = _steps(n, k, m, rows)
    tables = []
    for j in range(m + 1):
        by_digit = [0] * (k + 1)
        for i, row in enumerate(rows):
            by_digit[row[j]] |= 1 << i
        table = [0]
        # the 2**x digit sets with x come after the 2**x without it
        for rows_x in by_digit:
            table += [t | rows_x for t in table]
        tables.append((w * j, table))
    every = (1 << len(rows)) - 1
    tables[m] = (w * m, [every ^ t for t in tables[m][1]])
    return steps, tuple(tables[:m]), tuple(tables), w * m


def _extend(level, step, tables, field, known, added):
    """The tuples one row longer than those of level that pass the tables,
    in itertools.product order.

    The rows that extend a tuple acc, the AND of one row-table entry per
    table, come in row order.  When added, the columns added so far, has
    grown since that mask was computed, the rows after the last one
    yielded are computed again: the set only grows, so rows that failed
    before may pass now, and narrowing the old mask would drop them.
    """
    every = (1 << len(step)) - 1
    for acc in level:
        todo = every
        while todo:
            size = len(added)
            for sh, table in tables:
                todo &= table[known[(acc >> sh) & field]]
            while todo:
                low = todo & -todo
                todo ^= low
                yield acc + step[low.bit_length() - 1]
                if len(added) != size:
                    todo = every & -(low << 1)
                    break


def _tuples(scan, field, digits, added):
    """The complete row tuples of one packed hypothesis that pass its row
    tables, as packed sums: one _extend per depth, leaf at the last."""
    steps, left, leaf, _right = scan
    level = (0,)
    for d, step in enumerate(steps):
        tables = leaf if d == len(steps) - 1 else left
        level = _extend(level, step, tables, field, digits[d], added)
    return level


def _seed(n, k, r0):
    """The closure kernels' start from the column set r0: r0, the digit
    lists of its columns as tuples, and the field mask of (n, k)."""
    base = k + 1
    digits = [[0] * base**d for d in range(n)]
    rest = r0
    while rest:
        low = rest & -rest
        _add(digits, low.bit_length() - 1, base)
        rest ^= low
    return r0, tuple(map(tuple, digits)), (1 << (base**n).bit_length()) - 1


def _start(n, k, mats, seed):
    """Shared set-up of the closure kernels: fresh copies of the seed's
    digit lists, which the scans grow, and the packed hypotheses."""
    return list(map(list, seed[1])), [_packed(n, k, m, tuple(rows)) for m, rows in mats]


def _add(digits, c, base):
    """Enter column c in the digit lists: digits[d][p] is the bitmask of
    the digits d that extend the low d digits p to a column of the set."""
    p, w = 0, 1
    for known in digits:
        x = c // w % base
        known[p] |= 1 << x
        p += x * w
        w *= base


def closure_mask(n, k, mats, seed, stop=-1):
    """Least fixpoint of the one-step derivation operator above r0, given
    as its `_seed`.

    mats is a list of (m, rows) pairs where rows is a flat list of
    instantiated row tuples (length m+1, entries in 0..k).  Stops early when
    the column code `stop` becomes derivable (unless stop < 0); a stop
    already in r0 returns r0 before any packing.

    Rounds scan the hypotheses in list order until a round adds nothing.  A
    scan reads the tuples of `_tuples` and adds each right column to the
    digit lists and the mask as it arrives; the stream reads the grown set,
    so a column added mid-scan counts for the tuples after it, as in the
    unpruned scan of every n-tuple of rows in itertools.product order
    (first coordinate outermost).

    Prefix pruning: the first d rows of a tuple fix the low d digits of
    each column.  Row d may follow them only if its entry in every left
    column is a digit that extends those low digits to a prefix of a column
    in the set; the row tables give all such rows as one row mask.  No
    tuple below a dropped partial tuple can pass before a column with that
    prefix is added, and only a passing tuple below it could add one; so
    every pruned tuple is one the full scan would find failing.  A complete
    tuple whose right column is already in the set is left out too, since
    it could add nothing.  The tuples that add a column come in the
    unpruned order, so the result, `stop` included, is the same.
    """
    r, _digits, field = seed
    if stop >= 0 and (r >> stop) & 1:
        return r
    digits, scans = _start(n, k, mats, seed)
    added = []
    size = None
    while size != len(added):
        size = len(added)
        for scan in scans:
            right = scan[3]
            for v in _tuples(scan, field, digits, added):
                c = v >> right
                # the leaf table leaves out known right columns, so c is new
                _add(digits, c, k + 1)
                added.append(c)
                r |= 1 << c
                if c == stop:
                    return r
    return r


def closure_record(n, k, mats, seed, stop=-1):
    """closure_mask in batch rounds, with a witness for every derived column.

    Returns (mask, log).  The log maps each derived column code, in order
    of derivation, to (cost, hypothesis index, consumed codes) of its
    witness: the hypothesis index is the position in mats, and the
    consumed codes are the witness tuple's left columns.

    Each round reads the tuples of `_tuples` for every hypothesis against
    the set as it was at the start of the round: the columns a round
    derives join the set only when the round ends, so the stream never
    computes a row mask again within a round.  The rounds stop when one
    adds nothing, or when `stop` (unless < 0) is in the set; the goal is
    checked only between rounds.  Of the tuples deriving a new column in a
    round the log keeps the first with the fewest consumed columns outside
    r0, counted as distinct codes: those among the log's keys, since a
    tuple consumes only columns of the set its round started from, and the
    round logs only columns outside that set.

    A tuple whose right column the log already holds at cost 0 is skipped
    before it is priced: only a strictly cheaper witness replaces a logged
    one, and none is cheaper than 0, so the log keeps the same first
    cheapest witness.
    """
    r, _digits, field = seed
    goal = 1 << stop if stop >= 0 else 0
    digits, scans = _start(n, k, mats, seed)
    log = {}
    while not r & goal:
        size = len(log)
        for mi, scan in enumerate(scans):
            shifts = [sh for sh, _table in scan[1]]
            right = scan[3]
            for v in _tuples(scan, field, digits, ()):
                c = v >> right
                best = log.get(c)
                if best is not None and not best[0]:
                    continue  # no witness is cheaper than cost 0
                consumed = tuple(map(field.__and__, map(v.__rshift__, shifts)))
                cost = len(log.keys() & consumed)
                if best is None or cost < best[0]:
                    log[c] = (cost, mi, consumed)
        if len(log) == size:
            break
        for c in list(log)[size:]:
            _add(digits, c, k + 1)
            r |= 1 << c
    return r, log


# one entry per probe shape; enumeration passes the same probe tuples on
# every call, so this hits on all but the first call per shape.  An entry
# holds n! * len(rel_masks) bits per column code: about 51 KB for (4,1) and
# 1 KB each for (3,1) and (2,2), the probes that windows sign over
@lru_cache(maxsize=16)
def _perm_slices(n, base, rel_masks):
    """Bit slices of the relation masks under every permutation of the n
    digits of a column code.

    Entry c holds one block of len(rel_masks) bits per permutation, in
    itertools.permutations order, the identity first.  Block b has bit i
    set when rel_masks[i] contains the code c with its digits permuted the
    b-th way.
    """
    width = len(rel_masks)
    plain = [
        sum(1 << i for i, rm in enumerate(rel_masks) if (rm >> c) & 1)
        for c in range(base**n)
    ]
    weights = [base**d for d in range(n)]
    slices = []
    for c in range(base**n):
        digits = [c // w % base for w in weights]
        wide = 0
        for b, perm in enumerate(itertools.permutations(weights)):
            moved = sum(e * w for e, w in zip(digits, perm))
            wide |= plain[moved] << (b * width)
        slices.append(wide)
    return tuple(slices)


def sharp_bits(n, k, m, rows, rel_masks):
    """For each relation mask decide stability under every one-step
    derivation rule of the given instantiated rows; returns a packed int,
    bit i set when rel_masks[i] is stable.

    A rule is an n-tuple of rows.  Its antecedent is the set of its m left
    column codes, its consequent the code of its right column, and it breaks
    a mask that contains the antecedent but not the consequent.

    Sorted tuples: permuting the n positions of a tuple permutes the digits
    of every column code of its rule the same way, so the rules are closed
    under the n! digit permutations s.  A mask R is broken by the rule of
    the permuted tuple exactly when s^-1(R) is broken by the rule of the
    tuple.  So R is stable exactly when every s(R) survives the rules of
    the sorted tuples, those whose row indices do not decrease.  The slices
    of `_perm_slices` hold one block per permutation, so each rule is tested
    on every permuted mask at once, and the blocks are ANDed down to one
    bit per mask at the end.  On the 4 or 5 rows of a 4-row matrix over
    (4,1) this walks 35 or 70 tuples instead of 256 or 625.

    Rules: the rows are packed by `_steps`, so field j of a tuple's sum is
    the code of column j.  The sums of the first n-1 rows are built depth by
    depth, each with the index of its last row; the last row is added on the
    fly, from that index on.

    A rule whose consequent is among its antecedents is dropped: a mask
    that contains the antecedent contains the consequent, so the rule holds
    on every mask.  The rest are grouped by antecedent.  With the masks'
    bit slices, the AND of the antecedent's slices is the set of masks that
    contain the antecedent, and those of them outside the AND of the
    consequents' slices are broken: hit ^ kept, all of them live, so an XOR
    takes them out.  The ANDs start from the masks not yet broken and stop
    once nothing is left.
    """
    base = k + 1
    width = len(rel_masks)
    blocks = math.factorial(n)
    slices = _perm_slices(n, base, tuple(rel_masks))
    w, steps = _steps(n, k, m, rows)
    field = (1 << w) - 1
    partial = [(0, 0)]
    for step in steps[:-1]:
        partial = [(q + step[i], i) for q, lo in partial for i in range(lo, len(step))]
    last = steps[-1]
    shifts = [w * j for j in range(m)]
    right = w * m
    by_ant = {}
    for q, lo in partial:
        for s in last[lo:]:
            v = q + s
            cons = v >> right
            ant = 0
            for sh in shifts:
                ant |= 1 << ((v >> sh) & field)
            if not (ant >> cons) & 1:
                by_ant[ant] = by_ant.get(ant, 0) | (1 << cons)

    live = (1 << (blocks * width)) - 1
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
        live ^= hit ^ kept
        if not live:
            break
    out = (1 << width) - 1
    for b in range(blocks):
        out &= live >> (b * width)
    return out
