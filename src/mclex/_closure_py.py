"""Pure-Python closure kernels.

Column sets over the universe of (k+1)^n pointed columns are Python ints
used as bitmasks; a column (e_1,...,e_n) has code sum(e_i * (k+1)**i).
The compiled extension exposes the same two entry points.
"""

from __future__ import annotations

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


def sharp_bits(n, k, m, rows, rel_masks):
    """For each relation mask decide stability under every one-step
    derivation rule of the given instantiated rows; returns a packed int,
    bit i set when rel_masks[i] is stable."""
    import itertools

    base = k + 1
    weights = [base**i for i in range(n)]
    rules = set()
    for combo in itertools.product(rows, repeat=n):
        ant = 0
        for j in range(m):
            code = sum(combo[i][j] * weights[i] for i in range(n))
            ant |= 1 << code
        cons = sum(combo[i][-1] * weights[i] for i in range(n))
        rules.add((ant, cons))
    out = 0
    for i, rm in enumerate(rel_masks):
        ok = True
        for ant, cons in rules:
            if (rm & ant) == ant and not (rm >> cons) & 1:
                ok = False
                break
        if ok:
            out |= 1 << i
    return out
