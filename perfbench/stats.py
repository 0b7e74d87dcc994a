"""Engine-free helpers: percentiles, digests and order-relation checks.

Nothing here imports mclex, so these functions can judge its outputs
without sharing code with it.
"""

from __future__ import annotations

import hashlib
import json
import math


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def digest(value):
    """Short stable fingerprint of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def transitive_closure(edges):
    """Every (i, j) reachable through one or more edges, for i != j."""
    succ = {}
    for i, j in edges:
        succ.setdefault(i, set()).add(j)
    closure = set()
    for start in succ:
        seen = set()
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ.get(node, ()))
        closure.update((start, j) for j in seen if j != start)
    return closure


def order_failures(count, edges, reduced, bottom=None, top=None):
    """Ways in which (edges, reduced) fails to be a strict order on
    range(count) together with its Hasse diagram.

    The implication order between distinct classes is a partial order with
    no two-way pairs, its Hasse diagram generates it, and no diagram edge
    follows from two others.  With bottom and top given, the trivial class
    implies every other class and every class implies the anti-trivial one.
    """
    edges, reduced = set(edges), set(reduced)
    out = []
    if any(not (0 <= i < count and 0 <= j < count) or i == j for i, j in edges):
        out.append("edge outside the classes or a loop")
    if any((j, i) in edges for i, j in edges):
        out.append("two distinct classes imply each other")
    if transitive_closure(edges) != edges:
        out.append("edges are not transitively closed")
    if transitive_closure(reduced) != edges:
        out.append("transitive closure of the reduced edges differs from the edges")
    if not reduced <= edges:
        out.append("a reduced edge is not an edge")
    succ = {}
    for i, j in edges:
        succ.setdefault(i, set()).add(j)
    if any(any((w, j) in edges for w in succ[i]) for i, j in reduced if i in succ):
        out.append("a reduced edge follows from two others")
    if bottom is not None and any((bottom, j) not in edges for j in range(count) if j != bottom):
        out.append("the trivial class misses an implication")
    if top is not None and any((i, top) not in edges for i in range(count) if i != top):
        out.append("a class does not imply the anti-trivial class")
    return out
