"""Brute-force semantic oracle over finite pointed sets.

Everything here is written as plain exhaustive search, independent of the
column-closure engine, so the two can be checked against each other.
Carriers are {0,...,size-1} with 0 as the base point; sizes up to 4 and
relation arities up to 4 are the supported regime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .matrix import STAR, ExtendedMatrix

MAX_CARRIER = 4
MAX_ARITY = 4


@dataclass(frozen=True)
class PointedSet:
    size: int

    def __post_init__(self):
        if not (1 <= self.size <= MAX_CARRIER):
            raise ValueError(f"carrier size {self.size} outside 1..{MAX_CARRIER}")


@dataclass(frozen=True)
class ConcreteRelation:
    carrier: PointedSet
    arity: int
    tuples: frozenset

    def __post_init__(self):
        if not (1 <= self.arity <= MAX_ARITY):
            raise ValueError(f"arity {self.arity} outside 1..{MAX_ARITY}")
        for t in self.tuples:
            if len(t) != self.arity or any(not (0 <= e < self.carrier.size) for e in t):
                raise ValueError(f"tuple {t} does not fit the relation")

    def contains(self, t):
        return tuple(t) in self.tuples


def relation(size, tuples):
    tuples = frozenset(tuple(t) for t in tuples)
    arity = len(next(iter(tuples)))
    return ConcreteRelation(PointedSet(size), arity, tuples)


def _pointed_maps(k, size):
    """All base-point preserving maps {*, x1..xk} -> carrier, as entry maps."""
    maps = []
    for images in itertools.product(range(size), repeat=k):
        maps.append((0,) + images)
    return maps


def _apply(row, f):
    return tuple(f[e] for e in row)


def strictly_closed(R, M):
    """Closedness under row-wise interpretations: every row gets its own
    pointed map into the carrier."""
    if R.arity != M.n:
        raise ValueError("relation arity must match the matrix row count")
    maps = _pointed_maps(M.k, R.carrier.size)
    for fs in itertools.product(maps, repeat=M.n):
        grid = [_apply(M.rows[i], fs[i]) for i in range(M.n)]
        if all(
            R.contains(tuple(grid[i][j] for i in range(M.n))) for j in range(M.m)
        ):
            if not R.contains(tuple(grid[i][-1] for i in range(M.n))):
                return False
    return True


def closed(R, M):
    """Closedness under plain interpretations: one map for all rows."""
    if R.arity != M.n:
        raise ValueError("relation arity must match the matrix row count")
    for f in _pointed_maps(M.k, R.carrier.size):
        grid = [_apply(row, f) for row in M.rows]
        if all(
            R.contains(tuple(grid[i][j] for i in range(M.n))) for j in range(M.m)
        ):
            if not R.contains(tuple(grid[i][-1] for i in range(M.n))):
                return False
    return True


def sharp(R, M):
    """Strict closedness for every matrix assembled from rows of M, one row
    choice per coordinate of R."""
    for rowsel in itertools.product(range(M.n), repeat=R.arity):
        M2 = ExtendedMatrix(
            R.arity, M.m, M.k, tuple(M.rows[i] for i in rowsel)
        )
        if not strictly_closed(R, M2):
            return False
    return True


def is_functional(M, size):
    """Left-part agreement of two interpreted rows forces right agreement in
    every pointed set of the given cardinality."""
    maps = _pointed_maps(M.k, size)
    for i in range(M.n):
        for ip in range(M.n):
            for f in maps:
                for g in maps:
                    ri = _apply(M.rows[i], f)
                    rip = _apply(M.rows[ip], g)
                    if ri[:-1] == rip[:-1] and ri[-1] != rip[-1]:
                        return False
    return True


def set_star_has_closed_relations(M):
    """Whether the category of pointed sets has M-closed relations, checked on
    the witness relation made of M's own left columns plus the star column."""
    tuples = {(STAR,) * M.n}
    for j in range(M.m):
        tuples.add(M.left_column(j))
    R = ConcreteRelation(PointedSet(M.k + 1), M.n, frozenset(tuples))
    return closed(R, M)


def reflect(R, S):
    """Smallest superrelation of R that is sharp for every matrix in S."""
    tuples = set(R.tuples)
    size = R.carrier.size
    arity = R.arity
    changed = True
    while changed:
        changed = False
        for M in S:
            maps = _pointed_maps(M.k, size)
            for rowsel in itertools.product(range(M.n), repeat=arity):
                for fs in itertools.product(maps, repeat=arity):
                    grid = [_apply(M.rows[rowsel[i]], fs[i]) for i in range(arity)]
                    if all(
                        tuple(grid[i][j] for i in range(arity)) in tuples
                        for j in range(M.m)
                    ):
                        right = tuple(grid[i][-1] for i in range(arity))
                        if right not in tuples:
                            tuples.add(right)
                            changed = True
    return ConcreteRelation(R.carrier, arity, frozenset(tuples))


# The four shapes whose appearance among two-valued reductions characterizes
# triviality: a reduction is identified by its left column set plus its right
# column, columns valued in {*, x1}.
_FORBIDDEN = [
    (frozenset(), (1,)),
    (frozenset({(0,)}), (1,)),
    (frozenset({(1, 1)}), (1, 0)),
    (frozenset({(1, 1), (0, 0)}), (1, 0)),
]


def has_forbidden_reduction(M):
    """Search all 1- and 2-row reductions of M over {*, x1} for the four
    degenerate shapes."""
    maps = _pointed_maps(M.k, 2)
    for arity in (1, 2):
        for rowsel in itertools.product(range(M.n), repeat=arity):
            for fs in itertools.product(maps, repeat=arity):
                grid = [_apply(M.rows[rowsel[i]], fs[i]) for i in range(arity)]
                left = frozenset(
                    tuple(grid[i][j] for i in range(arity)) for j in range(M.m)
                )
                right = tuple(grid[i][-1] for i in range(arity))
                if (left, right) in _FORBIDDEN:
                    return True
    return False


def all_pointed_relations(size, arity):
    """Every relation on the carrier containing the base tuple."""
    base = (0,) * arity
    rest = [t for t in itertools.product(range(size), repeat=arity) if t != base]
    out = []
    for mask in range(1 << len(rest)):
        tuples = {base}
        for i, t in enumerate(rest):
            if (mask >> i) & 1:
                tuples.add(t)
        out.append(ConcreteRelation(PointedSet(size), arity, frozenset(tuples)))
    return out


def alphabet_relation(k, n, columns):
    """Relation on the pointed alphabet {*, x1..xk} built from column tuples."""
    return ConcreteRelation(PointedSet(k + 1), n, frozenset(tuple(c) for c in columns))
