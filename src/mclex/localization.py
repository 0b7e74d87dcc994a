"""Bourn localization at the matrix level.

localize(N) produces the star-free matrix describing the property N imposes
on the localizations (fibres) of a category: a fresh all-star left column is
prepended and every star is then replaced by a fresh variable.  Two matrices
impose the same local property exactly when their localized forms imply each
other over star-free interpretations, which the pointed engine decides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .closure import decide
from .degeneracy import is_trivial
from .matrix import STAR, ExtendedMatrix


def substitute_star(M, x):
    """Replace every occurrence of the variable x (1-based) by the star."""
    if not (1 <= x <= M.k):
        raise ValueError(f"variable x{x} outside budget k={M.k}")
    if any(e == STAR for row in M.rows for e in row):
        raise ValueError("star substitution is defined for star-free matrices")
    if not any(e == x for row in M.rows for e in row):
        warnings.warn(f"variable x{x} does not occur; substitution is a no-op")
        return M
    rows = tuple(tuple(STAR if e == x else e for e in row) for row in M.rows)
    return ExtendedMatrix(M.n, M.m, M.k, rows)


@dataclass(frozen=True)
class AdmissibleWitness:
    column: int  # 0-based left column index


def is_admissible(M, x):
    """An admissible pair: M is star-free and some left column carries x in
    exactly the rows where x occurs at all (and x everywhere else in that
    column is still x).

    Returns an AdmissibleWitness or None.
    """
    if not (1 <= x <= M.k):
        raise ValueError(f"variable x{x} outside budget k={M.k}")
    if any(e == STAR for row in M.rows for e in row):
        raise ValueError("admissibility is defined for star-free matrices")
    for j in range(M.m):
        ok = True
        for row in M.rows:
            if x in row and row[j] != x:
                ok = False
                break
        if ok:
            return AdmissibleWitness(j)
    return None


def localize(N):
    """Prepend an all-star left column, then substitute x_{k+1} for stars."""
    x = N.k + 1
    rows = tuple(
        (x,) + tuple(x if e == STAR else e for e in row) for row in N.rows
    )
    return ExtendedMatrix(N.n, N.m + 1, x, rows)


def loc_equal(A, B):
    """Do A and B impose the same property on localizations?"""
    ta, tb = is_trivial(A), is_trivial(B)
    if ta or tb:
        return ta and tb
    la = localize(A)
    lb = localize(B)
    return decide([la], [lb])[0] and decide([lb], [la])[0]


def loc_bottom(group):
    """Smallest class among a localization-equal group of matrices, or None.

    Raises ValueError when the group is not actually localization-coherent.
    """
    group = list(group)
    if not group:
        raise ValueError("empty group")
    first = group[0]
    for other in group[1:]:
        if not loc_equal(first, other):
            raise ValueError("group members are not localization-equal")
    for cand in group:
        if all(decide([cand], [other])[0] for other in group):
            return cand
    return None
