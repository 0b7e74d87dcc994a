"""Syntactic tests for the two degenerate matrix classes.

A matrix is *trivial* when only degenerate categories can have closed
relations for it, and *anti-trivial* when every pointed category does.
Both properties are decidable by direct inspection of the grid.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations

from .matrix import STAR


class DegeneracyClass(Enum):
    TRIVIAL = "trivial"
    ANTI_TRIVIAL = "anti-trivial"
    PROPER = "proper"


# bounded: decide, loc_equal and _pair_signature ask again and again about
# the same hypotheses, representatives and localizations.  classify sorts
# its stream of candidates with kind_of_rows, and only those it decides
# come here (186 of the 2,722 candidates of (3,3,2))
@lru_cache(maxsize=1 << 12)
def is_trivial(M):
    """True when the matrix admits closed relations only in degenerate
    pointed categories."""
    return _trivial_rows(M.rows)


def _joined(row, other, a, b):
    """Whether nodes a and b are related by the join of the two rows' kernels
    on left positions 0..m-1, with node m joined to every star position."""
    m = len(row) - 1
    comp = list(range(m + 1))
    for r in (row, other):
        for j, e in enumerate(r[:-1]):
            x, y = comp[j], comp[m if e == STAR else r.index(e)]
            if x != y:
                comp = [y if c == x else c for c in comp]
    return comp[a] == comp[b]


def _trivial_rows(rows):
    m = len(rows[0]) - 1
    # each row's anchor: the first left position of its variable right entry,
    # which its kernel joins to every other such position, or m for a star
    anchors = []
    for row in rows:
        r = row[-1]
        if r == STAR:
            anchors.append(m)
        elif r in row[:-1]:
            anchors.append(row.index(r))
        else:
            # (a) a variable right entry must reappear in its row's left part
            return True
    # (b) two variable right entries must repeat in join-related positions;
    # (c) against a star-right row, in a position related to a star of either
    # row. The join is symmetric, and star-star pairs share the anchor m.
    return any(
        anchors[i] != anchors[ip] and not _joined(rows[i], rows[ip], anchors[i], anchors[ip])
        for i, ip in combinations(range(len(rows)), 2)
    )


def _anti_trivial_rows(rows):
    *left, right = zip(*rows)
    return right == (STAR,) * len(right) or right in left


def is_anti_trivial(M):
    """True when every pointed category has closed relations for the matrix:
    the right column is all stars or duplicates a left column."""
    return _anti_trivial_rows(M.rows)


def kind_of_rows(rows):
    """The degeneracy class of the grid with these rows; classify asks it
    of each candidate before building any matrix."""
    # anti-triviality first: a column comparison, and no matrix is both
    if _anti_trivial_rows(rows):
        return DegeneracyClass.ANTI_TRIVIAL
    if _trivial_rows(rows):
        return DegeneracyClass.TRIVIAL
    return DegeneracyClass.PROPER


def degeneracy_class(M):
    return kind_of_rows(M.rows)
