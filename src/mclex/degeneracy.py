"""Syntactic tests for the two degenerate matrix classes.

A matrix is *trivial* when only degenerate categories can have closed
relations for it, and *anti-trivial* when every pointed category does.
Both properties are decidable by direct inspection of the grid.

Anti-triviality compares the right column with the others.  Triviality
reads a cached view of each row, its anchor and kernel blocks as bitmasks:
a row pair makes the grid trivial when the join of its two kernels keeps
the two anchors apart.
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


# bounded: decide, loc_equal and the Decider ask again and again about
# the same hypotheses, representatives and localizations.  classify sorts
# its candidates with kind_of_rows, which reads only _row_view's cache;
# the matrices it decides come here (186 of the 2,722 of (3,3,2))
@lru_cache(maxsize=1 << 12)
def is_trivial(M):
    """True when the matrix admits closed relations only in degenerate
    pointed categories."""
    return _trivial_rows(M.rows)


# bounded: candidates share few distinct rows ((4,6,1) has 252), but the
# wide rows of (2,6,3) fill 1,024 entries
@lru_cache(maxsize=1 << 10)
def _row_view(row):
    """(anchor, blocks) of one row, or (None, None) when (a) makes its grid
    trivial: a variable right entry must reappear in the row's left part.
    The anchor is that entry's first left position, or m for a star.
    blocks[p] is the bitmask of the positions 0..m in p's kernel block,
    where the star positions share node m's block."""
    *left, r = row
    if r == STAR:
        anchor = len(left)
    elif r in left:
        anchor = left.index(r)
    else:
        return None, None
    entries = (*left, STAR)
    masks = {}
    for p, e in enumerate(entries):
        masks[e] = masks.get(e, 0) | 1 << p
    return anchor, tuple(masks[e] for e in entries)


def _trivial_rows(rows):
    views = list(map(_row_view, rows))
    if any(a is None for a, _ in views):
        return True
    # (b) two variable right entries must repeat in join-related positions;
    # (c) against a star-right row, in a position related to a star of either
    # row. The join is symmetric, and star-star pairs share the anchor m.
    for (a, blocks), (b, other) in combinations(views, 2):
        if a == b:
            continue
        # grow a's component in the join of the two kernels until it
        # reaches b or stops growing
        comp, grown = 0, 1 << a
        while grown != comp and not grown >> b & 1:
            new, comp, p = grown & ~comp, grown, 0
            while new:
                if new & 1:
                    grown |= blocks[p] | other[p]
                new >>= 1
                p += 1
        if not grown >> b & 1:
            return True
    return False


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
