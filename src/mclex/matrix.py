"""Extended matrices over {*, x1..xk} and their canonical text form.

Entries are stored as small integers: 0 is the constant symbol ``*`` and
1..k are the variables x1..xk.  For all lexicographic purposes the entry
order is x1 < x2 < ... < xk < *, i.e. the star sorts last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

STAR = 0

# Sort key assigned to * so that every variable index compares below it.
STAR_KEY = 1 << 30


class MatrixParseError(ValueError):
    """Raised on malformed matrix text; carries line/column diagnostics."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


def entry_key(e):
    """Sort key of a single entry under x1 < ... < xk < *."""
    return STAR_KEY if e == STAR else e


def entry_text(e):
    return "*" if e == STAR else str(e)


@dataclass(frozen=True)
class ExtendedMatrix:
    """An n x (m+1) grid; the last column of each row is the right column."""

    n: int
    m: int
    k: int
    rows: tuple  # tuple of n tuples, each of length m+1

    def __post_init__(self):
        if self.n < 1 or self.m < 0 or self.k < 0:
            raise ValueError(f"bad dimensions n={self.n} m={self.m} k={self.k}")
        if len(self.rows) != self.n:
            raise ValueError("row count mismatch")
        for row in self.rows:
            if len(row) != self.m + 1:
                raise ValueError("ragged rows")
            for e in row:
                if not (0 <= e <= self.k):
                    raise ValueError(f"entry {e} outside variable budget k={self.k}")

    @property
    def right_column(self):
        return tuple(row[-1] for row in self.rows)

    def left_column(self, j):
        return tuple(row[j] for row in self.rows)

    @property
    def is_nonpointed(self):
        return all(e != STAR for row in self.rows for e in row)

    def with_budget(self, k):
        """The same grid viewed with a (not smaller) variable budget."""
        if k < self.k:
            raise ValueError("cannot shrink variable budget below used entries")
        return ExtendedMatrix(self.n, self.m, k, self.rows)

    def text(self):
        return " ; ".join(self.grid_lines())

    def grid_lines(self):
        """One text line per row; DOT node labels stack them."""
        return [
            (" ".join(entry_text(e) for e in row[:-1]) + " | " + entry_text(row[-1])).strip()
            for row in self.rows
        ]

    def __str__(self):
        return self.text()


def matrix(rows, k=None):
    """Build an ExtendedMatrix from raw row tuples, inferring k by default."""
    rows = tuple(tuple(r) for r in rows)
    used = max((e for row in rows for e in row), default=0)
    if k is None:
        k = used
    return ExtendedMatrix(len(rows), len(rows[0]) - 1, k, rows)


def parse_matrix(text):
    """Parse the interchange format: rows of entries, ``|`` before the right
    entry, rows separated by ``;`` or newlines, optional ``#nmk n m k`` header.
    """
    lines = text.split("\n")
    header = None
    body_rows = []  # (line_no, row_text, col_offset)
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("#nmk"):
            parts = stripped.split()
            if len(parts) != 4:
                raise MatrixParseError("header must be '#nmk n m k'", lineno, 1)
            try:
                header = tuple(int(p) for p in parts[1:])
            except ValueError:
                raise MatrixParseError("non-integer header field", lineno, 1)
            continue
        for chunk in line.split(";"):
            if chunk.strip():
                body_rows.append((lineno, chunk))
    if not body_rows:
        raise MatrixParseError("empty matrix text", 1, 1)

    rows = []
    for lineno, chunk in body_rows:
        if chunk.count("|") != 1:
            raise MatrixParseError(
                "each row needs exactly one '|' before its right entry",
                lineno,
                chunk.find("|") + 1 if "|" in chunk else 1,
            )
        left_text, right_text = chunk.split("|")
        col0 = 1

        def tok(piece, what):
            entries = []
            for t in piece.split():
                if t == "*":
                    entries.append(STAR)
                elif t.isdigit():
                    v = int(t)
                    if v == 0:
                        raise MatrixParseError("variable index 0 is invalid", lineno, col0)
                    entries.append(v)
                else:
                    raise MatrixParseError(f"malformed token {t!r} in {what}", lineno, col0)
            return entries

        left = tok(left_text, "left part")
        right = tok(right_text, "right column")
        if len(right) != 1:
            raise MatrixParseError("right column of a row must be a single entry", lineno, 1)
        rows.append(tuple(left + right))

    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise MatrixParseError("ragged rows", body_rows[0][0], 1)

    used = max((e for row in rows for e in row), default=0)
    k = used
    n, m = len(rows), len(rows[0]) - 1
    if header is not None:
        hn, hm, hk = header
        if (hn, hm) != (n, m):
            raise MatrixParseError(f"header says {hn}x({hm}+1) but body is {n}x({m}+1)")
        if hk < used:
            raise MatrixParseError(f"header budget k={hk} below used variable x{used}")
        k = hk
    return ExtendedMatrix(n, m, k, tuple(rows))


def lex_key(M):
    """Total-order key: dimensions, then entries read right column first and
    then the left columns left to right, each top to bottom, star sorting last.

    Equal keys hold exactly for entry-identical grids.
    """
    parts = [M.n, M.m]
    parts.extend(entry_key(e) for e in M.right_column)
    for j in range(M.m):
        parts.extend(entry_key(M.rows[i][j]) for i in range(M.n))
    return tuple(parts)


def _term_text(e):
    return "*" if e == STAR else f"x{e}"


def maltsev_condition(M):
    """Render the defining term equations p(row left entries) = right entry."""
    eqs = []
    for row in M.rows:
        args = ",".join(_term_text(e) for e in row[:-1])
        eqs.append(f"p({args})={_term_text(row[-1])}")
    return " ; ".join(eqs)


# --- normalization ----------------------------------------------------------
#
# The symmetry group acting on a grid without changing its matrix class:
# permutations of rows, permutations of left columns, and a renaming of the
# variables separately within each row.  normalize returns the grid whose
# column-major reading (right column first) is smallest under that action,
# after duplicate rows, duplicate left columns and all-star left columns have
# been removed.


def _strip_duplicates(rows):
    n = len(rows)
    m = len(rows[0]) - 1
    cols = []
    seen = set()
    for j in range(m):
        col = tuple(rows[i][j] for i in range(n))
        if col in seen or all(e == STAR for e in col):
            continue
        seen.add(col)
        cols.append(col)
    new_rows = []
    seen_rows = set()
    for i in range(n):
        row = tuple(c[i] for c in cols) + (rows[i][-1],)
        if row in seen_rows:
            continue
        seen_rows.add(row)
        new_rows.append(row)
    # column tuples must be rebuilt if rows were dropped
    if len(new_rows) != n:
        return _strip_duplicates(new_rows)
    return new_rows


def _minimize(rows):
    """Smallest column-major reading over row order, column order and per-row
    variable renaming.  Small inputs only; branch-and-bound on the key."""
    n = len(rows)
    m = len(rows[0]) - 1
    best_key = None
    best_rows = None

    for perm in itertools.permutations(range(n)):
        # renamed right entries: any variable becomes x1
        rights = [1 if rows[i][-1] != STAR else STAR_KEY for i in perm]
        if rights != sorted(rights):
            continue
        prefix = list(rights)
        if best_key is not None and tuple(prefix) > best_key[: len(prefix)]:
            continue
        # per-row renaming state: mapping + next fresh index
        maps = []
        for i in perm:
            if rows[i][-1] != STAR:
                maps.append(({rows[i][-1]: 1}, 2))
            else:
                maps.append(({}, 1))
        cols = [tuple(rows[i][j] for i in perm) for j in range(m)]

        stack = [(tuple(range(m)), maps, prefix, [])]
        while stack:
            remaining, state, key, picked = stack.pop()
            if best_key is not None and tuple(key) > best_key[: len(key)]:
                continue
            if not remaining:
                full = tuple(key)
                if best_key is None or full < best_key:
                    best_key = full
                    out_rows = []
                    for r in range(n):
                        left = tuple(picked[c][r] for c in range(m))
                        out_rows.append(left + (1 if rights[r] == 1 else STAR,))
                    best_rows = out_rows
                continue
            projections = {}
            for j in remaining:
                proj = []
                for r in range(n):
                    e = cols[j][r]
                    if e == STAR:
                        proj.append(STAR_KEY)
                    else:
                        mp, nxt = state[r]
                        proj.append(mp.get(e, nxt))
                projections.setdefault(tuple(proj), []).append(j)
            smallest = min(projections)
            for j in projections[smallest]:
                new_state = []
                col_entries = []
                for r in range(n):
                    e = cols[j][r]
                    mp, nxt = state[r]
                    if e == STAR:
                        new_state.append((mp, nxt))
                        col_entries.append(STAR)
                    elif e in mp:
                        new_state.append((mp, nxt))
                        col_entries.append(mp[e])
                    else:
                        mp2 = dict(mp)
                        mp2[e] = nxt
                        new_state.append((mp2, nxt + 1))
                        col_entries.append(nxt)
                stack.append(
                    (
                        tuple(x for x in remaining if x != j),
                        new_state,
                        key + list(smallest),
                        picked + [tuple(col_entries)],
                    )
                )
    return best_rows


@lru_cache(maxsize=65536)
def _normalize_rows(rows):
    # Per-row renaming can make rows equal (1 2 | 1 ; 2 1 | 2 minimizes to
    # two copies of 1 2 | 1), so stripping and minimizing repeat until
    # nothing changes.  This terminates: after the first pass the grid is
    # minimal and minimizing a minimal grid returns it, so every later pass
    # but the last removes a row or a column.
    while True:
        nxt = tuple(_minimize(_strip_duplicates(list(rows))))
        if nxt == rows:
            return rows
        rows = nxt


def normalize(M):
    """Canonical representative of M under the entry-level symmetries."""
    rows = _normalize_rows(M.rows)
    return matrix(rows)
