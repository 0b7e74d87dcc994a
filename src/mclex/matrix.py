"""Extended matrices over {*, x1..xk} and their canonical text form.

Entries are stored as small integers: 0 is the constant symbol ``*`` and
1..k are the variables x1..xk.  For all lexicographic purposes the entry
order is x1 < x2 < ... < xk < *, i.e. the star sorts last.
"""

from __future__ import annotations

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


# the entry of every one-character token that names one
_SHORT_TOKENS = {"*": STAR, **{str(v): v for v in range(1, 10)}}
# and the other way round.  Entries are ints (`ExtendedMatrix` refuses any
# other type), so no bool meets this table, where True would read as 1
_SHORT_TEXTS = {v: t for t, v in _SHORT_TOKENS.items()}


def entry_texts(entries):
    """[entry_text(e) for e in entries], one dict lookup per entry below 10."""
    try:
        return list(map(_SHORT_TEXTS.__getitem__, entries))
    except KeyError:
        return list(map(entry_text, entries))


def _parse_entry(t):
    if t == "*":
        return STAR
    if t.isascii() and t.isdigit():  # int() would also take '+1', '1_0' and ' 1'
        v = int(t)
        if v == 0:
            raise ValueError("variable index 0 is invalid")
        return v
    raise ValueError(f"malformed token {t!r}")


def parse_entries(tokens):
    """The entries that text tokens name: ``*``, or ASCII digits with a value
    of at least 1.  ValueError names the first token of another form."""
    try:
        return tuple(map(_SHORT_TOKENS.__getitem__, tokens))
    except KeyError:
        return tuple(map(_parse_entry, tokens))


class _Frozen:
    """Base of the immutable value types, which list their fields in
    __slots__ and return them from _values in that order.

    Instances compare and hash by their field tuple (only against their own
    type), refuse assignment and deletion, and pickle and copy through the
    constructor.  Plain classes keep ``dataclasses``, which loads
    ``inspect``, off the import path.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {value!r} to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class ExtendedMatrix(_Frozen):
    """An n x (m+1) grid; the last column of each row is the right column."""

    # rows: n tuples, each of length m+1.  _hash is not a field: _values,
    # __eq__, __repr__ and pickling leave it out, and __hash__ fills it on
    # first use.  It stays unset until then, so that building a matrix
    # costs no more: a None default took 0.2 us per matrix
    __slots__ = ("n", "m", "k", "rows", "_hash")

    def __init__(self, n, m, k, rows):
        if k.__class__ is not int:  # bools included
            raise ValueError(f"variable budget {k!r} is not an integer")
        if n < 1 or m < 0 or k < 0:
            raise ValueError(f"bad dimensions n={n} m={m} k={k}")
        if len(rows) != n:
            raise ValueError("row count mismatch")
        for row in rows:
            if len(row) != m + 1:
                raise ValueError("ragged rows")
            for e in row:
                if e.__class__ is not int:
                    raise ValueError(f"entry {e!r} is not an integer")
                if not (0 <= e <= k):
                    raise ValueError(f"entry {e} outside variable budget k={k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rows", rows)

    def _values(self):
        return (self.n, self.m, self.k, self.rows)

    # _Frozen's, without the _values call
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.m, self.k, self.rows) == (other.n, other.m, other.k, other.rows)
        return NotImplemented

    # computed once: a decide looks its matrices up in the matrix-keyed
    # caches `is_trivial`, `_goal_codes` and `instantiate`, a signature in
    # `_probe_bits`, and the Decider numbers matrices by them, so the nested
    # row tuples would be hashed again on each lookup
    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n, self.m, self.k, self.rows))
            object.__setattr__(self, "_hash", h)
            return h

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
            (" ".join(texts[:-1]) + " | " + texts[-1]).strip()
            for texts in map(entry_texts, self.rows)
        ]

    def __str__(self):
        return self.text()


def matrix(rows, k=None):
    """Build an ExtendedMatrix from raw row tuples, inferring k by default."""
    rows = tuple(tuple(r) for r in rows)
    used = max((e for row in rows for e in row), default=0)
    if k is None:
        k = used
    # no rows: n = 0, which ExtendedMatrix rejects
    return ExtendedMatrix(len(rows), len(rows[0]) - 1 if rows else 0, k, rows)


def _one_line_rows(text):
    """The rows of a valid one-line text whose tokens are one character
    each (so it has no header), or None for any other text, which
    parse_matrix's diagnostic path then reads."""
    if "\n" in text:
        return None
    rows = []
    try:
        for chunk in text.split(";"):
            if chunk.strip():
                left, right = chunk.split("|")
                (right,) = right.split()
                rows.append(tuple(map(_SHORT_TOKENS.__getitem__, left.split()))
                            + (_SHORT_TOKENS[right],))
    except (KeyError, ValueError):  # a bad token, or not one '|' and one right entry
        return None
    return tuple(rows) if len(set(map(len, rows))) == 1 else None


def parse_matrix(text):
    """Parse the interchange format: rows of entries, ``|`` before the right
    entry, rows separated by ``;`` or newlines, optional ``#nmk n m k`` header.
    """
    rows = _one_line_rows(text)
    if rows:
        return ExtendedMatrix(len(rows), len(rows[0]) - 1, max(map(max, rows)), rows)
    lines = text.split("\n")
    header = None
    body_rows = []  # (line_no, row_text, col_offset)
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("#nmk"):
            parts = stripped.split()
            if len(parts) != 4:
                raise MatrixParseError("header must be '#nmk n m k'", lineno, 1)
            # the body's rule: int() would also take '+3', '1_0' and fullwidth digits
            if not all(p.isascii() and p.isdigit() for p in parts[1:]):
                raise MatrixParseError("non-integer header field", lineno, 1)
            header = tuple(int(p) for p in parts[1:])
            continue
        col_offset = 0
        for chunk in line.split(";"):
            if chunk.strip():
                body_rows.append((lineno, chunk, col_offset))
            col_offset += len(chunk) + 1
    if not body_rows:
        raise MatrixParseError("empty matrix text", 1, 1)

    rows = []
    for lineno, chunk, col_offset in body_rows:
        if chunk.count("|") != 1:
            # the first '|', or the row's first entry when it has none
            at = chunk.find("|") if "|" in chunk else len(chunk) - len(chunk.lstrip())
            raise MatrixParseError(
                "each row needs exactly one '|' before its right entry",
                lineno,
                col_offset + at + 1,
            )
        left_text, right_text = chunk.split("|")

        def tok(piece, start, what):
            try:
                return parse_entries(piece.split())
            except ValueError as err:
                # the column of the first token that fails, as parse_entries met it
                at = 0
                for t in piece.split():
                    at = piece.index(t, at)
                    try:
                        _parse_entry(t)
                    except ValueError:
                        break
                    at += len(t)
                raise MatrixParseError(f"{err} in {what}", lineno, start + at + 1) from None

        bar = col_offset + len(left_text)  # 0-based column of the row's '|'
        left = tok(left_text, col_offset, "left part")
        right = tok(right_text, bar + 1, "right column")
        if len(right) != 1:
            raise MatrixParseError("right column of a row must be a single entry", lineno, bar + 1)
        rows.append(left + right)

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
    *left, right = zip(*rows)
    star = (STAR,) * len(right)
    cols = [c for c in dict.fromkeys(left) if c != star]
    new_rows = list(dict.fromkeys(zip(*cols, right)))
    # column tuples must be rebuilt if rows were dropped
    if len(new_rows) != len(rows):
        return _strip_duplicates(new_rows)
    return new_rows


def _minimize(rows):
    """Smallest column-major reading over row order, left-column order and
    per-row variable renaming.

    Each row is renamed by first occurrence along its own reading, right
    entry first, so for a fixed column order the smallest reading lists the
    renamed rows sorted.  Rows tied on the first j columns have equal
    prefixes, so those columns of the sorted reading do not depend on the
    later ones: column orders grow one column at a time, and only those
    whose sorted reading is smallest, ties included, are extended.
    """
    m = len(rows[0]) - 1
    # a column order: the left columns not yet placed, and per row its
    # renamed entries so far with the variables met so far, in order
    start = [((STAR_KEY,), ()) if r[-1] == STAR else ((1,), (r[-1],)) for r in rows]
    orders = [(tuple(range(m)), start)]
    for _ in range(m):
        best, kept = None, []
        for remaining, state in orders:
            for j in remaining:
                grown = [_place(row[j], key, met) for row, (key, met) in zip(rows, state)]
                # kept orders share the earlier columns, so the new one decides
                col = [key[-1] for key, _ in sorted(grown)]
                if best is None or col < best:
                    best, kept = col, []
                if col == best:
                    kept.append((tuple(x for x in remaining if x != j), grown))
        orders = kept
    return [tuple(STAR if e == STAR_KEY else e for e in key[1:] + key[:1])
            for key, _ in sorted(orders[0][1])]


def _place(e, key, met):
    """A row's renamed entries and met variables, extended by entry e."""
    if e == STAR:
        return key + (STAR_KEY,), met
    if e in met:
        return key + (met.index(e) + 1,), met
    return key + (len(met) + 1,), met + (e,)


def _normalize_rows(rows):
    # Per-row renaming can make rows equal (1 2 | 1 ; 2 1 | 2 minimizes to
    # two copies of 1 2 | 1), so stripping and minimizing repeat until
    # stripping removes nothing.  A minimized grid is the smallest reading
    # of its orbit, so with nothing to strip it is its own normal form.
    # Every pass but the last removes a row or a column, so this terminates.
    rows = _strip_duplicates(rows)
    while True:
        rows = _minimize(rows)
        stripped = _strip_duplicates(rows)
        if stripped == rows:
            return tuple(rows)
        rows = stripped


def normalize(M):
    """Canonical representative of M under the entry-level symmetries."""
    rows = _normalize_rows(M.rows)
    return matrix(rows)
