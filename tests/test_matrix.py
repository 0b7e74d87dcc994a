import copy
import itertools
import pickle
import random
import re

import pytest

from conftest import MALTSEV, MALTSEV_CANON, SUBTRACTION, SU2, UNITAL
from mclex import (
    ExtendedMatrix,
    MatrixParseError,
    decide,
    lex_key,
    maltsev_condition,
    matrix,
    normalize,
    parse_matrix,
)
from mclex.matrix import STAR, STAR_KEY, _minimize, _strip_duplicates, entry_key


def all_matrices(n, m, k):
    entries = range(k + 1)
    for rows in itertools.product(
        itertools.product(entries, repeat=m + 1), repeat=n
    ):
        yield matrix(rows, k)


# --- parsing and text --------------------------------------------------------


def test_parse_maltsev():
    M = parse_matrix("1 2 2 | 1 ; 2 2 1 | 1")
    assert (M.n, M.m, M.k) == (2, 3, 2)
    assert M.rows == ((1, 2, 2, 1), (2, 2, 1, 1))


def test_parse_empty_left_part():
    M = parse_matrix("| *")
    assert (M.n, M.m, M.k) == (1, 0, 0)
    assert M.rows == ((STAR,),)


def test_parse_newline_rows_and_header():
    M = parse_matrix("#nmk 2 2 3\n1 * | 1\n* 1 | 1")
    assert (M.n, M.m, M.k) == (2, 2, 3)


def test_parse_text_round_trip_random():
    rng = random.Random(31)
    for _ in range(300):
        n, m, k = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 3)
        rows = [tuple(rng.randint(0, k) for _ in range(m + 1)) for _ in range(n)]
        M = matrix(rows)
        assert parse_matrix(M.text()) == M, rows
        # the header keeps a budget above the variables used
        assert parse_matrix(f"#nmk {n} {m} {k}\n" + M.text()) == matrix(rows, k), rows


def test_parse_header_budget_too_small():
    with pytest.raises(MatrixParseError):
        parse_matrix("#nmk 1 1 1\n2 | 1")


def test_parse_header_dimension_mismatch():
    with pytest.raises(MatrixParseError):
        parse_matrix("#nmk 3 1 1\n1 | 1")


def test_parse_errors_carry_position():
    # (line, column) of the first bad token, counted from the start of its line
    for text, where in (
        ("1 * | 1 ; 1 q | 1", (1, 13)),  # a row after ';'
        ("1 2 2 | 1\n2 2 xx | 1", (2, 5)),
        ("1 2 | 0", (1, 7)),  # the right column
        ("1 | 1 ; 1 1 | 1 | 1", (1, 13)),  # the first '|' of a row with two
        ("1 | 1 ;  1 1 1", (1, 10)),  # no '|': the row's first entry
        ("1 | 1 ; 1 | 1 2", (1, 11)),  # two right entries: the row's '|'
    ):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix(text)
        assert (exc.value.line, exc.value.column) == where, text
    with pytest.raises(MatrixParseError):
        parse_matrix("1 1 1")  # no right-column separator
    with pytest.raises(MatrixParseError):
        parse_matrix("0 | 1")  # variable index 0
    with pytest.raises(MatrixParseError):
        parse_matrix("1 | 1 ; 1 1 | 1")  # ragged rows
    with pytest.raises(MatrixParseError):
        parse_matrix("   ")  # empty
    with pytest.raises(MatrixParseError, match="malformed token") as exc:
        parse_matrix("1 \u00b2 | 1")  # a digit, but not an ASCII one
    assert exc.value.line == 1
    # header fields follow the body's rule, where int() would take them
    for field in ("\uff13", "+3", "1_0", "-1"):  # fullwidth 3, sign, underscore
        with pytest.raises(MatrixParseError, match="non-integer header field") as exc:
            parse_matrix(f"1 | 1\n#nmk 1 1 {field}")
        assert (exc.value.line, exc.value.column) == (2, 1)
    for header in ("#nmk 1 1", "#nmk 1 1 1 1", "#nmk"):
        with pytest.raises(MatrixParseError, match="header must be '#nmk n m k'") as exc:
            parse_matrix(f"1 | 1\n{header}")
        assert (exc.value.line, exc.value.column) == (2, 1)


def _respace(text, rng):
    """text with random runs of spaces and tabs around its tokens and empty
    ';' chunks between its rows."""
    out = []
    for token in text.split(" "):
        if token == ";" and rng.random() < 0.5:
            token = "; \t;" if rng.random() < 0.5 else ";;"
        out.append(token + "".join(rng.choice(" \t") for _ in range(rng.randint(1, 3))))
    return rng.choice(("", " ", "\t;")) + "".join(out) + rng.choice(("", ";", " ; "))


def test_one_line_parse_agrees_with_the_diagnostic_parse():
    from mclex import candidate_stream
    from mclex.matrix import _one_line_rows

    rng = random.Random(30)
    for window in [(3, 3, 2), (4, 4, 1)]:
        for rows in candidate_stream(*window):
            M = matrix(rows)
            for text in (M.text(), _respace(M.text(), rng)):
                assert _one_line_rows(text) == M.rows, text
                # a newline sends a text to the diagnostic path
                assert parse_matrix(text) == parse_matrix(text + "\n") == M, text
    # texts of the diagnostic path only
    assert parse_matrix("10 | 10").rows == ((10, 10),)
    assert parse_matrix("#nmk 1 1 3\n1 | 1") == matrix([(1, 1)], 3)
    # each error as the diagnostic parser reports it
    for text, message, column in (
        ("1 | 1 |", "each row needs exactly one '|' before its right entry", 3),
        ("1 1", "each row needs exactly one '|' before its right entry", 1),
        ("0 | 1", "variable index 0 is invalid in left part", 1),
        ("1 | 0", "variable index 0 is invalid in right column", 5),
        ("1 ² | 1", "malformed token '²' in left part", 3),
        ("1 # | 1", "malformed token '#' in left part", 3),
        ("1 | 1 2", "right column of a row must be a single entry", 3),
        ("\t1 |\t; 2 | *", "right column of a row must be a single entry", 4),
        (";", "empty matrix text", 1),
        (" ; ; ", "empty matrix text", 1),
        ("1 2 | 1 ; 1 | 1", "ragged rows", 1),
        ("1 | 1 ; 1 2 | 1", "ragged rows", 1),
    ):
        assert _one_line_rows(text) is None, text
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix(text)
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            f"line 1, column {column}: {message}", 1, column), text


def test_text_round_trip():
    for M in (MALTSEV, SU2, UNITAL, SUBTRACTION):
        assert parse_matrix(M.text()).rows == M.rows


def test_budget_view():
    M = parse_matrix("1 * | 1")
    M3 = M.with_budget(3)
    assert M3.k == 3 and M3.rows == M.rows
    with pytest.raises(ValueError):
        MALTSEV.with_budget(1)


# --- lex order ---------------------------------------------------------------


def test_lex_key_right_column_first():
    M = parse_matrix("1 * | 1 ; * 1 | 1")
    key = lex_key(M)
    # (n, m) prefix, then right column, then left columns top to bottom
    assert key[:2] == (2, 2)
    assert key[2:4] == (1, 1)
    assert key[4:6] == (1, entry_key(STAR))


def test_lex_key_star_sorts_last():
    assert lex_key(parse_matrix("| 1")) < lex_key(parse_matrix("| *"))


def test_lex_key_identity():
    mats = list(all_matrices(2, 1, 1))
    for A in mats:
        for B in mats:
            assert (lex_key(A) == lex_key(B)) == (A.rows == B.rows)


def test_canonical_forms_are_lex_minimal():
    # the canonical Mal'tsev reading is smaller than the display variant
    assert lex_key(MALTSEV_CANON) < lex_key(MALTSEV)


# --- normalization -----------------------------------------------------------


def test_normalize_row_sort_and_renaming():
    M = parse_matrix("2 2 1 | 1 ; 1 2 2 | 1")
    N = normalize(M)
    assert decide([M], [N])[0] and decide([N], [M])[0]
    assert N.rows == normalize(MALTSEV).rows


def test_normalize_drops_star_and_duplicate_columns():
    M = parse_matrix("* 1 1 | 1 ; * * * | *")
    N = normalize(M)
    assert N.m == 1
    assert N.rows == ((1, 1), (STAR, STAR))


def test_normalize_drops_duplicate_rows():
    M = parse_matrix("1 * | 1 ; 1 * | 1 ; * 1 | 1")
    assert normalize(M).n == 2


def test_normalize_idempotent_exhaustive():
    for M in all_matrices(2, 2, 1):
        N = normalize(M)
        assert normalize(N).rows == N.rows


def test_normalize_budget_soundness():
    for M in all_matrices(2, 1, 1):
        assert normalize(M.with_budget(3)).rows == normalize(M).rows


def symmetric_copy(M, rng):
    """M with its rows and left columns shuffled and each row's variables
    renamed by its own permutation: a member of M's class."""
    rows = list(M.rows)
    rng.shuffle(rows)
    cols = list(range(M.m))
    rng.shuffle(cols)
    out = []
    for row in rows:
        perm = list(range(1, M.k + 1))
        rng.shuffle(perm)
        row = [row[j] for j in cols] + [row[-1]]
        out.append(tuple(STAR if e == STAR else perm[e - 1] for e in row))
    return matrix(out, M.k)


def test_normalize_symmetry_invariance():
    rng = random.Random(7)
    pool = [MALTSEV, SU2, UNITAL, SUBTRACTION, parse_matrix("1 2 * | 2 ; * 1 1 | 1")]
    for M in pool:
        base = normalize(M).rows
        for _ in range(20):
            assert normalize(symmetric_copy(M, rng)).rows == base


def brute_minimize(rows):
    """Smallest column-major reading over every row order and every left
    column order, each row renamed by first occurrence along its own
    reading (right entry first), the star sorting last."""
    m = len(rows[0]) - 1
    best = None
    for cols in itertools.permutations(range(m)):
        renamed = []
        for row in rows:
            names = {}
            renamed.append(tuple(
                STAR_KEY if e == STAR else names.setdefault(e, len(names) + 1)
                for e in (row[-1],) + tuple(row[j] for j in cols)
            ))
        for perm in itertools.permutations(renamed):
            reading = [row[c] for c in range(m + 1) for row in perm]
            if best is None or reading < best[0]:
                best = reading, perm
    return [tuple(STAR if e == STAR_KEY else e for e in row[1:] + row[:1]) for row in best[1]]


def test_minimize_matches_brute_force():
    rng = random.Random(23)
    for _ in range(1000):
        n, m, k = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 3)
        rows = _strip_duplicates([tuple(rng.randint(0, k) for _ in range(m + 1)) for _ in range(n)])
        assert _minimize(rows) == brute_minimize(rows), rows


def test_normalize_preserves_class_sample():
    rng = random.Random(11)
    mats = [m for m in all_matrices(2, 2, 2)]
    for M in rng.sample(mats, 60):
        N = normalize(M)
        assert decide([M], [N])[0] and decide([N], [M])[0]


# --- term equations ----------------------------------------------------------


def test_maltsev_condition_subtraction():
    assert maltsev_condition(SUBTRACTION) == "p(x1,*)=x1 ; p(x1,x1)=*"


def test_maltsev_condition_maltsev():
    assert maltsev_condition(MALTSEV) == "p(x1,x2,x2)=x1 ; p(x2,x2,x1)=x1"


def test_maltsev_condition_nullary():
    assert maltsev_condition(parse_matrix("| *")) == "p()=*"


# --- construction guards -----------------------------------------------------


def test_dimension_guards():
    with pytest.raises(ValueError, match="bad dimensions n=0 m=0 k=0"):
        ExtendedMatrix(0, 0, 0, ())
    with pytest.raises(ValueError, match="outside variable budget k=0"):
        ExtendedMatrix(1, 1, 0, ((1, 0),))
    with pytest.raises(ValueError, match="row count mismatch"):
        ExtendedMatrix(2, 1, 1, ((1, 1),))
    with pytest.raises(ValueError, match="ragged rows"):
        ExtendedMatrix(2, 1, 1, ((1, 1), (1,)))
    # the checks run in this order: dimensions, row count, widths, entries
    with pytest.raises(ValueError, match="bad dimensions"):
        ExtendedMatrix(1, -1, 0, ())
    with pytest.raises(ValueError, match="row count mismatch"):
        ExtendedMatrix(2, 1, 0, ((1,),))
    with pytest.raises(ValueError, match="ragged rows"):
        ExtendedMatrix(1, 1, 0, ((1,),))


@pytest.mark.parametrize("entry", [1.5, 2.0, True], ids=repr)
def test_entries_must_be_ints(entry):
    # 1.5 once built "1.5 | 1" with k = 1.5, which degeneracy_class called
    # trivial, and True printed as "True | 1"
    with pytest.raises(ValueError, match=re.escape(f"entry {entry!r} is not an integer")):
        ExtendedMatrix(1, 1, 2, ((entry, 1),))
    # matrix() infers the budget from the largest entry, so it fails there
    with pytest.raises(ValueError, match="is not an integer"):
        matrix([(entry, 1)])


def test_budget_must_be_an_int():
    with pytest.raises(ValueError, match=re.escape("variable budget 2.0 is not an integer")):
        ExtendedMatrix(1, 1, 2.0, ((1, 1),))
    with pytest.raises(ValueError, match="variable budget True is not an integer"):
        matrix([(1, 1)], k=True)
    with pytest.raises(ValueError, match=re.escape("variable budget 2.0 is not an integer")):
        matrix([(1, 1)]).with_budget(2.0)


def test_matrix_is_a_value():
    M = matrix([(1, 2, 1), (2, STAR, 2)])
    same = ExtendedMatrix(2, 2, 2, ((1, 2, 1), (2, STAR, 2)))
    assert M == same and hash(M) == hash(same) and M is not same
    assert M != M.with_budget(3) and M.with_budget(3) == M.with_budget(3)
    assert M != (M.n, M.m, M.k, M.rows) and (M.n, M.m, M.k, M.rows) != M
    assert repr(M) == "ExtendedMatrix(n=2, m=2, k=2, rows=((1, 2, 1), (2, 0, 2)))"


@pytest.mark.parametrize("field", ["n", "m", "k", "rows", "other"])
def test_matrix_is_immutable(field):
    M = matrix([(1, 2, 1), (2, STAR, 2)])
    with pytest.raises(AttributeError):
        setattr(M, field, 1)
    with pytest.raises(AttributeError):
        delattr(M, field)
    assert M.rows == ((1, 2, 1), (2, STAR, 2))


def test_matrix_copy_and_pickle():
    M = parse_matrix("1 2 2 | 1 ; 2 2 1 | 1").with_budget(3)
    for again in (copy.copy(M), copy.deepcopy(M), pickle.loads(pickle.dumps(M))):
        assert again == M and type(again) is ExtendedMatrix and again.k == 3


def test_matrix_hash_is_cached_outside_the_fields():
    # the hash is computed on first use and kept in a slot that equality,
    # repr and pickling leave out
    rows = ((1, 2, 2, 1), (2, 2, 1, 1))
    M = ExtendedMatrix(2, 3, 2, rows)
    fresh = ExtendedMatrix(2, 3, 2, tuple(map(tuple, map(list, rows))))
    text = repr(M)
    state = pickle.dumps(M)
    assert hash(M) == hash((2, 3, 2, rows)) == hash(M)
    assert M == fresh and fresh == M and hash(fresh) == hash(M) and fresh is not M
    assert repr(M) == text == repr(fresh)
    assert text == "ExtendedMatrix(n=2, m=3, k=2, rows=((1, 2, 2, 1), (2, 2, 1, 1)))"
    assert pickle.dumps(M) == state
    for again in (copy.copy(M), copy.deepcopy(M), pickle.loads(state)):
        assert again == M and hash(again) == hash(M) and repr(again) == text
    # a cache keyed by one matrix finds it under the other
    assert {M: 1}[fresh] == 1


def test_matrix_of_no_rows_rejected():
    with pytest.raises(ValueError):
        matrix([])


def test_normalize_repeats_until_renaming_exposes_no_duplicates():
    # per-row renaming turns the second row into a copy of the first, which
    # only the next strip removes
    N = normalize(parse_matrix("1 2 | 1 ; 2 1 | 2"))
    assert N.rows == parse_matrix("1 2 | 1").rows
    assert normalize(N).rows == N.rows
