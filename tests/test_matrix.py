import itertools
import random

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
from mclex.matrix import STAR, entry_key


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


def test_parse_header_budget_too_small():
    with pytest.raises(MatrixParseError):
        parse_matrix("#nmk 1 1 1\n2 | 1")


def test_parse_header_dimension_mismatch():
    with pytest.raises(MatrixParseError):
        parse_matrix("#nmk 3 1 1\n1 | 1")


def test_parse_errors_carry_position():
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix("1 * | 1 ; 1 q | 1")
    assert exc.value.line == 1
    with pytest.raises(MatrixParseError):
        parse_matrix("1 1 1")  # no right-column separator
    with pytest.raises(MatrixParseError):
        parse_matrix("0 | 1")  # variable index 0
    with pytest.raises(MatrixParseError):
        parse_matrix("1 | 1 ; 1 1 | 1")  # ragged rows
    with pytest.raises(MatrixParseError):
        parse_matrix("   ")  # empty


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


def test_normalize_symmetry_invariance():
    rng = random.Random(7)
    pool = [MALTSEV, SU2, UNITAL, SUBTRACTION, parse_matrix("1 2 * | 2 ; * 1 1 | 1")]
    for M in pool:
        base = normalize(M).rows
        for _ in range(20):
            rows = list(M.rows)
            rng.shuffle(rows)
            cols = list(range(M.m))
            rng.shuffle(cols)
            rows = [tuple(r[j] for j in cols) + (r[-1],) for r in rows]
            # per-row variable permutation
            out = []
            for r in rows:
                perm = list(range(1, M.k + 1))
                rng.shuffle(perm)
                ren = {i + 1: perm[i] for i in range(M.k)}
                out.append(tuple(STAR if e == STAR else ren[e] for e in r))
            assert normalize(matrix(out, M.k)).rows == base


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
    with pytest.raises(ValueError):
        ExtendedMatrix(0, 0, 0, ())
    with pytest.raises(ValueError):
        ExtendedMatrix(1, 1, 0, ((1, 0),))
    with pytest.raises(ValueError):
        ExtendedMatrix(2, 1, 1, ((1, 1),))


def test_normalize_repeats_until_renaming_exposes_no_duplicates():
    # per-row renaming turns the second row into a copy of the first, which
    # only the next strip removes
    N = normalize(parse_matrix("1 2 | 1 ; 2 1 | 2"))
    assert N.rows == parse_matrix("1 2 | 1").rows
    assert normalize(N).rows == N.rows
