"""The kernels against unpruned, rule-by-rule or batch-loop references."""

import itertools
import random

import pytest
from conftest import MALTSEV, SUBTRACTION

from mclex import _kernel
from mclex.closure import _goal_codes, col_star_mask, decide, encode_column, instantiate
from mclex.enumeration import _probe_masks, probes_for
from mclex.localization import localize
from mclex import classify, matrix, parse_matrix


def random_matrix(rng, n, m, k):
    rows = []
    for _ in range(n):
        rows.append(tuple(rng.randrange(k + 1) for _ in range(m + 1)))
    return matrix(rows, k)


def closure_mask(n, k, mats, r0, stop=-1):
    """_kernel.closure_mask from the seed of the column set r0."""
    return _kernel.closure_mask(n, k, mats, _kernel._seed(n, k, r0), stop)


def closure_record(n, k, mats, r0, stop=-1):
    """_kernel.closure_record from the seed of the column set r0."""
    return _kernel.closure_record(n, k, mats, _kernel._seed(n, k, r0), stop)


def reference_closure_mask(n, k, mats, r0, stop=-1):
    """Unpruned odometer: every n-tuple of rows is completed before its
    left columns are tested."""
    weights = [(k + 1) ** i for i in range(n)]
    r = r0
    if stop >= 0 and (r >> stop) & 1:
        return r
    changed = True
    while changed:
        changed = False
        for m, rows in mats:
            for combo in itertools.product(rows, repeat=n):
                cols = [sum(combo[i][j] * weights[i] for i in range(n)) for j in range(m)]
                if all((r >> c) & 1 for c in cols):
                    right = sum(combo[i][-1] * weights[i] for i in range(n))
                    if not (r >> right) & 1:
                        r |= 1 << right
                        changed = True
                        if right == stop:
                            return r
    return r


def _random_case(rng, n, k):
    N = random_matrix(rng, n, rng.randint(0, 3), k)
    S = [
        random_matrix(rng, rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2))
        for _ in range(rng.randint(1, 3))
    ]
    mats = [(M.m, instantiate(M, k)) for M in S]
    # keep the unpruned reference small: rows**n tuples per scan
    mats = [(m, rows[: max(1, int(3000 ** (1 / n)))]) for m, rows in mats]
    return n, k, mats, col_star_mask(N), encode_column(N.right_column, k + 1)


def _closure_cases(rng):
    """(n, k, mats, r0, goal) over n = 1..4 and k = 1..3, with one to three
    hypotheses, m == 0 hypotheses and empty row lists among them, three
    cases over the universe of 625 columns at n = k = 4, one at n = 5 and
    the pairs of `_hasse_cases`."""
    cases = [
        _random_case(rng, n, k) for n in range(1, 5) for k in range(1, 4) for _ in range(16)
    ]
    r0, code = col_star_mask(SUBTRACTION), encode_column(SUBTRACTION.right_column, 2)
    cases.append((2, 1, [(0, [(1,), (0,)])], r0, code))  # m == 0 only
    cases.append((2, 1, [(2, [])], r0, code))  # empty row list
    cases.append((2, 1, [(2, []), (0, [(1,)]), (1, [(1, 1), (0, 1)])], r0, code))
    cases.append((1, 3, [(0, [(2,)]), (1, [(2, 3)]), (1, [(3, 1)])], 1, 1))
    # the second row of the first hypothesis passes only once the first row
    # has added column 1, and then reaches the goal before the second
    # hypothesis adds column 3
    cases.append((1, 3, [(1, [(0, 1), (1, 2)]), (1, [(0, 3)])], 1, 2))
    # the first derives 624 columns and reaches its goal, the second derives
    # 80 and stops short of it, the third derives none
    wide = random.Random(2)
    cases += [_random_case(wide, 4, 4) for _ in range(3)]
    # n = 5, k = 3: the deepest digit list has 4**4 = 256 entries; three
    # hypotheses derive all 1,024 columns
    cases.append(_random_case(random.Random(3), 5, 3))
    return cases + _hasse_cases()


def _hasse_cases():
    """(n, k, mats, r0, goal) of 40 seeded ordered pairs of four-row
    representatives of (4,3,1): one hypothesis of five instantiated rows
    against a goal over (4,1), the shape of most Hasse decides."""
    four = [c.rep for c in classify(4, 3, 1).classes if c.rep.n == 4]
    assert {len(instantiate(M, 1)) for M in four} == {5}
    pairs = random.Random(431).sample(list(itertools.permutations(four, 2)), 40)
    return [
        (4, 1, [(A.m, instantiate(A, 1))], col_star_mask(N),
         encode_column(N.right_column, 2))
        for A, N in pairs
    ]


def test_tuples_are_the_filtered_product():
    # against a fixed column set: col*(N), and col*(N) with random columns
    # added, so that some tuples pass on every depth
    rng = random.Random(7)
    passed = 0
    for n, k, mats, r0, _goal in _closure_cases(random.Random(2024))[::5]:
        weights = [(k + 1) ** i for i in range(n)]
        for r in (r0, r0 | rng.getrandbits((k + 1) ** n)):
            seed = _kernel._seed(n, k, r)
            field = seed[2]
            digits, scans = _kernel._start(n, k, mats, seed)
            for mi, scan in enumerate(scans):
                leaf = scan[2]
                got = [
                    tuple((v >> sh) & field for sh, _table in leaf)
                    for v in _kernel._tuples(scan, field, digits, ())
                ]
                m, rows = mats[mi]
                every = [
                    tuple(sum(combo[i][j] * weights[i] for i in range(n)) for j in range(m + 1))
                    for combo in itertools.product(rows, repeat=n)
                ]
                expected = [
                    codes for codes in every
                    if all((r >> c) & 1 for c in codes[:-1]) and not (r >> codes[-1]) & 1
                ]
                assert got == expected, (n, k, mats[mi], r)
                passed += len(got)
    assert passed > 1000


def test_both_round_policies_reach_the_least_fixpoint():
    for n, k, mats, r0, _goal in _closure_cases(random.Random(2024)):
        assert closure_mask(n, k, mats, r0) == closure_record(n, k, mats, r0)[0]


def test_closure_mask_matches_reference():
    for n, k, mats, r0, goal in _closure_cases(random.Random(2024)):
        for stop in (-1, goal):
            expected = reference_closure_mask(n, k, mats, r0, stop)
            assert closure_mask(n, k, mats, r0, stop) == expected, (n, k, mats, r0, stop)


def test_closure_mask_early_stop_after_a_column_is_added():
    # captured from classify(3,3,2): a walk that only narrows its row mask
    # after a child adds a column drops rows that the larger set lets pass,
    # and stops early with 0b11010011011011011 instead
    rows = ((0, 0, 0, 0), (1, 1, 0, 1), (2, 2, 0, 2), (1, 0, 0, 1), (2, 0, 0, 2),
            (1, 0, 1, 0), (2, 0, 2, 0), (0, 1, 0, 1), (1, 1, 1, 1), (2, 1, 2, 1),
            (0, 2, 0, 2), (1, 2, 1, 2), (2, 2, 2, 2))
    args = (3, 2, [(3, rows)], 32913, 13)
    assert reference_closure_mask(*args) == 0b11011011011011011
    assert closure_mask(*args) == 0b11011011011011011


def reference_saturate_record(n, k, mats, r0, stop=-1):
    """Batch rounds over tuples of column codes built one row at a time,
    each partial tuple kept while its partial left columns are prefixes of
    columns in the round's starting set; of a round's tuples deriving a
    new column, the first with the fewest consumed columns outside r0."""
    base = k + 1
    weights = [base**i for i in range(n)]
    r = r0
    log = {}
    while not (stop >= 0 and (r >> stop) & 1):
        snapshot = r
        cols = [c for c in range(base**n) if (snapshot >> c) & 1]
        prefixes = [{c % (w * base) for c in cols} for w in weights]
        for mi, (m, rows) in enumerate(mats):
            level = [(0,) * (m + 1)]
            for w, allowed in zip(weights, prefixes):
                nxt = []
                for part in level:
                    for row in rows:
                        codes = tuple(p + e * w for p, e in zip(part, row))
                        if all(c in allowed for c in codes[:-1]):
                            nxt.append(codes)
                level = nxt
            for codes in level:
                right = codes[-1]
                if (snapshot >> right) & 1:
                    continue
                consumed = codes[:-1]
                cost = len({c for c in consumed if not (r0 >> c) & 1})
                best = log.get(right)
                if best is None or cost < best[0]:
                    log[right] = (cost, mi, consumed)
                    r |= 1 << right
        if r == snapshot:
            break
    return r, log


def test_closure_record_matches_reference():
    for n, k, mats, r0, goal in _closure_cases(random.Random(2024)):
        for stop in (-1, goal):
            mask, log = reference_saturate_record(n, k, mats, r0, stop)
            got, got_log = closure_record(n, k, mats, r0, stop)
            assert (got, list(got_log.items())) == (mask, list(log.items())), (
                n, k, mats, r0, stop)


def test_goal_seed_is_copied_not_shared():
    # the kernels grow the digit lists that _start copies from the goal's
    # cached seed; calls from the same seed must each start from col*(N)
    # alone, whatever the calls before them derived
    rows = ((0, 0, 0, 0), (1, 1, 0, 1), (2, 2, 0, 2), (1, 0, 0, 1), (2, 0, 0, 2),
            (1, 0, 1, 0), (2, 0, 2, 0), (0, 1, 0, 1), (1, 1, 1, 1), (2, 1, 2, 1),
            (0, 2, 0, 2), (1, 2, 1, 2), (2, 2, 2, 2))
    N = matrix([(1, 1, 0, 1), (1, 2, 2, 1), (0, 0, 1, 1)])
    n, k, r0 = N.n, N.k, col_star_mask(N)
    seed, goal = _goal_codes(N)
    # the seed is r0, its digit lists as tuples and the field mask of (3, 2)
    digits = [[0] * 3**d for d in range(3)]
    for c in range(27):
        if (r0 >> c) & 1:
            for d in range(3):
                digits[d][c % 3**d] |= 1 << (c // 3**d % 3)
    built = (r0, tuple(map(tuple, digits)), (1 << 5) - 1)
    assert seed == built
    assert (r0, goal) == (32913, 13)
    grown = _kernel.closure_mask(n, k, [(3, rows)], seed)
    assert grown == reference_closure_mask(n, k, [(3, rows)], r0) and grown != r0
    # a hypothesis that derives nothing
    nothing = reference_closure_mask(n, k, [(3, rows[:1])], r0)
    assert _kernel.closure_mask(n, k, [(3, rows[:1])], seed) == nothing == r0
    assert _kernel.closure_mask(n, k, [(3, rows)], seed, goal) == 0b11011011011011011
    expected = reference_saturate_record(n, k, [(3, rows)], r0, goal)
    got, log = _kernel.closure_record(n, k, [(3, rows)], seed, goal)
    assert (got, list(log.items())) == (expected[0], list(expected[1].items()))
    assert _goal_codes(N)[0] is seed and seed == built == _kernel._seed(n, k, r0)


def test_goal_in_col_star_packs_nothing():
    # a verdict-only decide whose goal's right column is among its left
    # columns (here the all-star column) returns before packing S
    N = parse_matrix("1 * | * ; * 1 | *")
    assert (_goal_codes(N)[0][0] >> _goal_codes(N)[1]) & 1
    _kernel._packed.cache_clear()
    assert decide([MALTSEV], [N]) == (True, [])
    info = _kernel._packed.cache_info()
    assert (info.hits, info.misses) == (0, 0)


# the Mal'tsev matrix with 97 more copies of its constant column (2, 2): 100
# left columns; against the subtraction goal it derives every column
WIDE = matrix([row[:-1] + (2,) * 97 + row[-1:] for row in MALTSEV.rows])


def _wide_case():
    N = SUBTRACTION
    mats = [(WIDE.m, instantiate(WIDE, N.k))]
    return N.n, N.k, mats, col_star_mask(N), encode_column(N.right_column, N.k + 1)


def test_closure_mask_wide_hypothesis():
    n, k, mats, r0, goal = _wide_case()
    assert WIDE.m == 100
    for stop in (-1, goal):
        assert reference_closure_mask(n, k, mats, r0, stop) == 15
        assert closure_mask(n, k, mats, r0, stop) == 15


def test_closure_record_wide_hypothesis():
    n, k, mats, r0, goal = _wide_case()
    for stop in (-1, goal):
        mask, log = reference_saturate_record(n, k, mats, r0, stop)
        assert mask == 15
        got, got_log = closure_record(n, k, mats, r0, stop)
        assert (got, list(got_log.items())) == (mask, list(log.items()))


def test_sharp_bits_empty_rows_python():
    masks = _probe_masks(2, 1)
    full = (1 << len(masks)) - 1
    assert _kernel.sharp_bits(2, 1, 1, (), masks) == full


def reference_sharp_bits(n, k, m, rows, rel_masks):
    """Rule-by-rule evaluation: each rule tested against each mask."""
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


def _probe_shapes():
    # every probe of the windows up to n=4, k=3, which include the
    # probes_for(n, 1) that localized matrices are signed over, and two
    # shapes no window takes: (2, 1), the only one with n = 2 and k = 1, and
    # (3, 2), the only one with three rows over two variables
    shapes = {p for n in range(1, 5) for k in range(1, 4) for p in probes_for(n, k)}
    return sorted(shapes | {(2, 1), (3, 2)})


def _digit_permutations(c, n, base):
    """The codes of c with its n base-`base` digits permuted every way."""
    digits = [c // base**d % base for d in range(n)]
    return {
        sum(e * base**d for d, e in enumerate(perm))
        for perm in itertools.permutations(digits)
    }


def _sharp_bits_cases(probe):
    """(m, rows) of the matrices sharp_bits is tested on: hand-picked ones,
    small random ones, 4-row ones, and localizations of random ones with up
    to 7 left columns."""
    n_p, k_p = probe
    rng = random.Random(n_p * 10 + k_p)
    mats = [
        matrix([(1, 2, 1)]),  # every rule has its consequent among its antecedents
        matrix([(1, 2, 2), (2, 1, 2)]),  # some rules have, some have not
        matrix([(1,)]),  # m == 0
        matrix([(0,), (1,)]),  # m == 0
        # representatives of (4,3,1) classes on which a kernel that leaves
        # out the reversing digit permutation goes wrong over (3,2) and (4,1)
        matrix([(1, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 0)]),
        matrix([(1, 1, 0, 1), (1, 0, 1, 1), (1, 0, 0, 0), (0, 1, 1, 0)]),
        matrix([(1, 1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 0), (0, 1, 1, 0)]),
        matrix([(1, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0)]),
    ]
    for _ in range(40):
        mats.append(
            random_matrix(rng, rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 2))
        )
    for _ in range(4):
        mats.append(random_matrix(rng, 4, rng.randint(1, 3), 1))
    cases = [(M.m, instantiate(M, k_p)) for M in mats]
    for m in range(3, 7):
        M = localize(random_matrix(rng, rng.randint(1, 3), m, 1))
        # keep the rule-by-rule reference small: rows**n_p tuples
        cases.append((M.m, instantiate(M, k_p)[: int(10000 ** (1 / n_p))]))
    return cases


@pytest.mark.parametrize("probe", _probe_shapes())
def test_sharp_bits_matches_reference(probe):
    n_p, k_p = probe
    base = k_p + 1
    masks = _probe_masks(n_p, k_p)
    # masks that are not closed under digit permutations, some without the
    # all-star code 0
    rng = random.Random(n_p * 100 + k_p)
    loose = [rng.getrandbits(base**n_p) for _ in range(60)]
    assert any(not rm & 1 for rm in loose)
    if n_p > 1:
        assert any(
            not all((rm >> d) & 1 for c in range(base**n_p) if (rm >> c) & 1
                    for d in _digit_permutations(c, n_p, base))
            for rm in loose
        )
    cases = _sharp_bits_cases(probe)
    assert max(m for m, _rows in cases) == 7
    for m, rows in cases:
        expected = reference_sharp_bits(n_p, k_p, m, rows, loose)
        assert _kernel.sharp_bits(n_p, k_p, m, rows, loose) == expected, rows
        expected = reference_sharp_bits(n_p, k_p, m, rows, masks)
        assert _kernel.sharp_bits(n_p, k_p, m, rows, masks) == expected, rows
        # a prefix of the masks is another cache key over the same universe
        head = list(masks[:100])
        assert _kernel.sharp_bits(n_p, k_p, m, rows, head) == expected & (
            (1 << len(head)) - 1
        )
    full = (1 << len(masks)) - 1
    assert _kernel.sharp_bits(n_p, k_p, 0, (), masks) == full
    all_trivial = matrix([(1, 2, 1)])
    rows = instantiate(all_trivial, k_p)
    assert _kernel.sharp_bits(n_p, k_p, all_trivial.m, rows, masks) == full
