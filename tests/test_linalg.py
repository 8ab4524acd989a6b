import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from nilcohom import catalog as cat, cohomology as co, linalg
from nilcohom.algebra import Gaussian, ZERO
from nilcohom.linalg import ExactMatrix, exact_rank, hstack, vstack
import rank_oracle
from rank_oracle import grid_of, matrix_from_grid, oracle_rank, reference_rank
from scale_oracle import grid_product, reference_ranks, scaled, structure_scale
from test_cohomology import _in_a_random_coframe


def G(re, im=0):
    return Gaussian.of(Fraction(re), Fraction(im))


def grid(rows):
    return [[G(*e) if isinstance(e, tuple) else G(e) for e in row] for row in rows]


def mat(rows):
    return matrix_from_grid(grid(rows))


def test_each_column_takes_at_most_rows_elimination_steps(monkeypatch):
    # the first test of the first file (see conftest.py), so that an
    # elimination that stalls fails here before another test hangs on it.
    # A step of _eliminate clears the column's lead row and leaves entries
    # only below it, so the lead strictly rises: a column takes at most
    # `rows` steps, and a step past that fails here instead of looping.  The
    # columns are ranked one at a time, each resumed from the pivots so far,
    # which is the same elimination, so the ranks full_table reads that way
    # are still the oracle's
    eliminate, rank, left, steps = linalg._eliminate, linalg.exact_rank, [0], []

    def counted(v, pivot, lead):
        steps.append(lead)
        left[0] -= 1
        assert left[0] >= 0, "a column took more elimination steps than it has rows"
        return eliminate(v, pivot, lead)

    def column_by_column(rows, columns, pivots=None):
        pivots = {} if pivots is None else pivots
        for column in columns:
            left[0] = rows
            rank(rows, [column], pivots)
        return len(pivots)

    rng = random.Random(17)
    grids = [_random_grid(rng, rng.randint(1, 8), rng.randint(1, 10)) for _ in range(100)]
    cs = cat.case_by_id("09d_8D").structure
    monkeypatch.setattr(linalg, "_eliminate", counted)
    for trial, g in enumerate(grids):
        m = matrix_from_grid(g)
        assert column_by_column(m.rows, m.columns) == oracle_rank(g), trial
    taken = len(steps)
    monkeypatch.setattr(co, "exact_rank", column_by_column)
    assert co._ranks(cs) == reference_ranks(cs)
    assert 0 < taken < len(steps)


def test_rank_trivial():
    assert exact_rank(4, ExactMatrix(4, 6).columns) == 0
    m = mat([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert exact_rank(m.rows, m.columns) == 5
    assert exact_rank(0, ExactMatrix(0, 3).columns) == 0
    assert exact_rank(3, ExactMatrix(3, 0).columns) == 0


def test_rank_rectangular_with_fractions():
    m = mat([["1/2", 1, 0], [1, 2, 0], [0, 0, "1/3"]])
    assert exact_rank(m.rows, m.columns) == 2


def test_rank_complex_dependence():
    # second row is i times the first
    m = mat([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]])
    assert exact_rank(m.rows, m.columns) == 1


def test_columns_hold_only_nonzero_entries():
    m = mat([[1, 0], [0, (0, 2)]])
    assert m.columns == [{0: (1, 0)}, {1: (0, 2)}]
    assert grid_of(m) == grid([[1, 0], [0, (0, 2)]])
    # one common lcm (6) for the whole matrix, not one per column (2, then 3)
    m = mat([["1/2", 0], [0, ("1/3", 1)]])
    assert m.columns == [{0: (3, 0)}, {1: (2, 6)}]
    assert grid_of(m) == grid([[3, 0], [0, (2, 6)]])


def test_shape_is_checked():
    with pytest.raises(ValueError):
        ExactMatrix(2, 1, [{2: G(1)}])
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [{0: G(1)}])
    with pytest.raises(ValueError):
        vstack(mat([[1, 2]]), mat([[1]]))
    with pytest.raises(ValueError):
        hstack(mat([[1], [2]]), mat([[1]]))
    with pytest.raises(ValueError):
        mat([[1, 2]]) @ mat([[1, 2]])


def test_stacking():
    a = mat([[1, 2]])
    b = mat([[3, 4], [(0, 5), 6]])
    v = vstack(a, b)
    assert (v.rows, v.cols) == (3, 2)
    assert v == mat([[1, 2], [3, 4], [(0, 5), 6]])
    h = hstack(b, b)
    assert (h.rows, h.cols) == (2, 4)
    assert h == mat([[3, 4, 3, 4], [(0, 5), 6, (0, 5), 6]])
    assert vstack(ExactMatrix(0, 2), a) == a
    assert hstack(a, ExactMatrix(1, 0)) == a


def test_matmul_identity():
    g = grid([[1, (0, 1)], [(2, -1), "1/2"]])
    m = matrix_from_grid(g)
    identity = mat([[1, 0], [0, 1]])
    assert identity @ m == m
    assert m @ identity == m
    assert identity.apply(m.columns) == m.columns
    # m is 2 g, so m @ m is 4 g^2; e.g. the (1,1) entry of g^2 is
    # (2-i)*i + 1/2*1/2 = 5/4+2i
    assert grid_of(m @ m) == scaled(grid([
        [(2, 2), (0, "3/2")],
        [(3, "-3/2"), ("5/4", 2)],
    ]), 4)
    assert (m @ ExactMatrix(2, 3)).is_zero()
    # an exact cancellation leaves no stored zero behind
    assert mat([[1, -1]]) @ mat([[1], [1]]) == ExactMatrix(1, 1)
    assert mat([[1, -1]]).apply([{0: (1, 0), 1: (1, 0)}, {}]) == [{}, {}]
    # on random grids, apply is the product's columns, and both are the
    # oracle's product of the same integral grids
    rng = random.Random(5)
    for trial in range(60):
        inner = rng.randint(0, 6)
        a = matrix_from_grid(_random_grid(rng, rng.randint(1, 6), inner))
        b = matrix_from_grid(_random_grid(rng, inner, rng.randint(1, 6)))
        product = a @ b
        assert (product.rows, product.cols) == (a.rows, b.cols), trial
        assert a.apply(b.columns) == product.columns, trial
        assert grid_of(product) == grid_product(grid_of(a), grid_of(b)), trial


def _random_grid(rng, rows, cols):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.35:
                row.append(ZERO)
            else:
                row.append(Gaussian.of(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                ))
        out.append(row)
    return out


def test_bareiss_agrees_with_field_elimination():
    rng = random.Random(42)
    for _ in range(120):
        g = _random_grid(rng, rng.randint(1, 7), rng.randint(1, 7))
        m = matrix_from_grid(g)
        assert exact_rank(m.rows, m.columns) == oracle_rank(g)



def test_rank_resumes_from_the_pivots_of_an_earlier_call():
    # b after a's pivots is ranked as a and b side by side; b shares rows with
    # a, and some of its columns lie in a's span or repeat each other
    rng = random.Random(3)
    for trial in range(80):
        rows = rng.randint(1, 7)
        a = _random_grid(rng, rows, rng.randint(0, 5))
        b = _random_grid(rng, rows, rng.randint(0, 5))
        for row_a, row_b in zip(a, b):
            if row_a:
                row_b.append(row_a[0] * G(3, -1))  # in the span of a
            if row_a and row_b:
                row_b.append(row_a[0] - row_b[0])   # in the span of a and b
            if row_b:
                row_b.append(row_b[-1] * G(0, 2))   # a multiple within b
        a_m, b_m = matrix_from_grid(a), matrix_from_grid(b)
        together = [ra + rb for ra, rb in zip(a, b)]
        pivots = {}
        assert exact_rank(rows, a_m.columns, pivots) == len(pivots) == oracle_rank(a), trial
        before = dict(pivots)
        rank = exact_rank(rows, b_m.columns, pivots)
        both = hstack(a_m, b_m)
        assert rank == len(pivots) == exact_rank(both.rows, both.columns) \
            == oracle_rank(together), trial
        # extended in place: the earlier pivots stay as they were
        assert all(pivots[lead] == v for lead, v in before.items()), trial
        # a call without pivots ranks b alone, whatever came before
        assert exact_rank(rows, b_m.columns) == oracle_rank(b), trial


def test_rank_resumes_from_any_subset_of_earlier_pivots():
    # a subset of an echelon set is one: resuming from it ranks the subset's
    # columns and b side by side
    rng = random.Random(11)
    for trial in range(80):
        rows = rng.randint(1, 7)
        a = matrix_from_grid(_random_grid(rng, rows, rng.randint(1, 6)))
        b = _random_grid(rng, rows, rng.randint(0, 5))
        pivots = {}
        exact_rank(rows, a.columns, pivots)
        subset = {lead: v for lead, v in pivots.items() if rng.random() < 0.5}
        kept = ExactMatrix(rows, len(subset), list(subset.values()))
        together = [ra + rb for ra, rb in zip(grid_of(kept), b)]
        rank = exact_rank(rows, matrix_from_grid(b).columns, subset)
        assert rank == len(subset) == oracle_rank(together), trial


# units, real and imaginary integers above 1, and general Gaussian integers
SMALL_ENTRIES = [(1, 0), (-1, 0), (2, 0), (-2, 0), (3, 0), (-3, 0), (0, 1), (0, -1),
                 (0, 2), (0, -2), (1, 1), (1, -1), (2, -3)]


def _ordered(pivots):
    """The pivots as nested item lists, so that a comparison sees key order too."""
    return [(lead, list(v.items())) for lead, v in pivots.items()]


def test_pivots_match_the_reference_elimination_key_for_key(monkeypatch):
    # exact_rank skips arithmetic that cannot change a pivot; its pivot dicts
    # must still be the textbook ones, in keys, values and order, fresh and
    # resumed, and never a caller's column or a change to one
    branches = Counter()
    new_pivot, reduced = rank_oracle._new_pivot, rank_oracle._reduced

    def counted_pivot(v, lead):
        a, b = v[lead]
        if b:
            branches["general lead" if a else "imaginary lead"] += 1
        else:
            branches["lead 1" if a == 1 else "real lead above 1" if a > 1
                     else "negative real lead"] += 1
        return new_pivot(v, lead)

    def counted_step(v, pivot, lead):
        p, (ha, hb) = pivot[lead][0], v[lead]
        branches["p/g is 1" if p == gcd(p, ha, hb) else "p/g above 1"] += 1
        branches["complex multiplier" if hb else "real multiplier"] += 1
        return reduced(v, pivot, lead)

    monkeypatch.setattr(rank_oracle, "_new_pivot", counted_pivot)
    monkeypatch.setattr(rank_oracle, "_reduced", counted_step)
    rng = random.Random(23)
    for trial in range(500):
        rows = rng.randint(1, 8)
        columns = [{r: rng.choice(SMALL_ENTRIES) for r in range(rows) if rng.random() < 0.6}
                   for _ in range(rng.randint(1, 10))]
        snapshot = [dict(v) for v in columns]
        split = rng.randint(0, len(columns))
        mine, theirs = {}, {}
        for part in (columns[:split], columns[split:]):
            assert exact_rank(rows, part, mine) == reference_rank(rows, part, theirs), trial
            assert _ordered(mine) == _ordered(theirs), trial
            if rng.random() < 0.5:  # resume from a subset of the pivots
                kept = [lead for lead in mine if rng.random() < 0.5]
                mine, theirs = {k: mine[k] for k in kept}, {k: theirs[k] for k in kept}
        assert columns == snapshot, trial
        assert not {id(v) for v in mine.values()} & {id(v) for v in columns}, trial
    assert set(branches) == {
        "lead 1", "real lead above 1", "negative real lead", "imaginary lead", "general lead",
        "p/g is 1", "p/g above 1", "real multiplier", "complex multiplier"}, branches


def test_rank_of_every_engine_matrix_of_an_8d_structure(monkeypatch):
    # the engine's own regime: shapes up to 70x36, from complex rational
    # constants (lambda = 13/5, D = 12/5 i) that the engine scales to Gaussian
    # integers by their lcm; each call is the very matrix full_table hands to
    # the rank routine, side by side with the pivots it resumes from
    cs = cat.case_by_id("09d_8D").structure
    assert structure_scale(cs) > 1
    calls = []

    def captured(rows, columns, pivots=None):
        start = list((pivots or {}).values())
        rank = exact_rank(rows, columns, pivots)
        calls.append((hstack(ExactMatrix(rows, len(start), start),
                             ExactMatrix(rows, len(columns), columns)), len(start), rank))
        return rank

    monkeypatch.setattr(co, "exact_rank", captured)
    co.full_table(cs)
    assert any(resumed for _, resumed, _ in calls)
    assert max(m.rows for m, _, _ in calls) == 70 and max(m.cols for m, _, _ in calls) == 36
    assert sum(rank for _, _, rank in calls) > 0
    for m, _, rank in calls:
        assert rank == oracle_rank(grid_of(m)), m
    # every rank of the table, the 70x70 total matrices included, by the oracle
    monkeypatch.undo()
    assert co._ranks(cs) == reference_ranks(cs)


def test_rank_with_shared_content_and_large_heights():
    # rank-deficient matrices whose columns share a large integer content or
    # are large-height multiples and sums of others, so that every reduction
    # step leaves a common factor, kept until the new pivot's content step
    rng = random.Random(7)

    def big():
        return Gaussian.of(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6)),
                           Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6)))

    for trial in range(40):
        rows, base = rng.randint(2, 7), rng.randint(1, 4)
        columns = [[big() if rng.random() < 0.7 else ZERO for _ in range(rows)]
                   for _ in range(base)]
        content = Gaussian.of(2**40 * 3**20 * rng.choice((1, -1)))
        for _ in range(rng.randint(1, 4)):
            a, b = rng.choice(columns), rng.choice(columns)
            s, t = big(), rng.choice((ZERO, big()))
            columns.append([content * (s * x + t * y) for x, y in zip(a, b)])
        rng.shuffle(columns)
        g = [[col[i] for col in columns] for i in range(rows)]
        m = matrix_from_grid(g)
        rank = exact_rank(m.rows, m.columns)
        assert rank == oracle_rank(g), f"trial {trial}"
        assert rank <= base < len(columns)


def test_a_step_is_a_positive_multiple_of_the_textbook_step():
    # _eliminate keeps the content that the textbook step divides out: its
    # result has that step's keys in that step's order, and is c times it for
    # one positive integer c, so the zeros, the signs and the next pivot are
    # the textbook ones.  Keys come in any order, as they do after a step
    seen = Counter()
    rng = random.Random(31)

    def column(lead, rows):
        keys = [r for r in range(lead + 1, rows) if rng.random() < 0.6]
        rng.shuffle(keys)
        keys.insert(rng.randint(0, len(keys)), lead)
        return {r: rng.choice(SMALL_ENTRIES) for r in keys}

    for trial in range(600):
        rows = rng.randint(2, 9)
        lead = rng.randrange(rows - 1)
        pivot = rank_oracle._new_pivot(column(lead, rows), lead)
        content = rng.choice((1, 1, 6))
        v = {r: (content * x, content * y) for r, (x, y) in column(lead, rows).items()}
        snapshot = dict(v)
        mine, textbook = linalg._eliminate(v, pivot, lead), rank_oracle._reduced(v, pivot, lead)
        assert v == snapshot, trial
        assert list(mine) == list(textbook), trial
        if textbook:
            (x, y), (a, b) = textbook[min(textbook)], mine[min(textbook)]
            c = a // x if x else b // y
            assert c > 0 and all(mine[r] == (c * x, c * y) for r, (x, y) in textbook.items()), trial
            seen["content kept" if c > 1 else "content 1"] += 1
        p, (ha, hb) = pivot[lead][0], v[lead]
        seen["p/g is 1" if p == gcd(p, ha, hb) else "p/g above 1"] += 1
        seen["complex multiplier" if hb else "real multiplier"] += 1
        seen["v with content" if content > 1 else "v as drawn"] += 1
    assert min(seen.values()) > 20 and len(seen) == 8, seen


def test_pivots_of_the_engines_own_rank_calls_match_the_reference(monkeypatch, all_cases,
                                                                   structures):
    # catalog rows in a random coframe, ranked by full_table: the dense regime,
    # where a step's result often has a content above gcd(p, h), which the
    # textbook step divides out and exact_rank keeps until the new pivot.
    # Every call's pivots, fresh and resumed, are the reference's, key for key
    rng = random.Random(19)
    ids = [[case.id for case in all_cases if structures[case.id].n == n] for n in (3, 4)]
    rows = rng.sample(ids[0], 3) + rng.sample(ids[1], 1)
    calls, kept, step_gcd = Counter(), Counter(), [0]
    reduced, content_free = rank_oracle._reduced, rank_oracle._content_free

    def step(v, pivot, lead):
        step_gcd[0] = gcd(pivot[lead][0], *v[lead])
        try:
            return reduced(v, pivot, lead)
        finally:
            step_gcd[0] = 0

    def measured(raw):
        if step_gcd[0]:
            kept[gcd(*(part for e in raw.values() for part in e)) > step_gcd[0]] += 1
        return content_free(raw)

    def checked(rows, columns, pivots=None):
        mine = {} if pivots is None else pivots
        theirs = dict(mine)
        calls["resumed" if mine else "fresh"] += 1
        rank = exact_rank(rows, columns, mine)
        assert reference_rank(rows, [dict(v) for v in columns], theirs) == rank
        assert _ordered(mine) == _ordered(theirs)
        return rank

    monkeypatch.setattr(rank_oracle, "_reduced", step)
    monkeypatch.setattr(rank_oracle, "_content_free", measured)
    monkeypatch.setattr(co, "exact_rank", checked)
    for case_id in rows:
        co.full_table(_in_a_random_coframe(rng, structures[case_id]))
    assert calls["fresh"] and calls["resumed"], calls
    assert kept[True] > 0, kept
