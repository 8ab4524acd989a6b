import random
from fractions import Fraction

import pytest

from nilcohom import catalog as cat, cohomology as co
from nilcohom.algebra import Gaussian, ZERO
from nilcohom.linalg import ExactMatrix, exact_rank, hstack, vstack
from rank_oracle import grid_of, matrix_from_grid, oracle_rank
from scale_oracle import structure_scale


def G(re, im=0):
    return Gaussian.of(Fraction(re), Fraction(im))


def grid(rows):
    return [[G(*e) if isinstance(e, tuple) else G(e) for e in row] for row in rows]


def mat(rows):
    return matrix_from_grid(grid(rows))


def test_rank_trivial():
    assert exact_rank(ExactMatrix(4, 6)) == 0
    assert exact_rank(mat([[1 if i == j else 0 for j in range(5)] for i in range(5)])) == 5
    assert exact_rank(ExactMatrix(0, 3)) == 0
    assert exact_rank(ExactMatrix(3, 0)) == 0


def test_rank_rectangular_with_fractions():
    m = mat([["1/2", 1, 0], [1, 2, 0], [0, 0, "1/3"]])
    assert exact_rank(m) == 2


def test_rank_complex_dependence():
    # second row is i times the first
    m = mat([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]])
    assert exact_rank(m) == 1


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
    m = mat([[1, (0, 1)], [(2, -1), "1/2"]])
    identity = mat([[1, 0], [0, 1]])
    assert identity @ m == m
    assert m @ identity == m
    # e.g. the (1,1) entry is (2-i)*i + 1/2*1/2 = 5/4+2i
    assert m @ m == mat([
        [(2, 2), (0, "3/2")],
        [(3, "-3/2"), ("5/4", 2)],
    ])
    assert (m @ ExactMatrix(2, 3)).is_zero()
    # an exact cancellation leaves no stored zero behind
    assert mat([[1, -1]]) @ mat([[1], [1]]) == ExactMatrix(1, 1)


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
        assert exact_rank(matrix_from_grid(g)) == oracle_rank(g)


def test_rank_of_every_engine_matrix_of_an_8d_structure(monkeypatch):
    # the engine's own regime: shapes up to 70x56 and 56x70, about 3% dense,
    # from complex rational constants (lambda = 13/5, D = 12/5 i) that the
    # engine scales to Gaussian integers by their lcm; the matrices are the
    # very ones full_table hands to the rank routine
    cs = cat.case_by_id("09d_8D").structure
    assert structure_scale(cs) > 1
    matrices = []

    def captured(m):
        matrices.append(m)
        return exact_rank(m)

    monkeypatch.setattr(co, "exact_rank", captured)
    co.full_table(cs)
    assert max(m.rows for m in matrices) == 70 and max(m.cols for m in matrices) == 70
    assert sum(exact_rank(m) for m in matrices) > 0
    for m in matrices:
        assert exact_rank(m) == oracle_rank(grid_of(m)), m


def test_rank_with_shared_content_and_large_heights():
    # rank-deficient matrices whose columns share a large integer content or
    # are large-height multiples and sums of others, so that every reduction
    # step leaves a common factor for the gcd step to divide out
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
        rank = exact_rank(matrix_from_grid(g))
        assert rank == oracle_rank(g), f"trial {trial}"
        assert rank <= base < len(columns)
