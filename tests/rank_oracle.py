"""Test-side reference for ranks: dense grids, a naive oracle and a reference elimination.

A grid is a list of rows of :class:`Gaussian` entries.  The oracle works on
the grid itself, never on an :class:`ExactMatrix`, so it shares no code with
the matrix type or the rank routine under test.  :func:`reference_rank` takes
the rank routine's own arguments (a row count, columns as dicts ``{row: (x,
y)}`` and an optional pivot dict to resume from) and computes its pivots by
the textbook step, with no shortcut and no code of ``nilcohom.linalg``.
"""

from math import gcd, lcm

from nilcohom.algebra import Gaussian, ZERO
from nilcohom.linalg import ExactMatrix


def matrix_from_grid(grid) -> ExactMatrix:
    """The column-sparse matrix with the given rows, times the lcm of their denominators."""
    cols = len(grid[0]) if grid else 0
    scale = lcm(*(e.den for row in grid for e in row))
    return ExactMatrix(len(grid), cols, [
        {i: (row[j].x * (scale // row[j].den), row[j].y * (scale // row[j].den))
         for i, row in enumerate(grid) if row[j]} for j in range(cols)
    ])


def grid_of(matrix: ExactMatrix):
    """The dense rows of a matrix as Gaussians, zeros filled in."""
    return [[Gaussian.of(*matrix.columns[j][i]) if i in matrix.columns[j] else ZERO
             for j in range(matrix.cols)]
            for i in range(matrix.rows)]


def oracle_rank(grid) -> int:
    """Naive Gauss-Jordan elimination over Q(i), written independently."""
    rows = [row[:] for row in grid]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    used = [False] * n_rows
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(n_rows):
            if not used[r] and rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        inv_entries = [e / rows[pivot][col] for e in rows[pivot]]
        for r in range(n_rows):
            if r == pivot or not rows[r][col]:
                continue
            factor = rows[r][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], inv_entries)]
    return rank


def reference_rank(rows, columns, pivots=None) -> int:
    """Fraction-free elimination over the Gaussian integers, the textbook way.

    While a column's lowest row ``r`` leads a stored pivot P, the column
    becomes ``P[r]*v - v[r]*P``, divided by the integer gcd of its entries.
    A column left nonzero is multiplied by the conjugate of its lead, divided
    by that gcd and stored in ``pivots``, keyed by ``r``.  Entries stay in
    the order they arise: the column's rows, then the pivot's new ones.  Every
    column is reduced, even once each row leads a pivot (it then reduces to 0).
    """
    pivots = {} if pivots is None else pivots
    for v in columns:
        while v:
            lead = min(v)
            if lead not in pivots:
                pivots[lead] = _new_pivot(v, lead)
                break
            v = _reduced(v, pivots[lead], lead)
    return len(pivots)


def _new_pivot(v, lead):
    a, b = v[lead]
    return _content_free({r: _times((a, -b), e) for r, e in v.items()})


def _reduced(v, pivot, lead):
    p, h, zero = pivot[lead], v[lead], (0, 0)
    out = {}
    for r in list(v) + [r for r in pivot if r not in v]:
        (x, y), (u, w) = _times(p, v.get(r, zero)), _times(h, pivot.get(r, zero))
        if (x - u, y - w) != zero:
            out[r] = (x - u, y - w)
    return _content_free(out)


def _times(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _content_free(v):
    g = gcd(*(part for e in v.values() for part in e))
    return {r: (x // g, y // g) for r, (x, y) in v.items()}
