"""Test-side reference for ranks: dense grids and a naive oracle.

A grid is a list of rows of :class:`Gaussian` entries.  The oracle works on
the grid itself, never on an :class:`ExactMatrix`, so it shares no code with
the matrix type or the rank routine under test.
"""

from math import lcm

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
