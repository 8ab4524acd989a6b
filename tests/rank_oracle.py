"""Test-side reference for ranks: dense grids and a naive oracle.

A grid is a list of rows of :class:`Gaussian` entries.  The oracle works on
the grid itself, never on an :class:`ExactMatrix`, so it shares no code with
the matrix type or the rank routine under test.
"""

from nilcohom.algebra import ZERO
from nilcohom.linalg import ExactMatrix


def matrix_from_grid(grid) -> ExactMatrix:
    """The column-sparse matrix with the given rows."""
    cols = len(grid[0]) if grid else 0
    return ExactMatrix(len(grid), cols, [
        {i: row[j] for i, row in enumerate(grid) if row[j]} for j in range(cols)
    ])


def grid_of(matrix: ExactMatrix):
    """The dense rows of a matrix, zeros filled in."""
    return [[matrix.columns[j].get(i, ZERO) for j in range(matrix.cols)]
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
