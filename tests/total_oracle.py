"""Test-side reference for the stack and total matrices: glued from del and delbar.

This is how the engine once built them, from the slot-local del and delbar
matrices alone: ``stack`` as del over delbar, and the total matrix of each
degree by shifting every del and delbar column to the first row of its
target slot.  It reads no ``d`` block and no slot offset of the engine's, so
a misplaced or dropped part of an undivided ``d`` column shows as a
difference.
"""

from nilcohom.algebra import basis_dimension
from nilcohom.linalg import ExactMatrix, vstack


def oracle_stack(diff: dict, p: int, q: int) -> ExactMatrix:
    """d on the (p,q) slot as del over delbar; its kernel is ker del /\\ ker delbar."""
    return vstack(diff["del", p, q], diff["delbar", p, q])


def oracle_total(diff: dict, n: int, k: int) -> ExactMatrix:
    """d from total degree k to k+1, by the offset merge of del and delbar.

    Target block (p, k+1-p) starts at row ``start[p]``, so a source column of
    block (p, k-p) is its del column shifted to ``start[p+1]`` merged with its
    delbar column shifted to ``start[p]``.
    """
    start = [0]
    for p in range(n + 1):
        start.append(start[-1] + basis_dimension(n, p, k + 1 - p))
    columns = []
    for p in range(max(0, k - n), min(n, k) + 1):
        for del_col, delbar_col in zip(diff["del", p, k - p].columns,
                                       diff["delbar", p, k - p].columns):
            col = {start[p + 1] + i: c for i, c in del_col.items()}
            col.update((start[p] + i, c) for i, c in delbar_col.items())
            columns.append(col)
    return ExactMatrix(start[-1], len(columns), columns)
