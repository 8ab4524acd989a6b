"""Test-side reference for the engine's matrices: Gaussian grids from the oracle's ``d``.

Every matrix here is a dense grid of :class:`Gaussian` entries (a list of
rows), built by applying the tuple-slicing Leibniz rule of
:mod:`d_oracle` once to each basis monomial and reading the coefficient of
each target monomial, with rows and columns in ``basis`` order.  It reads
no column of the engine's, no slot offset and no scale factor, and not the
structure's ``d``, which combines the engine's columns: an engine matrix
that is not ``L`` times its grid, for the one factor ``L`` of the
structure, shows as a difference.  :func:`d_block` cuts one bidegree block
out of the engine's ``d`` at offsets counted here.
"""

from math import comb, lcm

from nilcohom.algebra import Form, Gaussian, ZERO, basis
from nilcohom.linalg import ExactMatrix

from d_oracle import oracle_cs_d
from rank_oracle import oracle_rank


def structure_scale(cs) -> int:
    """The lcm of the denominators of the structure constants in ``cs.d_omega``."""
    return lcm(*(c.den for f in cs.d_omega for c in f.terms.values()))


def _grid(images, sources, targets):
    """Rows ``targets``, columns ``sources``, read off the images of the sources."""
    return [[images[e].coefficient(t) for e in sources] for t in targets]


def degree_monomials(n, k):
    """The monomials of total degree k, slot by slot by ascending p."""
    return [e for p in range(n + 1) if 0 <= k - p <= n for e in basis(n, p, k - p)]


def d_block(d: list, n: int, source: tuple, target: tuple) -> ExactMatrix:
    """The block of the engine's ``d`` from slot ``source`` to slot ``target``.

    The degree bases run slot by slot by ascending p, so the offset of slot
    (p, q) is the dimension of the slots before it, summed here from
    binomials, not from the package's sizes.  The rows are renumbered from 0.
    """
    def size(p, q):
        return comb(n, p) * comb(n, q)  # 0 past n, as comb is

    def offset(p, q):
        return sum(size(s, p + q - s) for s in range(p))

    (p, q), (tp, tq) = source, target
    first, rows = offset(tp, tq), size(tp, tq)
    left = offset(p, q)
    columns = d[p + q].columns[left:left + size(p, q)]
    return ExactMatrix(rows, len(columns), [
        {r - first: e for r, e in col.items() if first <= r < first + rows} for col in columns])


def reference_matrices(cs) -> dict:
    """``del``, ``delbar`` and ``d`` at every (p,q) of the square, keyed
    ``(kind, p, q)``, and ``total`` in every degree k, keyed ``("total", k)``:
    d from the degree-k basis to the degree-(k+1) one, both slot by slot by
    ascending p.  Border blocks are left out."""
    n, span = cs.n, range(cs.n + 1)
    # the oracle's d of every basis monomial, once
    images = {e: oracle_cs_d(cs, Form.single(e))
              for k in range(2 * n + 1) for e in degree_monomials(n, k)}
    grids = {}
    for p in span:
        for q in span:
            source = basis(n, p, q)
            grids["del", p, q] = _grid(images, source, basis(n, p + 1, q) if p < n else [])
            grids["delbar", p, q] = _grid(images, source, basis(n, p, q + 1) if q < n else [])
            grids["d", p, q] = _grid(images, source, degree_monomials(n, p + q + 1))
    for k in range(2 * n + 1):
        grids["total", k] = _grid(images, degree_monomials(n, k), degree_monomials(n, k + 1))
    return grids


def grid_product(a, b):
    """The product of two Gaussian grids, in Gaussian arithmetic."""
    columns = [[(k, y) for k, y in enumerate(column) if y] for column in zip(*b)]
    return [[sum((row[k] * y for k, y in column if row[k]), ZERO) for column in columns]
            for row in a]


def scaled(grid, factor: int):
    factor = Gaussian.of(factor)
    return [[x * factor if x else x for x in row] for row in grid]


def reference_ranks(cs, grids=None) -> dict:
    """Every rank the engine's table reads, taken by the naive oracle from the
    grids (``reference_matrices(cs)`` unless given)."""
    n = cs.n
    grids = reference_matrices(cs) if grids is None else grids
    span = range(n + 1)
    ranks = {("total", k): oracle_rank(grids["total", k]) for k in range(2 * n + 1)}
    for p in span:
        for q in span:
            ranks["del", p, q] = oracle_rank(grids["del", p, q])
            ranks["delbar", p, q] = oracle_rank(grids["delbar", p, q])
            ranks["stack", p, q] = oracle_rank(grids["d", p, q])
            # columns of del(p-1,q) and delbar(p,q-1), both landing in (p,q)
            into = [grids[kind, p - dp, q - dq] for kind, dp, dq in
                    (("del", 1, 0), ("delbar", 0, 1)) if p - dp >= 0 and q - dq >= 0]
            ranks["concat", p, q] = oracle_rank(
                [sum(rows, []) for rows in zip(*into)] if into else [])
            if q < n:
                ranks["dd", p, q] = oracle_rank(
                    grid_product(grids["del", p, q + 1], grids["delbar", p, q]))
    return ranks
