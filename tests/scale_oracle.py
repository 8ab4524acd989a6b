"""Test-side reference for the engine's matrices: Gaussian grids from ``cs.d``.

Every matrix here is a dense grid of :class:`Gaussian` entries (a list of
rows), built by applying the structure's ``d`` to each source monomial and
reading the coefficient of each target monomial, with rows and columns in
``basis`` order.  It reads no column of the engine's, no slot offset and no
scale factor, so an engine matrix that is not ``L`` times its grid, for the
one factor ``L`` of the structure, shows as a difference.
"""

from math import lcm

from nilcohom.algebra import Form, Gaussian, ZERO, basis

from rank_oracle import oracle_rank


def structure_scale(cs) -> int:
    """The lcm of the denominators of the structure constants in ``cs.d_omega``."""
    return lcm(*(c.den for f in cs.d_omega for c in f.terms.values()))


def _grid(cs, sources, targets):
    images = [cs.d(Form.single(e)) for e in sources]
    return [[image.coefficient(t) for image in images] for t in targets]


def _degree_basis(n, k):
    """The monomials of total degree k, slot by slot by ascending p."""
    return [e for p in range(n + 1) if 0 <= k - p <= n for e in basis(n, p, k - p)]


def reference_matrices(cs) -> dict:
    """``del``, ``delbar`` and ``d`` at every (p,q) of the square, and ``total``
    in every degree, keyed as in the engine.  Border blocks are left out."""
    n, span = cs.n, range(cs.n + 1)
    grids = {}
    for p in span:
        for q in span:
            source = basis(n, p, q)
            grids["del", p, q] = _grid(cs, source, basis(n, p + 1, q) if p < n else [])
            grids["delbar", p, q] = _grid(cs, source, basis(n, p, q + 1) if q < n else [])
            grids["d", p, q] = _grid(cs, source, _degree_basis(n, p + q + 1))
    for k in range(2 * n + 1):
        grids["total", k] = _grid(cs, _degree_basis(n, k), _degree_basis(n, k + 1))
    return grids


def grid_product(a, b):
    """The product of two Gaussian grids, in Gaussian arithmetic."""
    return [[sum((x * b[k][j] for k, x in enumerate(row) if x), ZERO)
             for j in range(len(b[0]) if b else 0)] for row in a]


def scaled(grid, factor: int):
    factor = Gaussian.of(factor)
    return [[x * factor if x else x for x in row] for row in grid]


def reference_ranks(cs) -> dict:
    """Every rank the engine's table reads, taken by the naive oracle from the grids."""
    n, grids = cs.n, reference_matrices(cs)
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
