"""Exact cohomology of the invariant bigraded complex.

:func:`full_table` is the entry point: it returns every dimension of one
structure as a :class:`CohomologyTable`, read off one table of ranks.
Matrices are column-sparse: column ``j`` is the image of the ``j``-th source
monomial, and rows and columns are indexed by the fixed lexicographic basis
order of :func:`nilcohom.algebra.basis`.  One builder applies ``d`` once to
every basis monomial and keeps the image whole and split into its del and
delbar parts (``d`` of a (p,q)-form has only (p+1,q) and (p,q+1) parts on an
integrable structure); one loop then ranks each matrix a dimension needs,
once, with the single exact rank routine of :mod:`nilcohom.linalg`.

Entries are Gaussian-integer pairs ``(x, y)``, meaning ``x + y*i``: every
matrix of a structure is ``L`` times the true one, where ``L`` is the lcm of
the denominators of the structure constants.  A basis monomial has
coefficient 1, so each term of its ``d`` carries exactly one constant or its
conjugate, and ``L * d`` is integral.  ``L`` is one per structure, not per
matrix or column, so that products stay true up to one factor:
``del @ delbar`` is ``L**2`` times del delbar, and a product of consecutive
total matrices is ``L**2`` times ``d**2``.  No rank depends on ``L``.

Every pointwise dimension is ``dim(p,q)`` (or nothing) plus signed ranks of
five matrix kinds: ``del``, ``delbar``, ``dd`` (del delbar), ``stack`` (d on
the (p,q) slot, whose kernel is ker del /\\ ker delbar, as the two parts land
in distinct slots) and ``concat`` (del and delbar side by side, whose image
is im del + im delbar).  :data:`THEORIES` is the one table of these
formulas: each row names a theory for output, names its
:class:`CohomologyTable` grid and lists its rank terms, and
:func:`full_table` fills every grid from it; a rank the table lacks is that
of a map with no source or target, and counts as 0.  No dimension is a
quotient basis.

Conventions, for a structure of complex dimension ``n``:

* ``del`` is the (p+1, q) component of ``d``, ``delbar`` the (p, q+1) one;
* Dolbeault dimensions come from the delbar ranks and the del-cohomology ones
  from the del ranks, so ``h_dolbeault[p][q] == h_del[q][p]`` (conjugation)
  is a check, not a definition;
* the de Rham/Betti numbers come from the total complex, whose d in each
  degree is that degree's d blocks side by side, not from the table;
* ``delta[k]`` is read off the finished table: the Bott-Chern and Aeppli
  dimensions in total degree k minus twice the Betti number.  It vanishes in
  every degree exactly on structures satisfying the del-delbar lemma, and
  obeys ``delta[k] == delta[2n-k]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import comb, lcm

from .algebra import Form, basis, basis_dimension
from .linalg import ExactMatrix, exact_rank, hstack
from .model import ComplexStructure


# ---------------------------------------------------------------------------
# the differentials and their ranks
# ---------------------------------------------------------------------------

def _slots(n: int, k: int) -> range:
    """The p of every (p, k-p) slot of total degree k, ascending."""
    return range(max(0, k - n), min(n, k) + 1)


def _differentials(cs: ComplexStructure) -> dict:
    """d, del and delbar at every (p,q) of the square, and d on every total degree,
    each scaled by the structure's one integral factor ``L``.

    ``d`` is applied once to each basis monomial.  Its image is one column of
    ``("d", p, q)``, whose rows are the basis of degree p+q+1 (its slots by
    ascending p, each in ``basis`` order), and of ``("del", p, q)`` and
    ``("delbar", p, q)`` on their own slots.  ``("total", k)`` is the d
    blocks of degree k side by side.  The border sources del(-1,q) and
    delbar(p,-1) have no columns, but the row count of their target, so that
    ``concat`` can put them side by side.
    """
    n, span = cs.n, range(cs.n + 1)
    # a monomial's row in its slot, and a slot's first row in its total degree
    index = {e: i for p in span for q in span for i, e in enumerate(basis(n, p, q))}
    start = {(p, q): sum(basis_dimension(n, s, p + q - s) for s in range(p))
             for p in span for q in span}
    scale = lcm(*(c.den for f in cs.d_omega for c in f.terms.values()))
    mats = {}
    for p in span:
        for q in span:
            del_start, delbar_start = start.get((p + 1, q)), start.get((p, q + 1))
            d_cols, del_cols, delbar_cols = [], [], []
            for elem in basis(n, p, q):
                d_col, del_col, delbar_col = {}, {}, {}
                for e, c in cs.d(Form.single(elem)).terms.items():
                    i, m = index[e], scale // c.den
                    c = (c.x * m, c.y * m)
                    if len(e.holo) > p:
                        del_col[i] = d_col[del_start + i] = c
                    else:
                        delbar_col[i] = d_col[delbar_start + i] = c
                d_cols.append(d_col)
                del_cols.append(del_col)
                delbar_cols.append(delbar_col)
            cols = len(d_cols)
            mats["d", p, q] = ExactMatrix(comb(2 * n, p + q + 1), cols, d_cols)
            mats["del", p, q] = ExactMatrix(basis_dimension(n, p + 1, q), cols, del_cols)
            mats["delbar", p, q] = ExactMatrix(basis_dimension(n, p, q + 1), cols, delbar_cols)
    for k in span:
        mats["del", -1, k] = ExactMatrix(basis_dimension(n, 0, k), 0)
        mats["delbar", k, -1] = ExactMatrix(basis_dimension(n, k, 0), 0)
    for k in range(2 * n + 1):
        mats["total", k] = reduce(hstack, [mats["d", p, k - p] for p in _slots(n, k)])
    return mats


def _ranks(cs: ComplexStructure) -> dict:
    """The rank of every matrix a dimension needs, each ranked once.

    Keys are ``(kind, p, q)`` over the square, with ``dd`` only for q < n
    (its target is empty at q = n), and ``("total", k)`` for the total
    complex in each degree k = 0 .. 2n.
    """
    n = cs.n
    diff = _differentials(cs)
    ranks = {}
    for p in range(n + 1):
        for q in range(n + 1):
            ranks["del", p, q] = exact_rank(diff["del", p, q])
            ranks["delbar", p, q] = exact_rank(diff["delbar", p, q])
            # ker d = ker del /\ ker delbar at (p,q): the parts land in distinct slots
            ranks["stack", p, q] = exact_rank(diff["d", p, q])
            # im del + im delbar landing in (p,q)
            ranks["concat", p, q] = exact_rank(hstack(diff["del", p - 1, q],
                                                      diff["delbar", p, q - 1]))
            if q < n:
                ranks["dd", p, q] = exact_rank(diff["del", p, q + 1] @ diff["delbar", p, q])
    for k in range(2 * n + 1):
        ranks["total", k] = exact_rank(diff["total", k])
    return ranks


# ---------------------------------------------------------------------------
# the formula table
# ---------------------------------------------------------------------------

# One row per theory: its output name, its CohomologyTable field, the
# coefficient of dim(p,q) and the signed rank terms (sign, kind, dp, dq), each
# standing for sign * rank(kind, p + dp, q + dq).  The rows with coefficient 1
# are cohomology groups (kernel minus image); the a- and f-dimensions compare
# images and kernels, so they are made of ranks alone.  Rows are in output order.
THEORIES = (
    # ker[del; delbar] / im(del delbar)
    ("bott_chern", "h_bc", 1, ((-1, "stack", 0, 0), (-1, "dd", -1, -1))),
    # ker(del delbar) / (im del + im delbar)
    ("aeppli", "h_aeppli", 1, ((-1, "dd", 0, 0), (-1, "concat", 0, 0))),
    ("dolbeault", "h_dolbeault", 1, ((-1, "delbar", 0, 0), (-1, "delbar", 0, -1))),
    ("del", "h_del", 1, ((-1, "del", 0, 0), (-1, "del", -1, 0))),
    # dim(im del /\ im delbar) - dim im(del delbar), all landing in (p,q)
    ("a", "a_dim", 0, ((1, "del", -1, 0), (1, "delbar", 0, -1),
                       (-1, "concat", 0, 0), (-1, "dd", -1, -1))),
    # dim ker(del delbar) - dim(ker del + ker delbar), all at (p,q)
    ("f", "f_dim", 0, ((1, "del", 0, 0), (1, "delbar", 0, 0),
                       (-1, "stack", 0, 0), (-1, "dd", 0, 0))),
)


@dataclass
class CohomologyTable:
    """Every cohomological dimension of one instantiated structure.

    Grids are (n+1) x (n+1) nested lists indexed ``grid[p][q]``; ``betti`` and
    ``delta`` run over total degrees 0 .. 2n.  ``delta`` is not passed in: it
    is read off the Bott-Chern, Aeppli and Betti values by its definition.
    """

    n: int
    h_dolbeault: list
    h_del: list
    h_bc: list
    h_aeppli: list
    a_dim: list
    f_dim: list
    betti: list
    delta: list = field(init=False)

    def __post_init__(self):
        self.delta = [self.level("h_bc", k) + self.level("h_aeppli", k) - 2 * b
                      for k, b in enumerate(self.betti)]

    def level(self, grid_name: str, k: int) -> int:
        grid = getattr(self, grid_name)
        return sum(grid[p][k - p] for p in _slots(self.n, k))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    def as_dict(self) -> dict:
        # the cohomology groups are nested under "hodge", a and f stay top level
        grids = {name: getattr(self, grid_name) for name, grid_name, _, _ in THEORIES}
        hodge = {name: grids.pop(name) for name, _, unit, _ in THEORIES if unit}
        return {"n": self.n, "hodge": hodge, **grids, "betti": self.betti, "delta": self.delta}


def full_table(cs: ComplexStructure) -> CohomologyTable:
    """Every cohomological dimension of ``cs``, from one table of ranks."""
    n, ranks = cs.n, _ranks(cs)
    span = range(n + 1)
    grids = {
        grid_name: [[unit * basis_dimension(n, p, q)
                     + sum(sign * ranks.get((kind, p + dp, q + dq), 0)
                           for sign, kind, dp, dq in terms)
                     for q in span] for p in span]
        for _, grid_name, unit, terms in THEORIES
    }
    # the (p,q) blocks of total degree k together have dimension C(2n, k)
    betti = [comb(2 * n, k) - ranks["total", k] - ranks.get(("total", k - 1), 0)
             for k in range(2 * n + 1)]
    return CohomologyTable(n=n, betti=betti, **grids)


@dataclass
class LemmaVerdict:
    """Outcome of the del-delbar lemma test on a cohomology table."""

    satisfied: bool
    witness: int | None

    @property
    def verdict(self) -> str:
        return "SATISFIED" if self.satisfied else f"FAILS at k={self.witness}"

    def as_dict(self) -> dict:
        return {
            "verdict": "SATISFIED" if self.satisfied else "FAILS",
            "witness": self.witness,
        }


def ddbar_lemma_status(table: CohomologyTable) -> LemmaVerdict:
    """SATISFIED iff delta vanishes in every degree; else the first degree where not.

    On a compact complex manifold the del-delbar lemma holds exactly when
    ``delta[k] == 0`` for every k (Angella and Tomassini, Invent. Math. 192
    (2013)).
    """
    witness = next((k for k, d in enumerate(table.delta) if d), None)
    return LemmaVerdict(satisfied=witness is None, witness=witness)


def differential_identities_ok(cs: ComplexStructure) -> bool:
    """del^2 = 0, delbar^2 = 0 and del delbar = -delbar del as matrices.

    On a (p,q) column, ``d^2`` puts del^2 in block (p+2,q), delbar^2 in
    (p,q+2) and del delbar + delbar del in (p+1,q+1): distinct blocks, so each
    product of consecutive total matrices is zero iff all three parts are.
    """
    diff = _differentials(cs)
    return all((diff["total", k + 1] @ diff["total", k]).is_zero() for k in range(2 * cs.n - 1))


__all__ = [
    "THEORIES",
    "CohomologyTable",
    "LemmaVerdict",
    "ddbar_lemma_status",
    "differential_identities_ok",
    "full_table",
]
