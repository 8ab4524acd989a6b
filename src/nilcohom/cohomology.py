"""Exact cohomology of the invariant bigraded complex.

:func:`full_table` is the entry point: it returns every dimension of one
structure as a :class:`CohomologyTable`, read off one table of ranks.
Matrices are column-sparse: column ``j`` is the image of the ``j``-th source
monomial.  The engine builds no differential of its own: it reads the
structure's ``matrix(k)``, ``L * d`` on total degree k (see
:mod:`nilcohom.model`), whose rows and columns follow the basis of that
degree given by :func:`nilcohom.algebra.degree_basis`: its (p,q) slots by
ascending p, each in the fixed lexicographic order of
:func:`nilcohom.algebra.basis`.  Every other block is a view of it: d on a
(p,q) slot is the column slice at that slot, and as ``d`` of a (p,q)-form
has only (p+1,q) and (p,q+1) parts on an integrable structure, del and
delbar are that slice cut to the rows of one target slot.  One loop then
takes every rank a dimension needs with the single exact rank routine of
:mod:`nilcohom.linalg`, resuming its eliminations where they share a target.
It eliminates ``d`` on each slot, ``dd`` on a delbar basis, ``concat`` and
the total complex; the ``delbar`` ranks are read off the pivot leads of
``d`` and the ``del`` ranks off the first half of each ``concat`` (see
:func:`_ranks`).

Entries are Gaussian-integer pairs ``(x, y)``, meaning ``x + y*i``: every
matrix of a structure is ``L`` times the true one, where ``L`` is the lcm of
the denominators of the structure constants.  ``L`` is one per structure,
not per matrix or column, so that products stay true up to one factor:
``del @ delbar`` is ``L**2`` times del delbar, and a product of consecutive
degree matrices is ``L**2`` times ``d**2``.  No rank depends on ``L``.

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
* the de Rham/Betti numbers come from the total complex, d in each degree,
  not from the table;
* ``delta[k]`` is read off the finished table: the Bott-Chern and Aeppli
  dimensions in total degree k minus twice the Betti number.  It vanishes in
  every degree exactly on structures satisfying the del-delbar lemma, and
  obeys ``delta[k] == delta[2n-k]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .algebra import basis_dimension
from .linalg import ExactMatrix, exact_rank
from .model import ComplexStructure


# ---------------------------------------------------------------------------
# the differentials and their ranks
# ---------------------------------------------------------------------------

def _slots(n: int, k: int) -> range:
    """The p of every (p, k-p) slot of total degree k, ascending."""
    return range(max(0, k - n), min(n, k) + 1)


def _starts(n: int) -> dict:
    """The first row of the (p,q) slot in the basis of total degree p+q, whose
    slots go by ascending p; p and q run to n + 1, one past the square."""
    edge = range(n + 2)
    return {(p, q): sum(basis_dimension(n, s, p + q - s) for s in range(p))
            for p in edge for q in edge}


def _cut(columns: list, lo: int, rows: int) -> ExactMatrix:
    """The rows lo .. lo+rows-1 of ``columns``, renumbered from 0."""
    hi = lo + rows
    return ExactMatrix(rows, len(columns),
                       [{r - lo: e for r, e in v.items() if lo <= r < hi} for v in columns])


def _ranks(cs: ComplexStructure) -> dict:
    """The rank of every matrix a dimension needs, by resumed eliminations.

    Keys are ``(kind, p, q)`` over the square, with ``dd`` only for q < n
    (its target is empty at q = n), and ``("total", k)`` for the total
    complex in each degree k = 0 .. 2n.  Every block is a view of ``d``, where
    ``d[k]`` is the structure's ``matrix(k)``: ``stack(p,q)`` is the column
    slice of ``d[p+q]`` at the (p,q) slot, and
    ``del(p,q)`` is that slice cut to the (p+1,q) rows.  Per (p,q) the
    eliminations are:

    * ``stack``: its rows of (p,q+1) come before those of (p+1,q), so its
      pivots led in (p,q+1), cut to that slot, are a basis of im delbar(p,q):
      their count is ``rank delbar(p,q)``;
    * ``dd``: del(p,q+1) on that basis, which has the image of del delbar;
    * ``concat``: the columns of del(p-1,q), whose pivot count is
      ``rank del(p-1,q)``, resumed with the delbar basis of (p,q-1).

    ``total(k)`` resumes from the first slot's stack pivots with the other
    slots' stack pivots, which span their images.  ``del(n,q)`` has no
    target and rank 0.
    """
    n, span = cs.n, range(cs.n + 1)
    d, start = [cs.matrix(k) for k in range(2 * n + 1)], _starts(n)

    def slot(p, q):  # the columns of d[p+q] at the (p,q) slot
        lo = start[p, q]
        return d[p + q].columns[lo:lo + basis_dimension(n, p, q)]

    def del_of(p, q):  # those columns cut to the (p+1,q) rows
        return _cut(slot(p, q), start[p + 1, q], basis_dimension(n, p + 1, q))

    ranks, stacks, images = {}, {}, {}
    for p in span:
        for q in span:
            # ker d = ker del /\ ker delbar at (p,q): the parts land in distinct slots
            stacks[p, q] = pivots = {}
            columns = slot(p, q)
            stack = ExactMatrix(d[p + q].rows, len(columns), columns)
            ranks["stack", p, q] = exact_rank(stack, pivots)
            # its pivots led in the (p,q+1) rows, cut to them: a basis of im delbar
            bar, cut = start[p, q + 1], start[p + 1, q]
            images[p, q] = _cut([v for lead, v in pivots.items() if lead < cut], bar, cut - bar)
            ranks["delbar", p, q] = images[p, q].cols
            if q < n:
                ranks["dd", p, q] = exact_rank(del_of(p, q + 1) @ images[p, q])
            # im del + im delbar landing in (p,q)
            pivots = {}
            if p:
                ranks["del", p - 1, q] = exact_rank(del_of(p - 1, q), pivots)
            ranks["concat", p, q] = exact_rank(images[p, q - 1], pivots) if q else len(pivots)
    ranks.update({("del", n, q): 0 for q in span})
    for k in range(2 * n + 1):
        first, *rest = (stacks[p, k - p] for p in _slots(n, k))
        columns = [v for pivots in rest for v in pivots.values()]
        others = ExactMatrix(comb(2 * n, k + 1), len(columns), columns)
        ranks["total", k] = exact_rank(others, first)
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
    product of consecutive degree matrices is zero iff all three parts are.
    """
    return all((cs.matrix(k + 1) @ cs.matrix(k)).is_zero() for k in range(2 * cs.n - 1))


__all__ = [
    "THEORIES",
    "CohomologyTable",
    "LemmaVerdict",
    "ddbar_lemma_status",
    "differential_identities_ok",
    "full_table",
]
