"""Exact cohomology of the invariant bigraded complex.

:func:`full_table` is the entry point: it returns every dimension of one
structure as a :class:`CohomologyTable`, read off one table of ranks.
Matrices are column-sparse: column ``j`` is the image of the ``j``-th source
monomial.  The engine builds no differential of its own: it reads the
structure's ``matrix(k)``, ``L * d`` on total degree k (see
:mod:`nilcohom.model`), whose rows and columns follow the basis of that
degree given by :func:`nilcohom.algebra.degree_basis`: its (p,q) slots by
ascending p, each in the fixed lexicographic order of
:func:`nilcohom.algebra.basis`; where each slot starts and how large it
is depends on n alone, and is worked out once per n.  d on a (p,q) slot is
the column slice at that slot; as ``d`` of a (p,q)-form has only (p,q+1) and
(p+1,q) parts on an integrable structure, and the (p,q+1) rows come first,
del and delbar are read off that slice's one elimination, never cut out of
it: the pivots led in the (p+1,q) rows have no delbar part, so the other
pivots carry a basis of im delbar in their first rows, and their remaining
rows, resumed from the (p+1,q)-led pivots, span im del.  One loop takes
every rank a dimension needs with the single exact rank routine of
:mod:`nilcohom.linalg`, resuming its eliminations where they share a
target.  Every vector is a bare column, in the row numbering of its degree:
slices, row filters and images (``matrix.apply``) go to ``exact_rank`` as
lists of columns, never wrapped in a matrix (see :func:`_ranks`).

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
:class:`CohomologyTable` grid and lists its rank terms.  It is compiled once
per n, with the Betti formula, into a plan of cells, a base dimension plus
signed rank keys, and :func:`full_table` fills every grid by adding up the
plan's cells; a rank the table lacks is that of a map with no source or
target, and is left out of the plan.  No dimension is a quotient basis.

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
from functools import cache
from math import comb

from .algebra import basis_dimension
from .linalg import exact_rank
from .model import ComplexStructure


# ---------------------------------------------------------------------------
# the differentials and their ranks
# ---------------------------------------------------------------------------

def _slots(n: int, k: int) -> range:
    """The p of every (p, k-p) slot of total degree k, ascending."""
    return range(max(0, k - n), min(n, k) + 1)


@cache
def _layout(n: int) -> dict:
    """The first row and the dimension of the (p,q) slot in the basis of total
    degree p+q, whose slots go by ascending p; p and q run to n + 1, one past
    the square, where slots are empty."""
    edge = range(n + 2)
    return {(p, q): (sum(basis_dimension(n, s, p + q - s) for s in range(p)),
                     basis_dimension(n, p, q))
            for p in edge for q in edge}


def _ranks(cs: ComplexStructure) -> dict:
    """The rank of every matrix a dimension needs, one elimination per slot.

    Keys are ``(kind, p, q)`` over the square, with ``dd`` only for q < n
    (its target is empty at q = n), and ``("total", k)`` for the total
    complex in each degree k = 0 .. 2n.  ``d[k]`` is the structure's
    ``matrix(k)``, and every vector stays in the row numbering of its
    degree: nothing is cut out or renumbered.  Per (p,q):

    * ``stack``: d on the slot, the column slice of ``d[p+q]`` at (p,q).  Its
      rows of (p,q+1) come before those of (p+1,q), and each pivot is led by
      its lowest row, so the pivots led in the (p+1,q) rows have no delbar
      part and span del(ker delbar); the others, led in (p,q+1), are d of a
      complement of ker delbar, and their delbar parts (rows before (p+1,q))
      are a basis of im delbar: their count is ``rank delbar(p,q)``;
    * ``del``: the del parts of those (p,q+1)-led pivots, resumed from a copy
      of the (p+1,q)-led ones, as im del = del(ker delbar) + del of the
      complement; the resumed pivots span im del(p,q);
    * ``dd``: ``d[p+q+1]`` applied to the delbar basis, whose delbar^2 part
      is 0, so it is the image of del delbar;
    * ``concat``: the pivots of im del(p-1,q), resumed with the delbar basis
      of (p,q-1).

    ``total(k)`` resumes from the first slot's stack pivots with the other
    slots' stack pivots, which span their images.  A matrix with no nonzero
    column is not eliminated: its rank is 0, or the count of the pivots it
    would resume from.  del has no target at p = n, so ``del(n,q)`` and
    ``dd(n,q)`` are 0.
    """
    n, span = cs.n, range(cs.n + 1)
    d, layout = [cs.matrix(k) for k in range(2 * n + 1)], _layout(n)

    def rank(rows, columns, pivots=None):  # no elimination without a nonzero column
        if not any(columns):
            return len(pivots or ())
        return exact_rank(rows, columns, pivots)

    ranks, stacks, images = {}, {}, {}
    for q in span:
        below = {}  # pivots spanning im del(p-1,q), in the (p,q) rows
        for p in span:
            k, (lo, size) = p + q, layout[p, q]
            # im del + im delbar landing in (p,q)
            ranks["concat", p, q] = rank(d[k].cols, images.get((p, q - 1), ()), below)
            # ker d = ker del /\ ker delbar at (p,q): the parts land in distinct slots
            stacks[p, q] = pivots = {}
            ranks["stack", p, q] = rank(d[k].rows, d[k].columns[lo:lo + size], pivots)
            cut = layout[p + 1, q][0]  # the first (p+1,q) row
            led = [v for lead, v in pivots.items() if lead < cut]
            images[p, q] = image = [{r: e for r, e in v.items() if r < cut} for v in led]
            ranks["delbar", p, q] = len(image)
            below = {lead: v for lead, v in pivots.items() if lead >= cut}
            ranks["del", p, q] = rank(d[k].rows, [{r: e for r, e in v.items() if r >= cut}
                                                  for v in led], below)
            if q < n:  # del delbar: 0 at p = n, where del has no target
                ranks["dd", p, q] = rank(d[k + 1].rows, d[k + 1].apply(image)) if p < n else 0
    for k in range(2 * n + 1):
        first, *rest = (stacks[p, k - p] for p in _slots(n, k))
        ranks["total", k] = rank(d[k].rows, [v for pivots in rest for v in pivots.values()], first)
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


@cache
def _plan(n: int) -> tuple:
    """:data:`THEORIES` and the Betti formula compiled for dimension ``n``.

    Returns ``(grids, betti)``: ``grids[grid_name][p][q]`` and ``betti[k]``
    are cells ``(base, ((sign, key), ...))``, standing for ``base`` plus the
    signed ranks of the keys, where ``base`` is ``unit * dim(p,q)`` or
    ``C(2n, k)``.  A key the rank table does not hold, the rank of a map with
    no source or target, is dropped here.
    """
    span = range(n + 1)

    def held(kind, *index):  # the keys of _ranks: dd only for q < n
        top = {"total": (2 * n,), "dd": (n, n - 1)}.get(kind, (n, n))
        return all(0 <= i <= t for i, t in zip(index, top))

    def cell(base, terms):
        return base, tuple((sign, key) for sign, key in terms if held(*key))

    grids = {
        grid_name: [[cell(unit * basis_dimension(n, p, q),
                          ((sign, (kind, p + dp, q + dq)) for sign, kind, dp, dq in terms))
                     for q in span] for p in span]
        for _, grid_name, unit, terms in THEORIES
    }
    # the (p,q) blocks of total degree k together have dimension C(2n, k)
    betti = [cell(comb(2 * n, k), ((-1, ("total", k)), (-1, ("total", k - 1))))
             for k in range(2 * n + 1)]
    return grids, betti


def full_table(cs: ComplexStructure) -> CohomologyTable:
    """Every cohomological dimension of ``cs``, from one table of ranks."""
    ranks, (grids, betti) = _ranks(cs), _plan(cs.n)

    def fill(cells):
        values = []
        for value, terms in cells:
            for sign, key in terms:
                value += sign * ranks[key]
            values.append(value)
        return values

    return CohomologyTable(n=cs.n, betti=fill(betti),
                           **{name: [fill(row) for row in rows] for name, rows in grids.items()})


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
