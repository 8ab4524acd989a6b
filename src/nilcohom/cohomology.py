"""Exact cohomology of the invariant bigraded complex.

:func:`full_table` is the entry point: it returns every dimension of one
structure as a :class:`CohomologyTable`, read off one list of ranks.
Matrices are column-sparse: column ``j`` is the image of the ``j``-th source
monomial.  The engine builds no differential of its own: it reads the
structure's ``matrix(k)``, ``L * d`` on total degree k (see
:mod:`nilcohom.model`), whose rows and columns follow the basis of that
degree given by :func:`nilcohom.algebra.degree_basis`: its (p,q) slots by
ascending p, each in the fixed lexicographic order of
:func:`nilcohom.algebra.basis`; which slots a degree has, where each starts
and how large a degree is depend on n alone, and only
:func:`nilcohom.algebra.slots` and :func:`nilcohom.algebra.slot_start`
compute them.  d on a (p,q) slot is the column slice at that slot; as ``d``
of a (p,q)-form has only (p,q+1) and (p+1,q) parts on an integrable
structure, and the (p,q+1) rows come first, del and delbar are read off
that slice's one elimination, never cut out of it: the pivots led in the
(p+1,q) rows have no delbar part, so the other pivots carry a basis of im
delbar in their rows before the cut (the first (p+1,q) row), and their
remaining rows, resumed from the (p+1,q)-led pivots, span im del.

Everything that depends on n alone is compiled once per n.  :func:`_steps`
turns the (p,q) loop into a list of steps, each holding its degree, its
column slice, its cut and the row count of each of its eliminations, and
names the slot of a flat rank list that each of its ranks fills.  One loop
(:func:`_rank_list`) runs those steps with the single exact rank routine of
:mod:`nilcohom.linalg`, resuming its eliminations where they share a target.
Every vector is a bare column, in the row numbering of its degree: slices,
pivot parts and images (``matrix.apply``) go to ``exact_rank`` as lists of
columns, never wrapped in a matrix.  The concat elimination resumes in the
source space of its degree's matrix, so its row count is that matrix's
column count (see :func:`_rank_list`).

Entries are Gaussian-integer pairs ``(x, y)``, meaning ``x + y*i``: every
matrix of a structure is ``L`` times the true one, where ``L`` is the lcm of
the denominators of the structure constants.  ``L`` is one per structure,
not per matrix or column, so that products stay true up to one factor:
del applied to delbar's columns is ``L**2`` times del delbar, and a degree
matrix applied to the columns of the one before is ``L**2`` times ``d**2``.
No rank depends on ``L``.

Every pointwise dimension is ``dim(p,q)`` (or nothing) plus signed ranks of
five matrix kinds: ``del``, ``delbar``, ``dd`` (del delbar), ``stack`` (d on
the (p,q) slot, whose kernel is ker del /\\ ker delbar, as the two parts land
in distinct slots) and ``concat`` (del and delbar side by side, whose image
is im del + im delbar).  :data:`THEORIES` is the one table of these
formulas: each row names a theory for output, names its
:class:`CohomologyTable` grid and lists its rank terms.  :func:`_cells` is
the one compile of it: once per n, with the Betti formula and delta, straight
onto the slots of the rank list, as cells of a base dimension plus signed
rank slots.  A rank key that :func:`_steps` does not emit is that of a map
with no source or target, and is left out of its cell.  :func:`full_table`
fills every field, delta included, by adding up cells.  No dimension is a
quotient basis.

Conventions, for a structure of complex dimension ``n``:

* ``del`` is the (p+1, q) component of ``d``, ``delbar`` the (p, q+1) one;
* Dolbeault dimensions come from the delbar ranks and the del-cohomology ones
  from the del ranks, so ``h_dolbeault[p][q] == h_del[q][p]`` (conjugation)
  is a check, not a definition;
* the de Rham/Betti numbers come from the total complex, d in each degree,
  not from the table;
* ``delta[k]`` is the Bott-Chern and Aeppli dimensions in total degree k
  minus twice the Betti number, compiled into one cell of ranks.  It
  vanishes in every degree exactly on structures satisfying the del-delbar
  lemma, and obeys ``delta[k] == delta[2n-k]``.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .algebra import basis, slot_start, slots
from .linalg import exact_rank
from .model import ComplexStructure


# ---------------------------------------------------------------------------
# the differentials and their ranks
# ---------------------------------------------------------------------------

# the ranks of one (p,q) step, in the order they take in the rank list; dd
# only for q < n, where del delbar has a target
_KINDS = ("concat", "stack", "delbar", "del", "dd")


@cache
def _steps(n: int) -> tuple:
    """The loop of :func:`_rank_list` compiled for dimension ``n``.

    Returns ``(steps, totals, keys)``.  ``steps`` holds one tuple ``(p, k,
    lo, hi, cut, source, rows, dd)`` per (p,q), q outer and p inner: the
    slot's total degree k, its column slice ``lo:hi`` in ``d[k]``, its cut
    (the first (p+1,q) row, in the row numbering of degree k+1), these three
    slot starts read from :func:`~nilcohom.algebra.slot_start`, and the row
    count of each elimination: ``source``, the size of the degree-k basis,
    for concat, whose vectors live in degree k, the source space of ``d[k]``;
    ``rows``, of degree k+1, for stack and del; and ``dd``, of degree k+2,
    or 0 at p = n, where del delbar has no target and its rank is 0, or
    ``None`` at q = n, where it has no rank.  ``totals`` holds one tuple
    ``(rows, first, *rest)`` per degree k: the row count of degree k+1 and
    the steps of its slots, by ascending p.  ``keys[i]`` is the key of slot
    ``i`` of the rank list: each step's ranks in ``_KINDS`` order, then
    ``("total", k)`` for every k.
    """
    dim = [slot_start(n, n, k, k + 1) for k in range(2 * n + 3)]  # degree-k basis size, 0 past 2n
    span, steps, keys = range(n + 1), [], []
    for q in span:
        for p in span:
            k = p + q
            dd = None if q == n else dim[k + 2] if p < n else 0
            # the slot ends where (p+1, q-1) starts, and is cut where (p+1, q) starts
            steps.append((p, k, slot_start(n, n, k, p), slot_start(n, n, k, p + 1),
                          slot_start(n, n, k + 1, p + 1), dim[k], dim[k + 1], dd))
            keys += [(kind, p, q) for kind in _KINDS[:4 if dd is None else 5]]
    # (p,q) is step q(n+1) + p
    totals = [(dim[k + 1], *((k - p) * (n + 1) + p for p in slots(n, n, k)))
              for k in range(2 * n + 1)]
    return steps, totals, keys + [("total", k) for k in range(2 * n + 1)]


def _rank_list(cs: ComplexStructure) -> list:
    """The rank of every matrix a dimension needs, one elimination per slot,
    in the slots of :func:`_steps`.

    ``d[k]`` is the structure's ``matrix(k)``, and every vector stays in the
    row numbering of its degree: nothing is cut out or renumbered.  Per step
    (p,q):

    * ``concat``: the pivots of im del(p-1,q), resumed with the delbar basis
      of (p,q-1).  Both lie in degree k = p+q, the source space of ``d[k]``,
      so the elimination has ``d[k].cols`` rows (the step's ``source``), not
      ``d[k].rows``: the early exit at a full rank would stop it short;
    * ``stack``: d on the slot, the column slice of ``d[k]`` at (p,q).  Its
      rows of (p,q+1) come before those of (p+1,q), and each pivot is led by
      its lowest row, so the pivots led at or past the cut have no delbar
      part and span del(ker delbar); the others, led in (p,q+1), are d of a
      complement of ker delbar;
    * ``delbar``: one pass over each of those (p,q+1)-led pivots splits it at
      the cut.  Its delbar parts, the rows before the cut, are a basis of im
      delbar: their count is the rank;
    * ``del``: its del parts, the rows from the cut on, resumed from the
      (p+1,q)-led pivots, as im del = del(ker delbar) + del of the
      complement; the resumed pivots span im del(p,q) and start the concat of
      (p+1,q);
    * ``dd``: ``d[k+1]`` applied to the delbar basis, whose delbar^2 part is
      0, so it is the image of del delbar.

    ``total(k)`` resumes from the first slot's stack pivots with the other
    slots' stack pivots, which span their images.  ``exact_rank`` is looked
    up on every call, and a matrix with no nonzero column is not eliminated:
    its rank is 0, or the count of the pivots it would resume from.
    """
    steps, totals, _ = _steps(cs.n)
    d = [cs.matrix(k) for k in range(2 * cs.n + 1)]
    # images[p] is the delbar basis of (p,q-1), and below the pivots spanning
    # im del(p-1,q): none at p = 0, as the cut at p = n is past every row
    ranks, stacks, images, below = [], [], [[]] * (cs.n + 1), {}
    for p, k, lo, hi, cut, source, rows, dd in steps:
        image = images[p]  # concat: im del + im delbar landing in (p,q)
        ranks.append(exact_rank(source, image, below) if any(image) else len(below))
        pivots, columns = {}, d[k].columns[lo:hi]  # stack: d on the slot
        ranks.append(exact_rank(rows, columns, pivots) if any(columns) else 0)
        stacks.append(pivots)
        images[p] = image = []  # delbar and del: one pass over each pivot
        parts, below = [], {}
        for lead, v in pivots.items():
            if lead < cut:
                head, tail = {}, {}
                for r, e in v.items():
                    (head if r < cut else tail)[r] = e
                image.append(head)
                parts.append(tail)
            else:
                below[lead] = v
        ranks.append(len(image))
        ranks.append(exact_rank(rows, parts, below) if any(parts) else len(below))
        if dd is not None:  # del delbar
            product = d[k + 1].apply(image) if dd else ()
            ranks.append(exact_rank(dd, product) if any(product) else 0)
    for rows, first, *rest in totals:
        spans = [v for i in rest for v in stacks[i].values()]
        ranks.append(exact_rank(rows, spans, stacks[first]) if any(spans) else len(stacks[first]))
    return ranks


def _ranks(cs: ComplexStructure) -> dict:
    """The ranks of :func:`_rank_list`, each under its key in the step list:
    ``(kind, p, q)`` over the square, with ``dd`` only for q < n, and
    ``("total", k)`` for the total complex in each degree k = 0 .. 2n."""
    return dict(zip(_steps(cs.n)[2], _rank_list(cs), strict=True))


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


class CohomologyTable(NamedTuple):
    """Every cohomological dimension of one instantiated structure.

    Grids are (n+1) x (n+1) nested lists indexed ``grid[p][q]``; ``betti`` and
    ``delta`` run over total degrees 0 .. 2n.
    """

    n: int
    h_dolbeault: list
    h_del: list
    h_bc: list
    h_aeppli: list
    a_dim: list
    f_dim: list
    betti: list
    delta: list

    def level(self, grid_name: str, k: int) -> int:
        grid = getattr(self, grid_name)
        return sum(grid[p][k - p] for p in slots(self.n, self.n, k))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    def as_dict(self) -> dict:
        # the cohomology groups are nested under "hodge", a and f stay top level
        grids = {name: getattr(self, grid_name) for name, grid_name, _, _ in THEORIES}
        hodge = {name: grids.pop(name) for name, _, unit, _ in THEORIES if unit}
        return {"n": self.n, "hodge": hodge, **grids, "betti": self.betti, "delta": self.delta}


@cache
def _cells(n: int) -> tuple:
    """:data:`THEORIES`, the Betti formula and delta compiled for dimension
    ``n`` onto the slots of the rank list.

    Returns ``(grids, betti, delta)``: ``grids[grid_name][p][q]``,
    ``betti[k]`` and ``delta[k]`` are cells ``(base, ((coefficient, slot),
    ...))``, standing for ``base`` plus each coefficient times the rank in
    its slot, where ``base`` is ``unit * dim(p,q)`` or ``C(2n, k)``, the size
    of the (p,q) slot or of degree k.  A key that :func:`_steps` does not
    emit, the rank of a map with no source or target, is dropped here.  ``delta[k]`` is the Bott-Chern and Aeppli cells
    of degree k minus twice the Betti cell.
    """
    span, slot = range(n + 1), {key: i for i, key in enumerate(_steps(n)[2])}

    def cell(base, terms):
        return base, tuple((sign, slot[key]) for sign, key in terms if key in slot)

    grids = {grid_name: [[cell(unit * len(basis(n, p, q)),
                               ((sign, (kind, p + dp, q + dq)) for sign, kind, dp, dq in terms))
                          for q in span] for p in span] for _, grid_name, unit, terms in THEORIES}
    betti = [cell(slot_start(n, n, k, k + 1), ((-1, ("total", k)), (-1, ("total", k - 1))))
             for k in range(2 * n + 1)]
    delta = []
    for k, (base, terms) in enumerate(betti):  # Bott-Chern and Aeppli, less twice Betti
        parts = [grids[name][p][k - p] for name in ("h_bc", "h_aeppli") for p in slots(n, n, k)]
        parts.append((-2 * base, tuple((-2 * s, i) for s, i in terms)))
        delta.append((sum(b for b, _ in parts), tuple(t for _, ts in parts for t in ts)))
    return grids, betti, delta


def full_table(cs: ComplexStructure) -> CohomologyTable:
    """Every cohomological dimension of ``cs``, from one list of ranks."""
    ranks, (grids, betti, delta) = _rank_list(cs), _cells(cs.n)

    def fill(cells):
        values = []
        for value, terms in cells:
            for coefficient, i in terms:
                value += coefficient * ranks[i]
            values.append(value)
        return values

    return CohomologyTable(n=cs.n, betti=fill(betti), delta=fill(delta),
                           **{name: [fill(row) for row in rows] for name, rows in grids.items()})


class LemmaVerdict(NamedTuple):
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
    return not any(any(cs.matrix(k + 1).apply(cs.matrix(k).columns)) for k in range(2 * cs.n - 1))


__all__ = [
    "THEORIES",
    "CohomologyTable",
    "LemmaVerdict",
    "ddbar_lemma_status",
    "differential_identities_ok",
    "full_table",
]
