"""Exact cohomology of the invariant bigraded complex.

:func:`full_table` is the entry point: it returns every dimension of one
structure as a :class:`CohomologyTable`, computed by one ``_Engine`` that
builds each differential matrix and each rank once.  Matrices are
column-sparse: column ``j`` is the image of the ``j``-th source monomial, and
rows and columns are indexed by the fixed lexicographic basis order of
:func:`nilcohom.algebra.basis`.  The engine applies ``d`` once to every basis
monomial and splits the image into the del and delbar columns (``d`` of a
(p,q)-form has only (p+1,q) and (p,q+1) parts on an integrable structure);
del delbar is their product.  Its ranks come from the single exact rank
routine of :mod:`nilcohom.linalg`.

Every pointwise dimension is ``dim(p,q)`` (or nothing) plus signed ranks of
five matrix kinds: ``del``, ``delbar``, ``dd`` (del delbar), ``stack`` (del
over delbar, whose kernel is ker del /\\ ker delbar) and ``concat`` (del and
delbar side by side, whose image is im del + im delbar).  :data:`THEORIES` is
the one table of these formulas: each row names a theory for output, names
its :class:`CohomologyTable` grid and lists its rank terms, and
:func:`full_table` fills every grid from it.  No dimension is a quotient basis.

Conventions, for a structure of complex dimension ``n``:

* ``del`` is the (p+1, q) component of ``d``, ``delbar`` the (p, q+1) one;
* Dolbeault dimensions come from the delbar ranks and the del-cohomology ones
  from the del ranks, so ``h_dolbeault[p][q] == h_del[q][p]`` (conjugation)
  is a check, not a definition;
* the de Rham/Betti numbers come from the total complex with ``d = del+delbar``,
  not from the table;
* ``delta[k]`` is read off the finished table: the Bott-Chern and Aeppli
  dimensions in total degree k minus twice the Betti number.  It vanishes in
  every degree exactly on structures satisfying the del-delbar lemma, and
  obeys ``delta[k] == delta[2n-k]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Form, basis, basis_dimension
from .linalg import ExactMatrix, exact_rank, hstack, vstack
from .model import ComplexStructure


# ---------------------------------------------------------------------------
# cached per-structure engine
# ---------------------------------------------------------------------------

class _Engine:
    """Caches component matrices and their ranks for one structure."""

    def __init__(self, cs: ComplexStructure):
        self.cs = cs
        self.n = cs.n
        self._slots: dict = {}
        self._matrices: dict = {}
        self._ranks: dict = {}

    def dim(self, p: int, q: int) -> int:
        return basis_dimension(self.n, p, q)

    def matrix(self, kind: str, p: int, q: int) -> ExactMatrix:
        key = (kind, p, q)
        if key not in self._matrices:
            if kind == "dd":
                self._matrices[key] = self.matrix("del", p, q + 1) @ self.matrix("delbar", p, q)
            else:
                self._build(p, q)
        return self._matrices[key]

    def _slot(self, p: int, q: int):
        """The (p,q) basis monomials and their positions, built once per slot.

        Outside the valid square the slot is empty.
        """
        slot = self._slots.get((p, q))
        if slot is None:
            elements = basis(self.n, p, q) if self.dim(p, q) else []
            slot = self._slots[(p, q)] = (elements, {e: i for i, e in enumerate(elements)})
        return slot

    def _build(self, p: int, q: int):
        """del and delbar at (p,q), from one ``d`` per source monomial.

        Outside the valid square the source is empty, so the matrices have
        no columns but keep the row count of their target.
        """
        del_index = self._slot(p + 1, q)[1]
        delbar_index = self._slot(p, q + 1)[1]
        del_cols, delbar_cols = [], []
        for elem in self._slot(p, q)[0]:
            del_col, delbar_col = {}, {}
            for e, c in self.cs.d(Form.single(elem)).terms.items():
                if len(e.holo) > p:
                    del_col[del_index[e]] = c
                else:
                    delbar_col[delbar_index[e]] = c
            del_cols.append(del_col)
            delbar_cols.append(delbar_col)
        self._matrices[("del", p, q)] = ExactMatrix(self.dim(p + 1, q), len(del_cols), del_cols)
        self._matrices[("delbar", p, q)] = ExactMatrix(
            self.dim(p, q + 1), len(delbar_cols), delbar_cols
        )

    def rank(self, kind: str, p: int, q: int) -> int:
        key = (kind, p, q)
        if key not in self._ranks:
            if kind in ("del", "delbar", "dd"):
                m = self.matrix(kind, p, q)
            elif kind == "stack":
                # ker del /\ ker delbar at (p,q): the targets are distinct slots
                m = vstack(self.matrix("del", p, q), self.matrix("delbar", p, q))
            elif kind == "concat":
                # im del + im delbar landing in (p,q)
                m = hstack(self.matrix("del", p - 1, q), self.matrix("delbar", p, q - 1))
            else:
                raise KeyError(kind)
            self._ranks[key] = exact_rank(m)
        return self._ranks[key]

    # -- total complex ----------------------------------------------------------

    def _blocks(self, k: int):
        return [(p, k - p) for p in range(min(self.n, k), max(0, k - self.n) - 1, -1)]

    def total_matrix(self, k: int) -> ExactMatrix:
        # the target blocks of k+1 stacked in order; a source column of block
        # (p,q) is its del column at the offset of (p+1,q) merged with its
        # delbar column at the offset of (p,q+1)
        row_offset, rows = {}, 0
        for blk in self._blocks(k + 1):
            row_offset[blk] = rows
            rows += self.dim(*blk)
        columns = []
        for p, q in self._blocks(k):
            del_at = row_offset.get((p + 1, q), 0)
            delbar_at = row_offset.get((p, q + 1), 0)
            for del_col, delbar_col in zip(self.matrix("del", p, q).columns,
                                           self.matrix("delbar", p, q).columns):
                col = {del_at + i: c for i, c in del_col.items()}
                col.update((delbar_at + i, c) for i, c in delbar_col.items())
                columns.append(col)
        return ExactMatrix(rows, len(columns), columns)

    def total_rank(self, k: int) -> int:
        key = ("total", k)
        if key not in self._ranks:
            if not 0 <= k <= 2 * self.n:
                self._ranks[key] = 0
            else:
                self._ranks[key] = exact_rank(self.total_matrix(k))
        return self._ranks[key]

    def total_dim(self, k: int) -> int:
        return sum(self.dim(p, q) for p, q in self._blocks(k))

    def betti(self, k: int) -> int:
        if not 0 <= k <= 2 * self.n:
            return 0
        return self.total_dim(k) - self.total_rank(k) - self.total_rank(k - 1)


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
        return sum(
            grid[p][k - p]
            for p in range(max(0, k - self.n), min(self.n, k) + 1)
        )

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * b for k, b in enumerate(self.betti))

    def as_dict(self) -> dict:
        # the cohomology groups are nested under "hodge", a and f stay top level
        grids = {name: getattr(self, grid_name) for name, grid_name, _, _ in THEORIES}
        hodge = {name: grids.pop(name) for name, _, unit, _ in THEORIES if unit}
        return {"n": self.n, "hodge": hodge, **grids, "betti": self.betti, "delta": self.delta}


def full_table(cs: ComplexStructure) -> CohomologyTable:
    """Every cohomological dimension of ``cs``, from one engine."""
    eng = _Engine(cs)
    span = range(cs.n + 1)
    grids = {
        grid_name: [[unit * eng.dim(p, q) + sum(sign * eng.rank(kind, p + dp, q + dq)
                                                for sign, kind, dp, dq in terms)
                     for q in span] for p in span]
        for _, grid_name, unit, terms in THEORIES
    }
    return CohomologyTable(n=cs.n, betti=[eng.betti(k) for k in range(2 * cs.n + 1)], **grids)


@dataclass
class LemmaVerdict:
    """Outcome of the del-delbar lemma test on a cohomology table."""

    satisfied: bool
    witness: int | None
    parity_sufficient: bool
    parity_branch: str | None

    @property
    def verdict(self) -> str:
        return "SATISFIED" if self.satisfied else f"FAILS at k={self.witness}"

    def as_dict(self) -> dict:
        return {
            "verdict": "SATISFIED" if self.satisfied else "FAILS",
            "witness": self.witness,
            "parity_sufficient": self.parity_sufficient,
            "parity_branch": self.parity_branch,
        }


def ddbar_lemma_status(table: CohomologyTable) -> LemmaVerdict:
    """SATISFIED iff delta vanishes in every degree; report the parity test too.

    The parity-restricted sufficient condition holds when delta vanishes in
    all degrees of one parity class (that of n, or the complementary one) and
    the a-spaces vanish in all total degrees of the complementary parity
    (odd degrees for the first branch, even for the second).
    """
    n = table.n
    witness = next((k for k, d in enumerate(table.delta) if d), None)
    degrees = range(2 * n + 1)
    a_levels = [table.level("a_dim", k) for k in degrees]
    branch_same = all(
        table.delta[k] == 0 for k in degrees if k % 2 == n % 2
    ) and all(a_levels[k] == 0 for k in degrees if k % 2 == 1)
    branch_other = all(
        table.delta[k] == 0 for k in degrees if k % 2 == (n - 1) % 2
    ) and all(a_levels[k] == 0 for k in degrees if k % 2 == 0)
    branch = "same-parity" if branch_same else "complementary-parity" if branch_other else None
    return LemmaVerdict(
        satisfied=witness is None,
        witness=witness,
        parity_sufficient=branch_same or branch_other,
        parity_branch=branch,
    )


def differential_identities_ok(cs: ComplexStructure) -> bool:
    """del^2 = 0, delbar^2 = 0 and del delbar = -delbar del as matrices.

    On a (p,q) column, ``d^2`` puts del^2 in block (p+2,q), delbar^2 in
    (p,q+2) and del delbar + delbar del in (p+1,q+1): distinct blocks, so each
    product of consecutive total matrices is zero iff all three parts are.
    """
    eng = _Engine(cs)
    return all((eng.total_matrix(k + 1) @ eng.total_matrix(k)).is_zero()
               for k in range(2 * cs.n - 1))


__all__ = [
    "THEORIES",
    "CohomologyTable",
    "LemmaVerdict",
    "ddbar_lemma_status",
    "differential_identities_ok",
    "full_table",
]
