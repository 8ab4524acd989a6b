"""The three workloads: seeded op lists, the timed op, and its check.

An op always starts from text (structure template, binding, and plain
numbers for a Hermitian form) and builds every engine object itself, so no
op can reuse a structure, engine or table made by another op.  The engine is
reached only through module attributes (``nc.cohomology.full_table``), which
is where the traced run installs its wrappers.

Expectations come from ``golden.txt`` in this directory, a copy of the
catalog's golden rows kept with the benchmark, and from identities that the
engine does not enforce by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import coframe

GOLDEN = Path(__file__).with_name("golden.txt")

# Bott-Chern column order of the golden records, by complex dimension.
COLUMNS = {
    3: [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1),
        (1, 2), (0, 3), (3, 1), (2, 2), (1, 3), (3, 2), (2, 3)],
    4: [(1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1),
        (2, 2), (4, 1), (3, 2), (4, 2), (3, 3), (4, 3)],
}

# Random positive forms per structure in metric_sweep, besides the standard one.
RANDOM_FORMS = 3


@dataclass(frozen=True)
class Row:
    """One golden catalog record, as text plus expected numbers."""

    id: str
    template: str
    binding: str
    bc: tuple
    betti: tuple
    delta: tuple
    skt: bool

    @property
    def n(self) -> int:
        return len(self.betti)


def load_rows() -> list[Row]:
    rows = []
    for raw in GOLDEN.read_text("ascii").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        case_id, _, template, binding, _, bc, betti, delta, skt = (
            f.strip() for f in raw.split("|"))
        rows.append(Row(case_id, template, binding,
                        tuple(int(x) for x in bc.split()),
                        tuple(int(x) for x in betti.split()),
                        tuple(int(x) for x in delta.split()),
                        skt == "1"))
    return rows


@dataclass(frozen=True)
class Op:
    """One unit of timed work.  ``form`` is None for the standard metric,
    else ``(diag, upper)`` of plain Fractions for ``hermitian_form``."""

    id: str
    n: int
    template: str
    binding: str
    row: Row
    form: tuple | None = None


# ---------------------------------------------------------------------------
# checks, all run outside the timed op
# ---------------------------------------------------------------------------

def table_problems(table, row: Row) -> list[str]:
    """Golden numbers of ``row`` plus identities the engine does not force."""
    n = row.n
    problems = []
    bc = tuple(table.h_bc[p][q] for p, q in COLUMNS[n])
    if bc != row.bc:
        problems.append(f"bott-chern {bc} != golden {row.bc}")
    if tuple(table.betti[1:n + 1]) != row.betti:
        problems.append(f"betti {table.betti[1:n + 1]} != golden {row.betti}")
    if tuple(table.delta[1:n + 1]) != row.delta:
        problems.append(f"delta {table.delta[1:n + 1]} != golden {row.delta}")
    for p in range(n + 1):
        for q in range(n + 1):
            if table.h_bc[p][q] != table.h_aeppli[n - p][n - q]:
                problems.append(f"h_bc[{p}][{q}] != h_a[{n - p}][{n - q}]")
    for k in range(2 * n + 1):
        if table.delta[k] != table.delta[2 * n - k] or table.delta[k] < 0:
            problems.append(f"delta[{k}] breaks symmetry or sign")
        if table.betti[k] != table.betti[2 * n - k]:
            problems.append(f"betti[{k}] breaks Poincare duality")
    return problems


def _hermitian_minors_positive(diag, upper) -> bool:
    """Sylvester's criterion in the benchmark's own arithmetic."""
    n = len(diag)
    h = [[coframe.ZERO] * n for _ in range(n)]
    for j, d in enumerate(diag):
        h[j][j] = (d, Fraction(0))
    for (j, k), v in upper.items():
        h[j - 1][k - 1] = v
        h[k - 1][j - 1] = coframe.gconj(v)
    for size in range(1, n + 1):
        minor = _det([row[:size] for row in h[:size]])
        if minor[1] != 0 or minor[0] <= 0:
            return False
    return True


def _det(m):
    if len(m) == 1:
        return m[0][0]
    total = coframe.ZERO
    for col, head in enumerate(m[0]):
        sub = [row[:col] + row[col + 1:] for row in m[1:]]
        term = coframe.gmul(head, _det(sub))
        total = coframe.gsub(total, term) if col % 2 else coframe.gadd(total, term)
    return total


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CatalogGolden:
    """``catalog --golden``: every golden row, parse to SKT verdict."""

    name = "catalog_golden"
    tail_pct = 90

    def ops(self, nc, rows, seed):
        ops = [Op(r.id, r.n, r.template, r.binding, r) for r in rows]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, nc, op):
        cs = nc.model.instantiate(nc.parser.parse_complex_structure(op.template),
                                  nc.parser.parse_binding(op.binding))
        table = nc.cohomology.full_table(cs)
        skt = nc.metrics.is_pluriclosed(cs, nc.metrics.standard_form(cs.n))
        return table, skt

    def check(self, op, result):
        table, skt = result
        problems = table_problems(table, op.row)
        if skt != op.row.skt:
            problems.append(f"skt {skt} != golden {op.row.skt}")
        return problems


class DenseCoframe:
    """Every 6d row rewritten in a seeded general (1,0)-coframe."""

    name = "dense_coframe"
    tail_pct = 80

    def ops(self, nc, rows, seed):
        rng = random.Random(seed)
        ops = [
            Op(f"{r.id}@{seed}", r.n, coframe.generate(nc, r.template, r.binding, rng), "", r)
            for r in rows if r.n == 3
        ]
        rng.shuffle(ops)
        return ops

    def run(self, nc, op):
        cs = nc.model.instantiate(nc.parser.parse_complex_structure(op.template),
                                  nc.parser.parse_binding(op.binding))
        return nc.cohomology.full_table(cs)

    def check(self, op, result):
        # the standard form's SKT flag is not coframe-invariant: not checked
        return table_problems(result, op.row)


class MetricSweep:
    """``skt --metric random``: every 6d row against several positive forms."""

    name = "metric_sweep"
    tail_pct = 99

    def ops(self, nc, rows, seed):
        ops = []
        for k, r in enumerate(rows):
            if r.n != 3:
                continue
            ops.append(Op(f"{r.id}/std", r.n, r.template, r.binding, r))
            forms = nc.metrics.random_positive_forms(r.n, RANDOM_FORMS, seed * 1000 + k)
            for j, h in enumerate(forms):
                diag = tuple(h.entries[i][i].re for i in range(r.n))
                upper = {(a + 1, b + 1): (h.entries[a][b].re, h.entries[a][b].im)
                         for a in range(r.n) for b in range(a + 1, r.n)}
                if not _hermitian_minors_positive(diag, upper):
                    raise AssertionError(f"{r.id}: drawn form {j} is not positive")
                ops.append(Op(f"{r.id}/h{j}", r.n, r.template, r.binding, r, (diag, upper)))
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, nc, op):
        m = nc.metrics
        cs = nc.model.instantiate(nc.parser.parse_complex_structure(op.template),
                                  nc.parser.parse_binding(op.binding))
        if op.form is None:
            h = m.standard_form(op.n)
        else:
            diag, upper = op.form
            gauss = nc.algebra.Gaussian.of
            h = m.hermitian_form(list(diag), {jk: gauss(*v) for jk, v in upper.items()})
        return m.is_positive(h), m.is_pluriclosed(cs, h), m.is_balanced(cs, h)

    def check(self, op, result):
        positive, pluriclosed, _ = result
        problems = []
        if not positive:
            problems.append("a positive form was reported not positive")
        if pluriclosed != op.row.skt:
            problems.append(f"pluriclosed {pluriclosed} != golden skt {op.row.skt}")
        return problems


WORKLOADS = {w.name: w for w in (CatalogGolden(), DenseCoframe(), MetricSweep())}
