"""Command-line surface for the cohomology engine.

Exit codes: 0 success (all golden rows and curve points match), 1 usage,
parse or unreadable-file error, or a standard output closed before all of it
was written, 2 validation failure (d-square, nilpotency, binding problems), 3
golden or curve-point mismatch.  All input and output is ASCII; random metric
sampling always runs from an explicit or defaulted seed, so every command is
deterministic, and ``--seed`` or ``--count`` without ``skt --metric random``
is a usage error.

Each output format has one writer: ``_md_table`` for Markdown tables,
``_csv_table`` for CSV and ``render_json`` for JSON.  A command builds a header
and rows of cells and hands them over; ``_mark`` writes every pass/FAIL cell.

A command imports the catalog, the cohomology engine and the metrics inside
its own function, and ``render_json`` imports ``json``: a process loads only
what its command runs, so ``figure-data`` and ``check`` never load the
engine's tables or metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import BasisElement
from .model import (
    ComplexStructure,
    ComplexStructureTemplate,
    DifferentialSquareError,
    ModelError,
    NilpotencyError,
    UnknownParameterError,
    check_d_squared,
    check_nilpotency,
    instantiate,
)
from .parser import ParseError, parse_binding, parse_complex_structure, parse_real_algebra

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_GOLDEN = 3

H7_ALGEBRA = "(0,0,0,12,13,23)"
H7_FOOTNOTE = (
    "note: dimensions are those of the invariant (Lie-algebra level) complex; "
    "for the algebra (0,0,0,12,13,23) the identification with the manifold-level "
    "cohomology is guaranteed only for the complex structure listed here."
)


def render_json(payload) -> str:
    """Canonical JSON: reparsing and re-rendering reproduces the text."""
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


def _pairs(values: dict) -> str:
    """One table cell: sorted ``key=value`` pairs, booleans as true/false."""
    return "; ".join(
        f"{key}={str(value).lower() if isinstance(value, bool) else value}"
        for key, value in sorted(values.items())
    )


def _md_table(header, rows) -> list[str]:
    """A Markdown table: the header row, its separator, one line per row."""
    lines = ["| " + " | ".join(str(cell) for cell in row) + " |" for row in [header, *rows]]
    lines.insert(1, "|" + "---|" * len(header))
    return lines


def _csv_table(header, rows) -> list[str]:
    """CSV lines: the header, then one line per row.  Cells are written as
    given, so a cell that holds a comma comes quoted from its caller."""
    return [",".join(str(cell) for cell in row) for row in [header, *rows]]


def _mark(ok: bool) -> str:
    """The cell of one golden row or curve point: pass or FAIL."""
    return "pass" if ok else "FAIL"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="nilcohom",
        description="Exact cohomology tables for nilpotent Lie algebras "
        "with invariant complex structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a structure definition file")
    p_check.add_argument("file")
    p_check.add_argument("--binding", default="", help='e.g. "D=i; lambda=0"')

    p_table = sub.add_parser("table", help="compute the full cohomology table")
    p_table.add_argument("file")
    p_table.add_argument("--binding", default="")
    p_table.add_argument("--format", choices=("md", "csv", "json"), default="md")

    p_cat = sub.add_parser("catalog", help="evaluate catalog cases")
    p_cat.add_argument("--case", dest="case_id")
    p_cat.add_argument("--dim", type=int, choices=(3, 4))
    p_cat.add_argument("--golden", action="store_true",
                       help="diff against the stored golden rows")
    p_cat.add_argument("--format", choices=("md", "csv", "json"), default="md")

    p_skt = sub.add_parser("skt", help="pluriclosed/balanced tests")
    p_skt.add_argument("file", nargs="?")
    p_skt.add_argument("--case", dest="case_id")
    p_skt.add_argument("--binding", default="")
    p_skt.add_argument("--metric", choices=("standard", "random"), default="standard")
    p_skt.add_argument("--seed", type=int)
    p_skt.add_argument("--count", type=int)

    p_curves = sub.add_parser("curves", help="evaluate the deformation curves")
    p_curves.add_argument("--id", dest="curve_id", choices=("A", "B", "C"))
    p_curves.add_argument("--format", choices=("md", "csv", "json"), default="md")

    sub.add_parser("figure-data",
                   help="CSV of the non-Kaehlerianity degrees of the 6d cases")
    return parser


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _read_structure(path: str):
    """The file's complex-structure template or, for text with no w that the
    template parser rejects, its real algebra."""
    text = _read(path)
    try:
        return parse_complex_structure(text)
    except ParseError:
        if "w" in text:
            raise
    return parse_real_algebra(text)


def _load_structure(path: str, binding_text: str) -> ComplexStructure:
    structure, binding = _read_structure(path), parse_binding(binding_text)
    if not isinstance(structure, ComplexStructureTemplate):
        raise ModelError(f"{path} holds a real algebra (dim={structure.dim}), "
                         "not a complex-structure template")
    cs = instantiate(structure, binding)
    if not check_nilpotency(cs):
        raise NilpotencyError("the underlying real algebra is not nilpotent "
                              "(lower central series does not vanish)")
    return cs


def _lookup(find, key):
    """A catalog case or curve by id; an unknown id is a usage error."""
    try:
        return find(key)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _structure_from_args(args) -> ComplexStructure:
    if args.case_id and args.file:
        raise _UsageError("give either a file or --case, not both")
    if args.case_id:
        if args.binding:
            raise _UsageError("--binding applies to a file, not to --case")
        from . import catalog as cat

        return _lookup(cat.case_by_id, args.case_id).structure
    if not args.file:
        raise _UsageError("either a file or --case is required")
    return _load_structure(args.file, args.binding)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> tuple[int, str]:
    structure, lines = _read_structure(args.file), []
    if isinstance(structure, ComplexStructureTemplate):
        lines.append(f"parsed complex-structure template (n={structure.n})")
        lines.append("integrability shape: ok (only (2,0) and (1,1) terms)")
        try:
            structure = instantiate(structure, parse_binding(args.binding))
        except DifferentialSquareError as exc:
            lines.append(str(exc.report))
            return EXIT_VALIDATION, "\n".join(lines)
        except ModelError as exc:
            lines.append(f"binding error: {exc}")
            return EXIT_VALIDATION, "\n".join(lines)
        lines.append("d-square: ok")
        lines.append(f"underlying real algebra: dimension {2 * structure.n}")
    else:
        binding = parse_binding(args.binding)
        lines.append(f"parsed real algebra (dim={structure.dim})")
        if binding:  # a real algebra has no parameters to bind
            lines.append(f"binding error: {UnknownParameterError(binding)}")
            return EXIT_VALIDATION, "\n".join(lines)
        report = check_d_squared(structure)
        if not report.ok:
            lines.append(str(report))
            return EXIT_VALIDATION, "\n".join(lines)
        lines.append("d-square: ok")
    if check_nilpotency(structure):
        lines.append("nilpotency: ok")
    else:
        lines.append("nilpotency: FAILED (lower central series does not vanish)")
        return EXIT_VALIDATION, "\n".join(lines)
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _table_text(table, fmt: str) -> str:
    from . import cohomology as co

    verdict = co.ddbar_lemma_status(table)
    if fmt == "json":
        payload = table.as_dict()
        payload["ddbar_lemma"] = verdict.as_dict()
        return render_json(payload)
    span = range(table.n + 1)
    if fmt == "csv":
        rows = [[name, p, q, getattr(table, grid_name)[p][q]]
                for name, grid_name, _, _ in co.THEORIES for p in span for q in span]
        rows += [["betti", k, "", b] for k, b in enumerate(table.betti)]
        rows += [["delta", k, "", d] for k, d in enumerate(table.delta)]
        rows.append(["ddbar_lemma", "", "", verdict.verdict])
        return "\n".join(_csv_table(["theory", "p", "q", "value"], rows))
    lines = [f"## Cohomology table (n = {table.n})", ""]
    for name, grid_name, _, _ in co.THEORIES:
        grid = getattr(table, grid_name)
        lines += [f"### {name}", ""]
        lines += _md_table(["p\\q", *span], [[p, *grid[p]] for p in span])
        lines.append("")
    lines.append("betti: " + " ".join(str(b) for b in table.betti))
    lines.append("delta: " + " ".join(str(d) for d in table.delta))
    lines.append(f"ddbar-lemma: {verdict.verdict}")
    return "\n".join(lines)


def _cmd_table(args) -> tuple[int, str]:
    from . import cohomology as co

    cs = _load_structure(args.file, args.binding)
    return EXIT_OK, _table_text(co.full_table(cs), args.format)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _catalog_rows(cases, golden: bool):
    from . import catalog as cat

    rows = []
    for case in cases:
        result = cat.evaluate(case.id)
        row = {
            "id": case.id,
            "algebra": case.algebra_text,
            "skt": result.skt,
            "bott_chern": {f"{p},{q}": result.table.h_bc[p][q] for p, q in case.columns},
            "betti": result.table.betti[1:case.dim + 1],
            "delta": result.table.delta[1:case.dim + 1],
        }
        if golden:
            row["match"] = result.ok
            row["diffs"] = result.diffs
        rows.append(row)
    return rows


def _catalog_block(case, rows, fmt: str, golden: bool) -> list[str]:
    """The csv or md lines of rows that share the dimension of ``case``."""
    degrees = range(1, case.dim + 1)
    if fmt == "csv":
        header = ["id", "algebra", "skt", *(f"h_bc({p}.{q})" for p, q in case.columns),
                  *(f"b{k}" for k in degrees), *(f"delta{k}" for k in degrees)]
        body = [[r["id"], f'"{r["algebra"]}"', int(r["skt"]), *r["bott_chern"].values(),
                 *r["betti"], *r["delta"]] for r in rows]
    else:
        header = ["id", "skt", *(f"({p}.{q})" for p, q in case.columns), "b", "delta"]
        body = [[r["id"], "yes" if r["skt"] else "no", *r["bott_chern"].values(),
                 " ".join(map(str, r["betti"])), " ".join(map(str, r["delta"]))] for r in rows]
    if golden:
        header.append("match" if fmt == "csv" else "golden")
        for cells, r in zip(body, rows):
            cells.append(_mark(r["match"]))
    if fmt == "csv":
        return _csv_table(header, body)
    return _md_table(header, body) + [f"  mismatch {r['id']}: {diff}" for r in rows
                                      if golden and not r["match"] for diff in r["diffs"]]


def _cmd_catalog(args) -> tuple[int, str]:
    if args.case_id and args.dim:
        raise _UsageError("give either --case or --dim, not both")
    from . import catalog as cat

    if args.case_id:
        cases = [_lookup(cat.case_by_id, args.case_id)]
    else:
        cases = cat.list_cases(args.dim)
    rows = _catalog_rows(cases, args.golden)
    mismatched = [r["id"] for r in rows if args.golden and not r["match"]]
    footnote = any(case.algebra_text == H7_ALGEBRA for case in cases)
    if args.format == "json":
        payload = {"cases": rows}
        if footnote:
            payload["footnote"] = H7_FOOTNOTE
        return (EXIT_GOLDEN if mismatched else EXIT_OK), render_json(payload)
    # one table per dimension, each under its own header, 6d first
    lines = []
    for dim in sorted({case.dim for case in cases}):
        group = [(case, row) for case, row in zip(cases, rows) if case.dim == dim]
        if lines:
            lines.append("")
        lines += _catalog_block(group[0][0], [row for _, row in group], args.format, args.golden)
    if footnote:
        lines += [f"# {H7_FOOTNOTE}"] if args.format == "csv" else ["", H7_FOOTNOTE]
    return (EXIT_GOLDEN if mismatched else EXIT_OK), "\n".join(lines)


# ---------------------------------------------------------------------------
# skt
# ---------------------------------------------------------------------------

def _cmd_skt(args) -> tuple[int, str]:
    if args.metric != "random" and (args.seed, args.count) != (None, None):
        raise _UsageError("--seed and --count apply only to --metric random")
    seed = 0 if args.seed is None else args.seed
    count = 20 if args.count is None else args.count
    if count < 1:
        raise _UsageError("--count must be at least 1")
    from . import metrics as me

    cs = _structure_from_args(args)
    std = me.standard_form(cs.n)
    ddbar = me.ddbar_of(cs, std)
    lines = []
    label = args.case_id if args.case_id else args.file
    lines.append(f"structure: {label} (n={cs.n})")
    top = BasisElement((1, 2), (1, 2))
    if cs.n == 3 and set(ddbar.terms) <= {top}:
        lines.append(f"ddbar(standard) = ({ddbar.coefficient(top)}) * w12~1~2")
    else:
        lines.append(f"ddbar(standard) = {ddbar}")
    lines.append(f"pluriclosed (standard metric): {ddbar.is_zero()}")
    lines.append(f"balanced (standard metric): {me.is_balanced(cs, std)}")
    if args.metric == "random":
        verdicts = []
        for h in me.random_positive_forms(cs.n, count, seed):
            verdicts.append((me.is_pluriclosed(cs, h), me.is_balanced(cs, h)))
        pluri = {v[0] for v in verdicts}
        bal = {v[1] for v in verdicts}
        lines.append(
            f"random sweep ({count} positive forms, seed {seed}): "
            f"pluriclosed {sorted(pluri)}, balanced {sorted(bal)}"
        )
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------------------
# curves, figure data
# ---------------------------------------------------------------------------

def _cmd_curves(args) -> tuple[int, str]:
    from . import catalog as cat

    curve_ids = [args.curve_id] if args.curve_id else ["A", "B", "C"]
    payload = []
    for cid in curve_ids:
        for res in cat.evaluate_curve(cid):
            payload.append({
                "curve": cid,
                "point": res.label,
                "binding": res.binding_text,
                "computed": {k: res.computed[k] for k in sorted(res.computed)},
                "expected": {k: res.expected[k] for k in sorted(res.expected)},
                "match": res.ok,
            })
    code = EXIT_OK if all(row["match"] for row in payload) else EXIT_GOLDEN
    if args.format == "json":
        return code, render_json({"points": payload})
    if args.format == "csv":
        return code, "\n".join(_csv_table(
            ["curve", "point", "binding", "computed", "expected", "match"],
            [[row["curve"], row["point"], f'"{row["binding"]}"', f'"{_pairs(row["computed"])}"',
              f'"{_pairs(row["expected"])}"', _mark(row["match"])] for row in payload],
        ))
    return code, "\n".join(_md_table(
        ["curve", "point", "computed", "expected", "ok"],
        [[row["curve"], row["point"], _pairs(row["computed"]), _pairs(row["expected"]),
          _mark(row["match"])] for row in payload],
    ))


def _cmd_figure_data(_args) -> tuple[int, str]:
    from . import catalog as cat

    rows = [[case.id, *case.golden_delta] for case in cat.list_cases(3)]
    return EXIT_OK, "\n".join(_csv_table(["case_id", "Delta1", "Delta2", "Delta3"], rows))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH = {
    "check": _cmd_check,
    "table": _cmd_table,
    "catalog": _cmd_catalog,
    "skt": _cmd_skt,
    "curves": _cmd_curves,
    "figure-data": _cmd_figure_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, text = _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone, as after `| head -1`: send what is left,
            # and the flush at exit, to devnull (the recipe in the signal docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
