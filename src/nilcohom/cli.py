"""Command-line surface for the cohomology engine.

Exit codes: 0 success (all golden rows and curve points match), 1 usage,
parse or unreadable-file error, 2 validation failure (d-square, nilpotency,
binding problems), 3 golden or curve-point mismatch.  All input and output is
ASCII; random metric sampling always runs from an explicit or defaulted seed,
so every command is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from . import cohomology as co
from . import metrics as me
from .algebra import BasisElement
from .model import (
    ComplexStructure,
    DifferentialSquareError,
    ModelError,
    NilpotencyError,
    check_nilpotency,
    instantiate,
    realify,
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
    p_skt.add_argument("--seed", type=int, default=0)
    p_skt.add_argument("--count", type=int, default=20)

    p_curves = sub.add_parser("curves", help="evaluate the deformation curves")
    p_curves.add_argument("--id", dest="curve_id", choices=("A", "B", "C"))
    p_curves.add_argument("--format", choices=("md", "csv", "json"), default="md")

    sub.add_parser("figure-data",
                   help="CSV of the non-Kaehlerianity degrees of the 6d cases")
    return parser


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _load_structure(path: str, binding_text: str) -> ComplexStructure:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    cs = instantiate(parse_complex_structure(text), parse_binding(binding_text))
    if not check_nilpotency(realify(cs)):
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
    if args.case_id:
        return _lookup(cat.case_by_id, args.case_id).structure()
    if not args.file:
        raise _UsageError("either a file or --case is required")
    return _load_structure(args.file, args.binding)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args) -> tuple[int, str]:
    with open(args.file, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = []
    if "w" in text:
        template = parse_complex_structure(text)
        lines.append(f"parsed complex-structure template (n={template.n})")
        lines.append("integrability shape: ok (only (2,0) and (1,1) terms)")
        try:
            cs = instantiate(template, parse_binding(args.binding))
        except DifferentialSquareError as exc:
            lines.append(str(exc.report))
            return EXIT_VALIDATION, "\n".join(lines)
        except ModelError as exc:
            lines.append(f"binding error: {exc}")
            return EXIT_VALIDATION, "\n".join(lines)
        lines.append("d-square: ok")
        algebra = realify(cs)
        lines.append(f"underlying real algebra: dimension {algebra.dim}")
    else:
        algebra = parse_real_algebra(text)
        lines.append(f"parsed real algebra (dim={algebra.dim})")
        report = algebra.check_d_squared()
        if not report.ok:
            lines.append(str(report))
            return EXIT_VALIDATION, "\n".join(lines)
        lines.append("d-square: ok")
    if check_nilpotency(algebra):
        lines.append("nilpotency: ok")
    else:
        lines.append("nilpotency: FAILED (lower central series does not vanish)")
        return EXIT_VALIDATION, "\n".join(lines)
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_THEORY_GRIDS = [
    ("bott_chern", "h_bc"),
    ("aeppli", "h_aeppli"),
    ("dolbeault", "h_dolbeault"),
    ("del", "h_del"),
    ("a", "a_dim"),
    ("f", "f_dim"),
]


def _table_text(table: co.CohomologyTable, fmt: str) -> str:
    verdict = co.ddbar_lemma_status(table)
    if fmt == "json":
        payload = table.as_dict()
        payload["ddbar_lemma"] = verdict.as_dict()
        return render_json(payload)
    if fmt == "csv":
        rows = ["theory,p,q,value"]
        for name, attr in _THEORY_GRIDS:
            grid = getattr(table, attr)
            for p in range(table.n + 1):
                for q in range(table.n + 1):
                    rows.append(f"{name},{p},{q},{grid[p][q]}")
        for k, b in enumerate(table.betti):
            rows.append(f"betti,{k},,{b}")
        for k, d in enumerate(table.delta):
            rows.append(f"delta,{k},,{d}")
        rows.append(f"ddbar_lemma,,,{verdict.verdict}")
        return "\n".join(rows)
    lines = [f"## Cohomology table (n = {table.n})", ""]
    span = range(table.n + 1)
    for name, attr in _THEORY_GRIDS:
        grid = getattr(table, attr)
        lines += [f"### {name}", ""]
        lines += _md_table(["p\\q", *span], [[p, *grid[p]] for p in span])
        lines.append("")
    lines.append("betti: " + " ".join(str(b) for b in table.betti))
    lines.append("delta: " + " ".join(str(d) for d in table.delta))
    lines.append(f"ddbar-lemma: {verdict.verdict}"
                 + (f" (parity sufficient condition: {verdict.parity_branch})"
                    if verdict.parity_sufficient else ""))
    return "\n".join(lines)


def _cmd_table(args) -> tuple[int, str]:
    cs = _load_structure(args.file, args.binding)
    return EXIT_OK, _table_text(co.full_table(cs), args.format)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _catalog_rows(cases, golden: bool):
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


def _cmd_catalog(args) -> tuple[int, str]:
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
        text = render_json(payload)
    elif args.format == "csv":
        columns = cases[0].columns
        header = ["id", "algebra", "skt"]
        header += [f"h_bc({p}.{q})" for p, q in columns]
        header += [f"b{k}" for k in range(1, cases[0].dim + 1)]
        header += [f"delta{k}" for k in range(1, cases[0].dim + 1)]
        if args.golden:
            header.append("match")
        out = [",".join(header)]
        for r in rows:
            cells = [r["id"], '"' + r["algebra"] + '"', "1" if r["skt"] else "0"]
            cells += [str(v) for v in r["bott_chern"].values()]
            cells += [str(b) for b in r["betti"]]
            cells += [str(d) for d in r["delta"]]
            if args.golden:
                cells.append("pass" if r["match"] else "FAIL")
            out.append(",".join(cells))
        if footnote:
            out.append(f'# {H7_FOOTNOTE}')
        text = "\n".join(out)
    else:
        columns = cases[0].columns
        header = ["id", "skt"] + [f"({p}.{q})" for p, q in columns] + ["b", "delta"]
        if args.golden:
            header.append("golden")
        table_rows = []
        for r in rows:
            cells = [r["id"], "yes" if r["skt"] else "no", *r["bott_chern"].values(),
                     " ".join(str(b) for b in r["betti"]),
                     " ".join(str(d) for d in r["delta"])]
            if args.golden:
                cells.append("pass" if r["match"] else "FAIL")
            table_rows.append(cells)
        lines = _md_table(header, table_rows)
        for r in rows:
            if args.golden and not r["match"]:
                for diff in r["diffs"]:
                    lines.append(f"  mismatch {r['id']}: {diff}")
        if footnote:
            lines.append("")
            lines.append(H7_FOOTNOTE)
        text = "\n".join(lines)
    return (EXIT_GOLDEN if mismatched else EXIT_OK), text


# ---------------------------------------------------------------------------
# skt
# ---------------------------------------------------------------------------

def _cmd_skt(args) -> tuple[int, str]:
    if args.count < 1:
        raise _UsageError("--count must be at least 1")
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
        for h in me.random_positive_forms(cs.n, args.count, args.seed):
            verdicts.append((me.is_pluriclosed(cs, h), me.is_balanced(cs, h)))
        pluri = {v[0] for v in verdicts}
        bal = {v[1] for v in verdicts}
        lines.append(
            f"random sweep ({args.count} positive forms, seed {args.seed}): "
            f"pluriclosed {sorted(pluri)}, balanced {sorted(bal)}"
        )
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------------------
# curves, figure data
# ---------------------------------------------------------------------------

def _cmd_curves(args) -> tuple[int, str]:
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
        out = ["curve,point,binding,computed,expected,match"]
        for row in payload:
            out.append(
                f'{row["curve"]},{row["point"]},"{row["binding"]}",'
                f'"{_pairs(row["computed"])}","{_pairs(row["expected"])}",'
                + ("pass" if row["match"] else "FAIL")
            )
        return code, "\n".join(out)
    return code, "\n".join(_md_table(
        ["curve", "point", "computed", "expected", "ok"],
        [[row["curve"], row["point"], _pairs(row["computed"]), _pairs(row["expected"]),
          "pass" if row["match"] else "FAIL"] for row in payload],
    ))


def _cmd_figure_data(_args) -> tuple[int, str]:
    rows = ["case_id,Delta1,Delta2,Delta3"]
    for case in cat.list_cases(3):
        d = case.golden_delta
        rows.append(f"{case.id},{d[0]},{d[1]},{d[2]}")
    return EXIT_OK, "\n".join(rows)


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
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
