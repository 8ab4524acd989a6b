"""A clock-free work ledger: what one pass of each benchmark workload does.

    python3 tools/work.py [OTHER_CHECKOUT] [--seed S] [--ops N]

For each workload of ``perfbench/workloads.py`` the op list is made at seed
S (7), cut to its first N ops if ``--ops`` is given, and one pass over it
runs in a fresh interpreter with the engine imported from a checkout's
``src``.  Counting shims are installed from outside, on
module and class attributes, after the ops are made and before the pass:

* parser: matches of each compiled pattern of ``nilcohom.parser`` (under
  every module name bound to it), ``_Scanner`` objects made, and calls of
  each ``_Scanner`` method;
* elimination: per kind, the ``exact_rank`` calls, their steps (calls of
  ``linalg._eliminate``), the entries each step reads (``len(v) +
  len(pivot)``) and the new pivots.  A kind is named by the ``exact_rank``
  call in its caller's source (``stack``, ``concat``, ``del``, ``dd``,
  ``total`` in ``cohomology._rank_list``), or else by the calling function;
* ``apply``: calls, columns and inner products (one per source entry and
  entry of the column it selects), in all and per caller: ``dd`` for the
  one ``apply`` call of ``cohomology._rank_list``, and otherwise the calling
  function (``check_d_squared``, ``check_nilpotency``, ``_d_of``,
  ``_ddbar``);
* build: per degree k, the Leibniz triples that the build of ``matrix(k)``
  reads, summed over the structure's ``_terms`` (degree 0 and the top
  degree read none), and the builds;
* ``_reduced`` calls (under every module name bound to it);
* content steps that divide: ``linalg._primitive`` calls that return a new
  dict, not their argument;
* per elimination step, the bit length of the largest real or imaginary
  part of the column it returns, as a histogram in 16-bit bands.

Every count depends only on the ops and the engine, so two runs print the
same lines.  Given OTHER_CHECKOUT, its engine runs the same ops (made by this
checkout's ``perfbench``) and each row shows both counts and their ratio,
this over other.  Standard library only; nothing is written and nothing
under ``src/`` or ``perfbench/`` changes.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import linecache
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("algebra", "linalg", "model", "parser", "cohomology", "metrics", "catalog")
# the exact_rank calls of cohomology._rank_list, by the text of the call
KINDS = {"(source, image, below)": "concat", "(rows, columns, pivots)": "stack",
         "(rows, parts, below)": "del", "(dd, product)": "dd",
         "(rows, spans, stacks[first])": "total"}


def _kind(frame) -> str:
    line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
    call = re.search(r"exact_rank(\([^()]*\))", line)
    return KINDS.get(call[1] if call else "", frame.f_code.co_name)


def install(nc, counts: Counter):
    """Counting shims on the engine's attributes; ``counts`` receives every count."""
    parser, linalg = nc.parser, nc.linalg
    engine = [sys.modules[f"nilcohom.{name}"] for name in MODULES]
    for name, pattern in list(vars(parser).items()):
        if isinstance(pattern, re.Pattern):
            shim = _CountingPattern(pattern, f"parser.match {name}", counts)
            for module in engine:
                for attr, value in list(vars(module).items()):
                    if value is pattern:
                        setattr(module, attr, shim)
    for name, method in list(vars(parser._Scanner).items()):
        if callable(method):
            key = "parser._Scanner objects" if name == "__init__" else f"parser.{name} calls"
            setattr(parser._Scanner, name, _counted(method, key, counts))

    reduced = nc.algebra._reduced

    def counted_reduced(x, y, den):
        counts["algebra._reduced calls"] += 1
        return reduced(x, y, den)

    for module in engine:
        for attr, value in list(vars(module).items()):
            if value is reduced:
                setattr(module, attr, counted_reduced)

    matrix = nc.model._Differential.matrix

    def counted_matrix(self, k):
        built = k not in self._matrices
        m = matrix(self, k)
        if built:
            counts[f"build.degree {k} builds"] += 1
            if 0 < k < sum(self._layout):
                counts[f"build.degree {k} Leibniz triples read"] += sum(
                    len(table[k]) for table, _, _ in self._terms) // 3
        return m

    nc.model._Differential.matrix = counted_matrix
    eliminate, primitive, kind = linalg._eliminate, linalg._primitive, ["?"]

    def counted_eliminate(v, pivot, lead):
        for of in (kind[0], "(every kind)"):
            counts[f"elimination.{of} steps"] += 1
            counts[f"elimination.{of} entries read"] += len(v) + len(pivot)
        out = eliminate(v, pivot, lead)
        bits = max((max(x.bit_length(), y.bit_length()) for x, y in out.values()), default=0)
        band = bits // 16 * 16
        counts[f"elimination.steps, largest entry {band:03d}-{band + 15:03d} bits"] += 1
        return out

    def counted_primitive(v):
        out = primitive(v)
        counts["elimination.content steps that divide"] += out is not v
        return out

    linalg._eliminate, linalg._primitive = counted_eliminate, counted_primitive
    for module in engine:
        rank = getattr(module, "exact_rank", None)
        if rank is not None:
            setattr(module, "exact_rank", _ranked(rank, kind, counts))

    apply = linalg.ExactMatrix.apply

    def counted_apply(self, columns):
        caller = sys._getframe(1).f_code.co_name
        caller = "dd" if caller == "_rank_list" else caller  # its one apply call
        products = sum(len(self.columns[k]) for c in columns for k in c)
        for of in ("apply.", f"apply.{caller} "):
            counts[f"{of}calls"] += 1
            counts[f"{of}columns"] += len(columns)
            counts[f"{of}inner products"] += products
        return apply(self, columns)

    linalg.ExactMatrix.apply = counted_apply


class _CountingPattern:
    """A compiled pattern whose ``match`` calls are counted."""

    def __init__(self, pattern: re.Pattern, key: str, counts: Counter):
        self._pattern, self._key, self._counts = pattern, key, counts

    def match(self, *args):
        self._counts[self._key] += 1
        self._counts["parser.match (every pattern)"] += 1
        return self._pattern.match(*args)

    def __getattr__(self, name):
        return getattr(self._pattern, name)


def _counted(function, key: str, counts: Counter):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)
    return wrapper


def _ranked(rank, kind: list, counts: Counter):
    @functools.wraps(rank)
    def wrapper(rows, columns, pivots=None):
        kind[0] = _kind(sys._getframe(1))
        before = len(pivots) if pivots else 0
        result = rank(rows, columns, pivots)
        counts[f"elimination.{kind[0]} calls"] += 1
        counts[f"elimination.{kind[0]} new pivots"] += result - before
        return result
    return wrapper


def child(checkout: Path, workload: str, seed: int, ops: int | None) -> None:
    """One pass in this interpreter; prints the counts as one JSON object."""
    sys.path[:0] = [str(checkout / "src"), str(ROOT / "perfbench")]
    nc = importlib.import_module("nilcohom")
    for name in MODULES:
        importlib.import_module(f"nilcohom.{name}")
    import workloads
    w = workloads.WORKLOADS[workload]
    op_list = w.ops(nc, workloads.load_rows(), seed)[:ops]
    counts = Counter()
    install(nc, counts)
    for op in op_list:
        w.run(nc, op)
    counts["ops"] = len(op_list)
    print(json.dumps(counts, sort_keys=True))


def ledger(checkout: Path, workload: str, args) -> Counter:
    cmd = [sys.executable, "-B", __file__, "--child", str(checkout), workload,
           "--seed", str(args.seed)] + (["--ops", str(args.ops)] if args.ops else [])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode:
        raise SystemExit(f"{checkout} {workload}: {proc.stderr.strip()}")
    return Counter(json.loads(proc.stdout))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", nargs="?", type=Path, help="root of another checkout")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--ops", type=int, help="only the first N ops of each workload")
    ap.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        ap.error("--ops must be at least 1")
    if args.child:
        child(Path(args.child[0]), args.child[1], args.seed, args.ops)
        return 0
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    for workload in workloads.WORKLOADS:
        mine = ledger(ROOT, workload, args)
        theirs = ledger(args.other.resolve(), workload, args) if args.other else None
        print(f"{workload}: one pass of {mine['ops']} ops, seed {args.seed}"
              + (f"; this checkout against {args.other}" if args.other else ""))
        for key in sorted((set(mine) | set(theirs or ())) - {"ops"}):
            row = f"  {key:<44}{mine[key]:>10,}"
            if theirs is not None:
                ratio = f"{mine[key] / theirs[key]:.3f}" if theirs[key] else "-"
                row += f"{theirs[key]:>10,}  {ratio:>7}"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
