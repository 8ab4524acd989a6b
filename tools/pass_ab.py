"""Whole-pass timing of this checkout's engine against another's, in one process.

    python3 tools/pass_ab.py OTHER_CHECKOUT --workload W [--rounds N] [--seed S] [--ops K]

A change of a few percent is easier to see in one process than across two.
One ``_rank_list`` pass has measured 68 ms in one process and 105 ms in
another on the same tree, so separate-process runs of two trees drift by
more than a 12% change, while in-process rounds that alternate the order
of the two engines put the faster one ahead in 29 of 31 rounds.

Both ``src/nilcohom`` trees are loaded under their own package names,
``nilcohom_this`` and ``nilcohom_other``.  The op list of workload W is made
once, at seed S (7), by this checkout's ``perfbench/workloads.py`` and this
checkout's engine, and cut to its first K ops if ``--ops`` is given; ops are
text and plain numbers, so both engines run the same ops.  Every op is run
and checked by the workload's own ``check`` on both engines first, and the
script exits 1 on any problem before it times anything.  Each round then
times one whole pass of each engine, in an order that alternates from round
to round.  It prints the median and quartiles of both engines' pass times,
the ratio of the medians (this over other) and the rounds this checkout
won.  Standard library only; nothing is written, and nothing under ``src/``
or ``perfbench/`` changes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
MODULES = ("algebra", "linalg", "model", "parser", "cohomology", "metrics")


def load_engine(checkout: Path, name: str):
    """The ``src/nilcohom`` package of ``checkout``, imported as ``name``,
    with the submodules the workloads reach as its attributes."""
    src = checkout / "src" / "nilcohom"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in MODULES:
        importlib.import_module(f"{name}.{module}")
    return package


def one_pass(workload, nc, ops) -> float:
    gc.collect()
    start = time.perf_counter()
    for op in ops:
        workload.run(nc, op)
    return time.perf_counter() - start


def _summary(samples: list) -> str:
    q1, q2, q3 = ((1000 * q for q in statistics.quantiles(samples, n=4))
                  if len(samples) > 1 else [1000 * samples[0]] * 3)
    return f"{q2:.2f} [{q1:.2f}, {q3:.2f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="root of the other checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=21)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--ops", type=int, help="only the first K ops")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    w = workloads.WORKLOADS[args.workload]
    engines = {"this": load_engine(ROOT, "nilcohom_this"),
               "other": load_engine(args.other.resolve(), "nilcohom_other")}
    ops = w.ops(engines["this"], workloads.load_rows(), args.seed)[:args.ops]
    problems = [f"{who} {op.id}: {problem}" for who, nc in engines.items()
                for op in ops for problem in w.check(op, w.run(nc, op))]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    times = {who: [] for who in engines}
    for i in range(args.rounds):
        for who in (("this", "other") if i % 2 else ("other", "this")):
            times[who].append(one_pass(w, engines[who], ops))
    mine, theirs = times["this"], times["other"]
    wins = sum(a < b for a, b in zip(mine, theirs))
    print(f"{args.workload}: {args.rounds} rounds of {len(ops)} ops, seed {args.seed}, "
          f"pass times in ms (median [q1, q3]); this checkout against {args.other}")
    print(f"  this {_summary(mine)}, other {_summary(theirs)}, "
          f"ratio {statistics.median(mine) / statistics.median(theirs):.3f}, "
          f"this ahead in {wins} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
