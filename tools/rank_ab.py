"""Interleaved timing of this checkout's ``exact_rank`` against another checkout's.

    python3 tools/rank_ab.py OTHER_CHECKOUT [--rounds N] [--seed S]

Loads ``src/nilcohom/linalg.py`` of OTHER_CHECKOUT by path (the module
imports nothing from the package) and runs this checkout's
``cohomology._rank_list`` on three input sets, once with each routine as
``cohomology.exact_rank``, in one process:

* ``catalog``: the 72 catalog rows;
* ``6d coframe`` and ``8d coframe``: the 6d and 8d golden rows of
  ``perfbench/golden.txt``, each rewritten in a general coframe by
  ``perfbench/coframe.generate`` from one ``random.Random(S)``.

A first untimed pass builds every matrix (a structure keeps them) and
exits with a message unless both routines give the same rank list on every
structure.
Each round then times one pass over each set with each routine, in an order
that alternates from round to round.  Per set it prints the median and the
quartiles of both routines' pass times, the ratio of the medians and the
rounds this checkout won.  Standard library only; it writes no file.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import nilcohom  # noqa: E402
from nilcohom import catalog, cohomology as co, model, parser  # noqa: E402
import coframe  # noqa: E402
import workloads  # noqa: E402


def load_linalg(checkout: Path):
    """The ``linalg`` module of another checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "other_linalg", checkout / "src" / "nilcohom" / "linalg.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def input_sets(seed: int) -> dict:
    rows, rng = workloads.load_rows(), random.Random(seed)

    def general(n):
        return [model.instantiate(parser.parse_complex_structure(
                    coframe.generate(nilcohom, r.template, r.binding, rng)),
                    parser.parse_binding(""))
                for r in rows if r.n == n]

    return {"catalog": [case.structure for case in catalog.list_cases()],
            "6d coframe": general(3), "8d coframe": general(4)}


def one_pass(rank, structures) -> tuple[float, list]:
    co.exact_rank = rank
    start = time.perf_counter()
    ranks = [co._rank_list(cs) for cs in structures]
    return time.perf_counter() - start, ranks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="root of the other checkout")
    ap.add_argument("--rounds", type=int, default=21)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2, for quartiles")
    routines = {"this": co.exact_rank, "other": load_linalg(args.other).exact_rank}
    sets = input_sets(args.seed)
    for name, structures in sets.items():
        (_, mine), (_, theirs) = (one_pass(rank, structures) for rank in routines.values())
        if mine != theirs:
            raise SystemExit(f"{name}: the two routines' rank lists differ")
    times = {(name, who): [] for name in sets for who in routines}
    for i in range(args.rounds):
        for name, structures in sets.items():
            for who in (("this", "other") if i % 2 else ("other", "this")):
                times[name, who].append(one_pass(routines[who], structures)[0])
    co.exact_rank = routines["this"]
    print(f"{args.rounds} rounds, seed {args.seed}, pass times in ms "
          f"(median [q1, q3]); this checkout against {args.other}")
    for name, structures in sets.items():
        mine, theirs = times[name, "this"], times[name, "other"]
        wins = sum(a < b for a, b in zip(mine, theirs))
        print(f"{name:>10} ({len(structures)} rows): this {_summary(mine)}, "
              f"other {_summary(theirs)}, ratio {statistics.median(mine) / statistics.median(theirs):.3f}, "
              f"this ahead in {wins} of {args.rounds}")
    return 0


def _summary(samples: list) -> str:
    q1, q2, q3 = (1000 * q for q in statistics.quantiles(samples, n=4))
    return f"{q2:.1f} [{q1:.1f}, {q3:.1f}]"


if __name__ == "__main__":
    sys.exit(main())
