"""``tools/work.py``, the work ledger: its counts depend only on the ops."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_two_runs_of_the_work_ledger_print_the_same_counts():
    cmd = [sys.executable, "-B", str(ROOT / "tools" / "work.py"), "--ops", "3"]
    first, second = (subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                                    check=True).stdout for _ in range(2))
    assert first == second
    for workload in ("catalog_golden", "dense_coframe", "metric_sweep"):
        assert f"{workload}: one pass of 3 ops, seed 7" in first
    for layer in ("parser.match _ITEM", "elimination.(every kind) steps", "apply.columns",
                  "algebra._reduced calls", "build.degree 2 builds",
                  "build.degree 2 Leibniz triples read", "elimination.content steps that divide",
                  "elimination.steps, largest entry 000-015 bits"):
        assert f"  {layer} " in first
