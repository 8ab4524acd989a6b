"""``tools/pass_ab.py``, whole-pass timing of two checkouts in one process."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pass_ab.py"


def _pass_ab(other, workload, ops="3"):
    return subprocess.run([sys.executable, "-B", str(TOOL), str(other), "--workload", workload,
                           "--rounds", "1", "--ops", ops],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["catalog_golden", "dense_coframe", "metric_sweep"])
def test_a_checkout_timed_against_itself(workload):
    proc = _pass_ab(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{workload}: 1 rounds of 3 ops, seed 7,")
    assert "ratio " in proc.stdout and "this ahead in " in proc.stdout


def test_an_engine_that_fails_the_check_is_not_timed(tmp_path):
    # the other checkout's metrics call every structure pluriclosed
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    metrics = tmp_path / "src" / "nilcohom" / "metrics.py"
    text = metrics.read_text()
    assert text.count("return not _ddbar(cs, h)[1]") == 1
    metrics.write_text(text.replace("return not _ddbar(cs, h)[1]", "return True"))
    proc = _pass_ab(tmp_path, "metric_sweep")
    assert proc.returncode == 1 and proc.stdout == ""
    assert "other " in proc.stderr and "pluriclosed True != golden skt False" in proc.stderr


@pytest.mark.parametrize("ops", ["0", "-200"])
def test_an_op_count_below_one_is_a_usage_error(ops):
    proc = _pass_ab(ROOT, "metric_sweep", ops)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--ops must be at least 1" in proc.stderr
