"""nilcohom benchmark: one process, one thread, a closed loop with one caller.

    python3 perfbench/run.py --workload catalog_golden --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from its
``src`` directory.  The chosen workload's ops are generated from the seed,
then whole passes over them are timed until ``--seconds`` is reached (at
least as many ops as the tail percentile needs).  Every op result is checked
outside its timed span.

Latencies are scaled to a reference CPU speed (see ``calibration.py``):
after every op, outside its timed span, the calibration loop is timed too.
The unscaled figures are printed on the ``info`` line.

The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with nothing
wrapped.  With ``--trace 1`` a third of a pass runs untraced, then at least
two whole passes traced, and the metrics are the per-layer ones (per traced
pass) plus the tracing overhead; spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from calibration import calibrate, scaled  # noqa: E402
from workloads import WORKLOADS, load_rows  # noqa: E402

MODULES = ["algebra", "linalg", "model", "parser", "cohomology", "metrics", "catalog", "cli"]
SETUP_REPS = 11
TRACED_PASSES = 2

# Subprocess that splits set-up into package import and catalog load/validation.
PROBE = (
    "import time; t0 = time.perf_counter(); import nilcohom, nilcohom.cli; "
    "t1 = time.perf_counter(); from nilcohom import catalog; n = len(catalog.list_cases()); "
    "t2 = time.perf_counter(); print(n, t1 - t0, t2 - t1)"
)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_engine():
    if not (SRC / "nilcohom" / "__init__.py").is_file():
        fail(f"no engine sources under {SRC}")
    sys.path.insert(0, str(SRC))
    nc = importlib.import_module("nilcohom")
    for name in MODULES:
        importlib.import_module(f"nilcohom.{name}")
    if Path(nc.__file__).resolve().parent != SRC / "nilcohom":
        fail(f"imported nilcohom from {nc.__file__}, not from {SRC}")
    return nc


def engine_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(rows):
    """Seconds of ``nilcohom figure-data`` in a fresh interpreter (import,
    catalog load and validation, one CSV), scaled by a calibration the child
    runs afterwards on its own CPU.  One warm-up, then SETUP_REPS runs."""
    expected = ["case_id,Delta1,Delta2,Delta3"] + [
        f"{r.id},{','.join(map(str, r.delta))}" for r in rows if r.n == 3]
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    times, raw = [], []
    for rep in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=engine_env(), capture_output=True,
                              text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.splitlines() != expected:
            fail(f"figure-data failed or differs from golden deltas: {proc.stderr.strip()}")
        _, cal, cal_total = proc.stderr.split()
        if rep:
            raw.append(elapsed - float(cal_total))
            times.append(scaled(raw[-1], float(cal)))
    return times, raw


def measure_import_load():
    """Median import and catalog-load seconds, from inside fresh interpreters."""
    imports, loads = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=engine_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        _, t_import, t_load = proc.stdout.split()
        imports.append(float(t_import))
        loads.append(float(t_load))
    return statistics.median(imports), statistics.median(loads)


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    k = max(1, ceil(pct / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def min_ops(tail_pct):
    """Fewest ops that leave ten beyond the nearest-rank tail percentile."""
    n = 10
    while n - ceil(tail_pct * n / 100) < 10:
        n += 1
    return n


class Runner:
    """Times whole passes over one workload's ops and checks every result."""

    def __init__(self, nc, workload, ops):
        self.nc, self.workload, self.ops = nc, workload, ops
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one(self, op, run):
        """(latency, calibration) seconds of one op; the check and the
        calibration loop run after the op's timed span."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run(op)
        except Exception as exc:  # an op that raises counts as wrong
            self.failed += 1
            self.problems.append(f"{op.id}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, calibrate()
        elapsed = time.perf_counter() - t0
        problems = self.workload.check(op, result)
        if problems:
            self.failed += 1
            self.problems.append(f"{op.id}: {'; '.join(problems)}")
        return elapsed, calibrate()

    def passes(self, seconds, run, min_passes=1, need_ops=0, after_pass=None, ops=None):
        """Whole passes over ``ops`` (default: all) until the next one would
        overshoot ``seconds`` by more than half a pass.  Returns the per-op
        samples and the pass count."""
        ops = self.ops if ops is None else ops
        samples = []
        start = time.perf_counter()
        done = 0
        while True:
            for op in ops:
                samples.append(self.one(op, run))
            done += 1
            if after_pass:
                after_pass()
            wall = time.perf_counter() - start
            if done >= min_passes and len(samples) >= need_ops \
                    and wall + wall / done / 2 >= seconds:
                return samples, done

    def warm_up(self):
        """One untimed op of each dimension."""
        seen = set()
        for op in self.ops:
            if op.n not in seen:
                seen.add(op.n)
                self.one(op, self.run_plain)

    def run_plain(self, op):
        return self.workload.run(self.nc, op)


def normalized(samples):
    """Op latencies in seconds at the reference speed."""
    return [scaled(lat, cal) for lat, cal in samples]


def summary(latencies, tail_pct):
    """ops_per_s, op_ms_p50, op_ms_tail of a list of op latencies (s)."""
    tail, _ = percentile(latencies, tail_pct)
    return (len(latencies) / sum(latencies), statistics.median(latencies) * 1000,
            tail * 1000)


def end_to_end(args, workload, runner, setup, info):
    runner.warm_up()
    gc.collect()
    samples, done = runner.passes(args.seconds, runner.run_plain,
                                  need_ops=min_ops(workload.tail_pct))
    latencies = normalized(samples)
    rate, p50, tail = summary(latencies, workload.tail_pct)
    raw_rate, raw_p50, raw_tail = summary([lat for lat, _ in samples], workload.tail_pct)
    _, beyond = percentile(latencies, workload.tail_pct)
    setup_scaled, setup_raw = setup
    info["timed"] = {
        "passes": done, "ops": len(samples),
        "tail": f"p{workload.tail_pct} of {len(samples)} ops, {beyond} beyond",
        "calibration_ms_quartiles": statistics.quantiles([c * 1000 for _, c in samples], n=4),
        "setup_s_reps": setup_scaled,
    }
    info["unscaled"] = {"ops_per_s": raw_rate, "op_ms_p50": raw_p50, "op_ms_tail": raw_tail,
                        "setup_s": statistics.median(setup_raw)}
    return {
        "ops_per_s": (rate, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }


def traced(args, nc, workload, runner, info):
    """Per-layer metrics over at least two traced passes.  The tracing
    overhead compares the first third of the ops, run once untraced, with the
    same ops in the traced passes."""
    runner.warm_up()
    gc.collect()
    head = max(1, len(runner.ops) // 3)
    plain, _ = runner.passes(0, runner.run_plain, ops=runner.ops[:head])
    tracer = tracing.Tracer()
    per_pass, marks = [], [tracer.snapshot()]

    def after_pass():
        snap = tracer.snapshot()
        per_pass.append({k: snap[k] - marks[-1][k] for k in snap})
        marks.append(snap)

    def run_traced(op):
        return tracer.op(op.id, op.n, workload.run, nc, op)

    missing = tracer.install()
    try:
        traced_samples, done = runner.passes(args.seconds, run_traced,
                                             min_passes=TRACED_PASSES, after_pass=after_pass)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{workload.name}-{args.seed}.jsonl")

    metrics = {k: sum(p[k] for p in per_pass) / done for k in per_pass[0]}
    unequal = [k for k in tracing.EXACT if len({p[k] for p in per_pass}) != 1]
    if unequal:
        runner.failed += 1
        runner.problems.append(f"exact counts differ between traced passes: {unequal}")
    metrics["linalg.density"] = (metrics["linalg.rank_nnz"] / metrics["linalg.rank_entries"]
                                 if metrics["linalg.rank_entries"] else 0.0)
    metrics["linalg.max_rows"], metrics["linalg.max_cols"] = tracer.max_shape
    import_s, load_s = measure_import_load()
    metrics["import_s"] = import_s
    metrics["catalog.load_s"] = load_s
    untraced_rate = summary(normalized(plain), 50)[0]
    per_op = len(runner.ops)
    traced_head = [x for j in range(done) for x in traced_samples[j * per_op:j * per_op + head]]
    traced_rate = summary(normalized(traced_head), 50)[0]
    metrics["trace.ops_per_s_untraced"] = untraced_rate
    metrics["trace.ops_per_s_traced"] = traced_rate
    metrics["trace.overhead_pct"] = 100 * (untraced_rate - traced_rate) / untraced_rate
    info["traced"] = {"missing_hooks": missing, "untraced_ops": len(plain), "traced_passes": done,
                      "traced_ops": len(traced_samples), "exact_counts_per_pass":
                      {k: [p[k] for p in per_pass] for k in tracing.EXACT}}
    info["reasons"] = reasons(workload.name, tracer, metrics, done)
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def reasons(name, tracer, m, passes):
    """Check each workload's stated reason against the trace."""
    if name == "catalog_golden":
        busy = {k: v / passes for (dim, k), v in tracer.by_dim.items()
                if dim == 4 and k not in ("op", "table", "instantiate")}
        top = max(busy, key=busy.get)
        return {"8d: rank is the largest child span": top == "rank",
                "8d busy per pass by span (s)": busy}
    if name == "metric_sweep":
        return {"no rank calls": m["linalg.rank_calls"] == 0}
    return {"d busy exceeds rank busy": m["model.d_busy_s"] > m["linalg.rank_busy_s"]}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if "ops_per_s" in name:
        return "1/s"
    if name == "linalg.density":
        return "ratio"
    return "count"


def environment(args):
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loadavg_start": loadavg}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    info = environment(args)
    nc = import_engine()
    rows = load_rows()
    workload = WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(rows)
    ops = workload.ops(nc, rows, args.seed)
    info["ops_per_pass"] = len(ops)
    runner = Runner(nc, workload, ops)
    if args.trace:
        metrics = traced(args, nc, workload, runner, info)
    else:
        metrics = end_to_end(args, workload, runner, setup, info)
    info["attempted"], info["failed"] = runner.attempted, runner.failed
    info["wrong_frac"] = runner.failed / runner.attempted
    info["problems"] = runner.problems[:20]
    print("info " + json.dumps(info, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
