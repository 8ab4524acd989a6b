"""Per-layer spans and counters, recorded from outside the engine.

``install`` wraps the engine's public callables at every name through which
the package reaches them (a module attribute bound to the original function,
or the class attribute of a method), and ``uninstall`` puts the originals
back.  Nothing is wrapped in an untraced run.

Every wrapped call is a span with a name, start, end, the nearest enclosing
recorded span and the op id.  Spans of the very frequent calls (``d`` and
``wedge``) are folded into counters instead of being stored one by one.  A
span's self time is its duration minus the time its direct child spans
cover; work the tracer itself does (matrix statistics) is left out of self
times.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, layer, module, attribute) of every wrapped callable.
HOOKS = [
    ("parse", "parser", "nilcohom.parser", "parse_complex_structure"),
    ("parse", "parser", "nilcohom.parser", "parse_binding"),
    ("instantiate", "model", "nilcohom.model", "instantiate"),
    ("d", "model", "nilcohom.model", "ComplexStructure.d"),
    ("wedge", "algebra", "nilcohom.algebra", "Form.wedge"),
    ("table", "cohomology", "nilcohom.cohomology", "full_table"),
    ("rank", "linalg", "nilcohom.linalg", "exact_rank"),
    ("matmul", "linalg", "nilcohom.linalg", "ExactMatrix.__matmul__"),
    ("stack", "linalg", "nilcohom.linalg", "vstack"),
    ("stack", "linalg", "nilcohom.linalg", "hstack"),
    ("positive", "metrics", "nilcohom.metrics", "is_positive"),
    ("pluriclosed", "metrics", "nilcohom.metrics", "is_pluriclosed"),
    ("balanced", "metrics", "nilcohom.metrics", "is_balanced"),
]
FOLDED = {"d", "wedge"}

# Counts that must repeat exactly in every pass of one workload and seed.
EXACT = ["linalg.rank_calls", "linalg.rank_sum", "linalg.rank_nnz",
         "model.d_calls", "algebra.wedge_calls", "metrics.balanced_true"]


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index, op id]
        self.stack = []         # open frames: [child seconds, nearest recorded span]
        self.depth = Counter()  # open calls per span name and per layer
        self.calls = Counter()
        self.busy = defaultdict(float)      # outermost time per span name
        self.layer_busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.build_s = 0.0                  # d nested under table
        self.by_dim = defaultdict(float)    # (op dimension, span name) -> busy
        self.counts = Counter()             # exact per-call statistics
        self.max_shape = [0, 0]
        self.op_id = None
        self.op_dim = None
        self._installed = []

    # -- spans ------------------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs):
        parent = self.stack[-1][1] if self.stack else -1
        record = name not in FOLDED
        index = parent
        if record:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        frame = [0.0, index]
        self.stack.append(frame)
        self.depth[name] += 1
        self.depth[layer] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.depth[name] -= 1
            self.depth[layer] -= 1
            self._close(name, layer, start, end, frame, record)
        self._observe(name, args, result)
        return result

    def _close(self, name, layer, start, end, frame, record):
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur
        if not self.depth[name]:
            self.busy[name] += dur
            self.by_dim[(self.op_dim, name)] += dur
        if not self.depth[layer]:
            self.layer_busy[layer] += dur
        if name == "d" and self.depth["table"]:
            self.build_s += dur
        if record:
            span = self.spans[frame[1]]
            span[1], span[2] = start, end

    def _observe(self, name, args, result):
        """Counters from arguments and results; their cost is not a span's."""
        if name not in ("rank", "parse", "balanced"):
            return
        t0 = perf_counter()
        if name == "rank":
            rows, cols, nnz = matrix_stats(args[0])
            self.counts["rank_entries"] += rows * cols
            self.counts["rank_nnz"] += nnz
            self.counts["rank_sum"] += result
            self.max_shape = [max(self.max_shape[0], rows), max(self.max_shape[1], cols)]
        elif name == "parse":
            self.counts["parser_chars"] += len(args[0])
        elif result and not self.depth["balanced"]:
            self.counts["balanced_true"] += 1
        if self.stack:
            self.stack[-1][0] += perf_counter() - t0

    def op(self, op_id, dim, fn, *args):
        self.op_id, self.op_dim = op_id, dim
        try:
            return self.call("op", "bench", fn, args, {})
        finally:
            self.op_id = self.op_dim = None

    # -- wrappers ---------------------------------------------------------------

    def install(self):
        """Wrap every hook; return those whose callable no longer exists, so
        that a renamed engine function reads as a missing layer, not a crash."""
        missing = []
        for name, layer, module_name, attr in HOOKS:
            owner_name, _, member = attr.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            original = None if owner is None else vars(owner).get(member)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, layer)
            if owner_name:  # a method: its class attribute
                targets = [(owner, member)]
            else:  # a function: every module attribute bound to it
                targets = [(mod, key) for mod_name, mod in list(sys.modules.items())
                           if mod_name == "nilcohom" or mod_name.startswith("nilcohom.")
                           for key, value in list(vars(mod).items()) if value is original]
            for target, key in targets:
                setattr(target, key, wrapper)
                self._installed.append((target, key, original))
        return missing

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def _wrap(self, fn, name, layer):
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, layer, fn, args, kwargs)
        return wrapper

    # -- results ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative per-layer metrics; subtract two snapshots for one pass."""
        c, b = self.calls, self.busy
        metrics_busy = self.layer_busy["metrics"]
        return {
            "parser.calls": c["parse"],
            "parser.busy_s": b["parse"],
            "parser.chars": self.counts["parser_chars"],
            "model.instantiate_calls": c["instantiate"],
            "model.instantiate_busy_s": b["instantiate"],
            "model.d_calls": c["d"],
            "model.d_busy_s": b["d"],
            "algebra.wedge_calls": c["wedge"],
            "algebra.wedge_busy_s": b["wedge"],
            "cohomology.table_calls": c["table"],
            "cohomology.table_busy_s": b["table"],
            "cohomology.build_s": self.build_s,
            "cohomology.self_s": self.self_s["table"],
            "linalg.rank_calls": c["rank"],
            "linalg.rank_busy_s": b["rank"],
            "linalg.matmul_calls": c["matmul"],
            "linalg.matmul_busy_s": b["matmul"],
            "linalg.stack_busy_s": b["stack"],
            "linalg.rank_entries": self.counts["rank_entries"],
            "linalg.rank_nnz": self.counts["rank_nnz"],
            "linalg.rank_sum": self.counts["rank_sum"],
            "metrics.positive_calls": c["positive"],
            "metrics.pluriclosed_calls": c["pluriclosed"],
            "metrics.balanced_calls": c["balanced"],
            "metrics.busy_s": metrics_busy,
            "metrics.balanced_true": self.counts["balanced_true"],
            "bench.op_busy_s": b["op"],
        }

    def dump(self, path):
        """One JSON line per recorded span; ``parent`` is a span ``id`` or -1."""
        with open(path, "w") as out:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op_id}) + "\n")


def matrix_stats(m) -> tuple[int, int, int]:
    """(rows, cols, nonzero entries) of a matrix handed to the rank routine,
    read from the dense row-list layout of ``ExactMatrix``; zeros otherwise."""
    entries = getattr(m, "entries", None)
    if not isinstance(entries, list):
        return 0, 0, 0
    return m.rows, m.cols, sum(1 for row in entries for e in row if e)
