"""Every engine callable the benchmark tracer wraps still exists.

``perfbench/tracing.py`` reports a renamed or deleted hook as a missing
layer instead of failing, so a refactor could silently blind the trace.  The
hook list is read with ``ast``: the tracer is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks() -> list:
    for node in ast.parse(TRACING.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["HOOKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no HOOKS list in {TRACING.name}")


def test_every_benchmark_hook_resolves():
    hooks = _hooks()
    assert hooks
    for _, _, module_name, attr in hooks:
        # as the tracer looks them up: a module attribute, or a method in the
        # class's own namespace
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert part in vars(owner), f"{module_name}.{attr}"
            owner = vars(owner)[part]
        assert callable(owner), f"{module_name}.{attr}"
