"""Every engine name the benchmark uses still exists.

``perfbench/tracing.py`` reports a renamed or deleted hook as a missing
layer instead of failing, so a refactor could silently blind the trace, and
the workloads reach the engine only through attribute chains on the imported
package, so a rename would first show as a failed benchmark run.  The
benchmark files are read with ``ast``: none of them is imported or run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _engine_chains(path: Path) -> set:
    """Every ``nc.<module>.<name>...`` chain in a file, as (module, names).

    ``nc`` is the engine package; a name bound to ``nc.<module>``, as in
    ``m = nc.metrics`` or ``parser, model = nc.parser, nc.model``, stands
    for that module wherever it appears in the file.
    """
    tree = ast.parse(path.read_text())

    def module_of(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "nc"):
            return node.attr
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for name, expr in pairs:
                if isinstance(name, ast.Name) and module_of(expr):
                    aliases[name.id] = module_of(expr)

    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            continue
        if node.id == "nc" and len(names) >= 2:
            chains.add((names[0], tuple(names[1:])))
        elif node.id in aliases and names:
            chains.add((aliases[node.id], tuple(names)))
    return chains


def test_every_engine_name_the_workloads_use_resolves():
    chains = set()
    for name in ("workloads.py", "coframe.py"):
        chains |= _engine_chains(PERFBENCH / name)
    names = {(module, names[0]) for module, names in chains}
    # among them the names a parser or model refactor could break
    assert {("parser", "render"), ("model", "Lit"), ("algebra", "BasisElement"),
            ("model", "ComplexStructureTemplate")} <= names
    for module, attrs in sorted(chains):
        owner = importlib.import_module(f"nilcohom.{module}")
        for attr in attrs:
            assert hasattr(owner, attr), f"nc.{module}." + ".".join(attrs)
            owner = getattr(owner, attr)
