"""Every engine name the benchmark uses still exists and keeps its face.

``perfbench/tracing.py`` reports a renamed or deleted hook as a missing
layer instead of failing, so a refactor could silently blind the trace, and
the workloads reach the engine only through attribute chains on the imported
package, so a rename would first show as a failed benchmark run.  Those
files are read with ``ast``, not imported.  The dense_coframe generator,
``perfbench/coframe.py``, builds and reads monomials as index tuples; it
needs only the standard library, so it is loaded and run once here.
"""

import ast
import importlib
import importlib.util
import random
from pathlib import Path

import nilcohom
from nilcohom import algebra, catalog, cohomology, model, parser

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


def test_the_monomial_face_the_generator_relies_on():
    e = algebra.BasisElement((1, 3), (2,))
    assert (e.holo, e.anti) == ((1, 3), (2,))
    assert type(e.holo) is tuple and type(e.anti) is tuple
    assert algebra.BasisElement(e.holo, e.anti) == e
    # ordered lexicographically on (holo, anti), as coframe.py sorts its keys
    elems = [algebra.BasisElement(h, a) for h, a in
             [((1, 3), (2,)), ((1,), (2, 3)), ((1, 2), ()), ((), (1,)), ((1,), ())]]
    assert sorted(elems) == sorted(elems, key=lambda x: (x.holo, x.anti))
    assert sorted(elems)[0] == algebra.BasisElement((), (1,))

    spec = importlib.util.spec_from_file_location("coframe", PERFBENCH / "coframe.py")
    coframe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(coframe)
    case = catalog.case_by_id("02a")
    text = coframe.generate(nilcohom, case.template_text, case.binding_text, random.Random(0))
    rewritten = model.instantiate(parser.parse_complex_structure(text), {})
    assert text != parser.render(parser.parse_complex_structure(case.template_text))
    assert cohomology.full_table(rewritten).as_dict() == cohomology.full_table(case.structure).as_dict()
