"""The import contract: a process imports only the modules its command runs.

Each check runs in a fresh interpreter, as this one has imported the whole
package, with ``src`` on its path.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilcohom
from nilcohom.algebra import Form
from nilcohom.cli import main

SRC = Path(nilcohom.__file__).resolve().parents[1]
# what figure-data and check leave unimported (check leaves the catalog too)
UNUSED = ["dataclasses", "json", "nilcohom.cohomology", "nilcohom.metrics"]
PUBLIC = [
    "BasisElement", "CohomologyTable", "ComplexStructure", "ComplexStructureTemplate", "Form",
    "Gaussian", "HermitianForm", "ParseError", "RealAlgebra", "basis", "check_d_squared",
    "check_nilpotency", "ddbar_lemma_status", "full_table", "instantiate", "is_balanced",
    "is_pluriclosed", "is_positive", "parse_binding", "parse_complex_structure",
    "parse_real_algebra", "render", "standard_form",
]


def _python(*args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def _imported_by(code: str) -> list[str]:
    """The modules that running ``code`` adds to a fresh interpreter's
    ``sys.modules``, of the package and of :data:`UNUSED`."""
    proc = _python("-c", "import sys; before = set(sys.modules)\n" + code + "\nprint(sorted(m "
                   "for m in set(sys.modules) - before if m.startswith('nilcohom') or m in "
                   f"{UNUSED!r}), file=sys.stderr)")
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr.splitlines()[-1])


def test_python_dash_m_runs_the_command_line(capsys):
    code = main(["figure-data"])
    out = capsys.readouterr().out
    proc = _python("-m", "nilcohom", "figure-data")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert out.startswith("case_id,Delta1,Delta2,Delta3\n00,0,0,0\n")
    code = main([])
    err = capsys.readouterr().err
    assert (_python("-m", "nilcohom").returncode, code) == (1, 1) and "usage: nilcohom" in err


def test_a_bare_import_imports_no_submodule():
    assert _imported_by("import nilcohom") == ["nilcohom"]
    # a submodule is not a name of the table: from-import falls back to importing it
    assert "nilcohom.cohomology" in _imported_by("from nilcohom import cohomology")


def test_figure_data_imports_neither_the_engine_nor_dataclasses_nor_json():
    loaded = _imported_by("from nilcohom.cli import main; main(['figure-data'])")
    assert "nilcohom.catalog" in loaded and not set(loaded) & set(UNUSED)


@pytest.mark.parametrize("text", ["(0,0,w12)", "(0,0,0,0,13+42,14+23)"])
def test_check_imports_neither_the_catalog_nor_the_engine(tmp_path, text):
    path = tmp_path / "structure.txt"
    path.write_text(text + "\n", encoding="ascii")
    loaded = _imported_by(f"from nilcohom.cli import main; assert main(['check', {str(path)!r}]) == 0")
    assert "nilcohom.model" in loaded
    assert not set(loaded) & {"nilcohom.catalog", *UNUSED}


def test_every_public_name_resolves_to_its_defining_module():
    assert nilcohom.__all__ == PUBLIC
    proc = _python("-c", "import sys; namespace = {}\n"
                   "exec('from nilcohom import *', namespace)\n"
                   "print(sorted((name, value.__module__, value is getattr("
                   "sys.modules[value.__module__], name)) for name, value in namespace.items() "
                   "if name != '__builtins__'))")
    bound = ast.literal_eval(proc.stdout)
    assert [name for name, _, _ in bound] == PUBLIC
    assert all(module.startswith("nilcohom.") and same for _, module, same in bound), bound
    for name in PUBLIC:
        value = getattr(nilcohom, name)
        assert value is getattr(sys.modules[value.__module__], name)
    with pytest.raises(AttributeError, match="no attribute 'cohomology_table'"):
        nilcohom.cohomology_table  # noqa: B018


def test_only_algebra_counts_monomials_and_only_linalg_multiplies_matrices():
    # algebra owns the layout: slot ranges, slot starts and sizes come from
    # it, so no other module imports a binomial or a subset enumerator; and
    # every product goes through ExactMatrix.apply, so only linalg uses @
    counting, counters, products = {"comb", "combinations"}, [], []
    for path in sorted((SRC / "nilcohom").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "attr", None)}  # math.comb
            if isinstance(node, (ast.Import, ast.ImportFrom)):  # from math import comb
                names.update(alias.name for alias in node.names)
            if path.stem != "algebra" and names & counting:
                counters.append((path.stem, node.lineno))
            if isinstance(getattr(node, "op", None), ast.MatMult) and path.stem != "linalg":
                products.append((path.stem, node.lineno))
    assert counters == [] and products == []


def test_a_form_is_a_value_with_one_reader_per_public_member():
    # the engine takes d, del delbar and wedges on integral columns, so a
    # Form only carries constants in and reports out; sums, multiples and
    # conjugates of forms are the tests' own (tests/d_oracle.py)
    public = {name for name in vars(Form) if not name.startswith("_")} - set(Form.__slots__)
    assert public == {
        "single",  # criterion 2, in tests/test_acceptance.py
        "is_zero",  # cli._cmd_skt, the parser's render and the abelian check
        "items",  # Form.__str__, which the d^2 reports print, and parser._render_real
        "coefficient",  # cli._cmd_skt
        "wedge",  # perfbench/tracing.HOOKS, until the trace drops that hook
    }


def _exactness_breaches(package: Path) -> list:
    """Where the sources of ``package`` leave exact arithmetic: a float or
    complex literal, a ``float(`` call, a name of ``math`` other than gcd,
    lcm and comb, or an import of ``random`` outside
    ``metrics.random_positive_forms``, as ``(module, line, what)``."""
    exact_math = {"gcd", "lcm", "comb"}
    breaches = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        seeded = set()  # the imports inside the one function that may draw
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == (
                    "metrics", "random_positive_forms"):
                seeded.update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            what = None
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                what = f"literal {node.value!r}"
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                what = "float("
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                what = ", ".join(sorted({a.name for a in node.names} - exact_math)) or None
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "math" and node.attr not in exact_math):
                what = f"math.{node.attr}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in seeded:
                modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                           else [node.module])
                what = "import random" if "random" in modules else None
            if what:
                breaches.append((path.stem, node.lineno, what))
    return breaches


def test_the_engine_computes_without_floats_or_unseeded_draws():
    # the exactness contract: Gaussian rationals only, and random draws only
    # where the seeded metric sweep makes its forms
    assert _exactness_breaches(SRC / "nilcohom") == []
