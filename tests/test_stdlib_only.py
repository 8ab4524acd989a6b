import ast
import sys
from pathlib import Path

import nilcohom

SOURCES = sorted(Path(nilcohom.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    """(line, top-level module name) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="ascii"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = [f"{path.name}:{line}: {name}"
               for path in SOURCES
               for line, name in _absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == []
