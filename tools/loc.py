"""Code lines per module: physical lines less comments, docstrings and blanks.

    python3 tools/loc.py [PATH ...]

Each PATH is a Python file or a directory searched for ``*.py`` files; the
default is ``src/nilcohom``.  A line counts when a token other than a
comment or a line break lies on it (``tokenize``), unless it lies inside a
docstring: the string that opens a module, class or function body (``ast``).
Every line of a multi-line string that is not a docstring counts.  Prints
one ``count path`` line per module and then the total.  Standard library
only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers covered by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    code: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    roots = [Path(arg).resolve() for arg in argv] or [ROOT / "src" / "nilcohom"]
    files = sorted(f for root in roots
                   for f in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
