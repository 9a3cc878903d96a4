"""Count code lines by AST: the size measure of every simplicity change.

A line counts when it holds a token other than a comment, a newline, an
indent or a dedent, and lies outside every module, class and function
docstring.  So blank lines, comments and docstrings never count, and a
statement split over several lines counts each of them.

    python benchmarks/code_lines.py                  # all of src/
    python benchmarks/code_lines.py src/repro/nn src/repro/fl/training.py

Prints the total over the given files and directories (``*.py``,
recursively).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: tokens that make no line code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(paths: list[Path]) -> int:
    """Code lines over ``paths``: files, and every ``*.py`` under a directory."""
    files = [
        f for p in paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])
    ]
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv: list[str]) -> int:
    print(count([Path(a) for a in argv] or [SRC]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
