"""Count the code lines of Python modules: no docstrings, comments or blanks.

A line is a code line when some token other than a comment, a newline or an
indent starts on it or spans it, and it lies in no docstring (the string
that opens a module, a class or a function body, by ``ast``).  A string
that is not a docstring is code on every line it spans.

    python tests/code_lines.py src/edit_mbr

prints each module's count and the total.  The path may be a file or a
directory, which is searched recursively for ``*.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the Python source ``text``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/code_lines.py PATH", file=sys.stderr)
        return 1
    root = Path(argv[0])
    paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,}  {path}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
