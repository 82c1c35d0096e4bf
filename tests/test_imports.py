"""Every name a module under ``src/`` or ``tests/`` imports is read somewhere in it.

A name is read when it appears as a loaded ``Name`` (an attribute chain's
base counts).  Names re-exported through ``__all__`` and imports on a line
marked ``# traced by perfbench/child.py`` (kept so the benchmark can replace
them by name) are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = "# traced by perfbench/child.py"


def unread_imports(text: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    lines = text.splitlines()
    imported: dict[str, int] = {}
    exported: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        (line, name)
        for name, line in imported.items()
        if name not in read and name not in exported and TRACED not in lines[line - 1]
    ]


def python_files() -> list[Path]:
    return sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py"))


def test_every_import_in_src_and_tests_is_read():
    files = python_files()
    assert {path.relative_to(ROOT).parts[0] for path in files} == {"src", "tests"}
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert unread == []


def test_scan_reports_unread_names_and_honours_the_exemptions():
    text = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import sys.path\n"
        "from math import (\n"
        "    inf,  # traced by perfbench/child.py\n"
        "    pi,\n"
        ")\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(sys.argv, osp)\n"
    )
    assert unread_imports(text) == [(2, "os"), (7, "pi"), (9, "dumps")]
