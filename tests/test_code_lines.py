"""The code-line counter: docstrings, comments and blank lines are not code."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

COUNTER = Path(__file__).resolve().parent / "code_lines.py"

SNIPPET = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment is on a code line

# A comment line.


class Thing:
    """Class docstring."""

    size = 1

    def method(self):
        """Method
        docstring.
        """
        # Comment inside a body.
        text = """not a
docstring"""
        return text


async def job():
    \'\'\'Async docstring.\'\'\'
    return (
        1,
    )


def bare():
    "one-line docstring"
    x = 1; "a str expression after code is no docstring"
    "nor is a second string statement"
    return x
'''
# Code lines: import os; class Thing; size = 1; def method; both lines of
# the multi-line string's assignment; return text; async def job; the three
# lines of its return; def bare; the x line; the second string; return x.
SNIPPET_LINES = 15


def test_counts_the_seeded_snippet_exactly():
    assert code_lines(SNIPPET) == SNIPPET_LINES


def test_command_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# c\ny = 2\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(COUNTER), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines() == [
        f"{SNIPPET_LINES:6,}  {tmp_path / 'a.py'}",
        f"{2:6,}  {tmp_path / 'sub' / 'b.py'}",
        f"{SNIPPET_LINES + 2:6,}  total",
    ]
