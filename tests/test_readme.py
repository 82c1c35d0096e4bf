"""The README's Library example runs and prints what the package computes."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def first_python_block(text: str) -> str:
    """The body of the first fenced ```` ```python ```` block of ``text``."""
    _, fence, rest = text.partition("```python\n")
    assert fence, "no python block"
    body, fence, _ = rest.partition("\n```")
    assert fence, "python block is not closed"
    return body


def test_library_example_prints_its_choice_and_expected_rewards():
    code = first_python_block(README.read_text(encoding="utf-8"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue() == "a (0.6666666666666666, 0.6666666666666666, 0.3333333333333333)\n"
