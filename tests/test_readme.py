"""The README's Library example runs and prints what its comments say.

Each ``print(...)  # value`` line is checked against the line it
prints: exactly, or within 5 % for a ``# ~number unit`` comment.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library section has no python block"
    return match.group(1)


def test_library_example_prints_what_it_documents():
    code = library_example()
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    assert expected, "the Library example documents no output"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.startswith("~"):
            assert float(got) == pytest.approx(float(want[1:].split()[0]), rel=0.05)
        else:
            assert got == want
