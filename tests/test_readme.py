"""The README's Library example runs and prints what its comments say, each
command of its CLI block runs, and every call the README names in backticks exists.

Each ``print(...)  # value`` line is checked against the line it
prints: exactly, or within 5 % for a ``# ~number unit`` comment.
"""

import contextlib
import dataclasses
import importlib
import io
import pkgutil
import re
import shlex
import shutil
from pathlib import Path

import pytest

import jamsim
from jamsim.cli import run_cli

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


def cli_commands() -> list[list[str]]:
    """The arguments of each ``jamsim ...`` line of the CLI section's shell block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text[text.index("\n## CLI\n"):], re.DOTALL).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("jamsim ")]


def test_cli_example_commands_run(tmp_path, monkeypatch, capsys):
    commands = cli_commands()
    assert [argv[0] for argv in commands] == ["scenarios", "run", "run", "response"]
    shutil.copytree(README.parent / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    verdict = re.search(r"prints a verdict line such as `([^`]+)`",
                        README.read_text(encoding="utf-8")).group(1)
    for argv in commands:
        capsys.readouterr()
        assert run_cli(argv) == 0, argv
        if argv[:3] == ["run", "--builtin", "2"]:
            assert capsys.readouterr().out == verdict + "\n"


def readme_calls() -> set[str]:
    """The name of each inline code span that starts ``name(``, outside fenced blocks."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    spans = re.findall(r"(`+)(.+?)(?<!`)\1(?!`)", text, flags=re.DOTALL)  # ``a`` or `a`
    return {m.group(1) for _, span in spans if (m := re.match(r"([A-Za-z_][\w.]*)\(", span))}


def resolve(name: str):
    """`name`, dotted or not, from jamsim, one of its modules, or dataclasses; None if absent."""
    modules = [jamsim, dataclasses, *(importlib.import_module(f"jamsim.{info.name}")
                                      for info in pkgutil.iter_modules(jamsim.__path__))]
    head, *rest = name.split(".")
    for module in modules:
        found = getattr(module, head, None)
        for part in rest:
            found = getattr(found, part, None)
        if found is not None:
            return found
    return None


def test_every_call_the_readme_names_exists():
    calls = readme_calls()
    assert {"apply_filter", "replace", "Pipeline"} <= calls
    assert [name for name in sorted(calls) if not callable(resolve(name))] == []
