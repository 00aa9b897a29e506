"""The README's Python quick start and command-line examples, run as written."""

import shlex
from pathlib import Path

from slpforge.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv, RESULT line) for every `$ slpforge` example, in README order."""
    examples = []
    argv = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ slpforge "):
            argv = shlex.split(line[len("$ slpforge "):])
        elif argv is not None and line.startswith("RESULT "):
            examples.append((argv, line))
            argv = None
    return examples


def test_every_readme_example_prints_its_result_line(tmp_path, monkeypatch, capsys):
    # The examples read each other's files, so they run in order in one
    # directory; every RESULT line must equal the README's byte for byte.
    examples = readme_examples()
    assert len(examples) == 10
    monkeypatch.chdir(tmp_path)
    for argv, expected in examples:
        code = main(argv)
        out = capsys.readouterr().out.splitlines()
        assert code == 0, argv
        assert out and out[-1] == expected, argv


def quick_start_block() -> str:
    """The Python block under the README's Quick start heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Quick start")) + len("```python\n")
    return text[start:text.index("```", start)]


def test_the_quick_start_prints_what_its_comments_say(capsys):
    # Each print line ends in a comment holding the line it prints.
    block = quick_start_block()
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    assert expected == ["2", "True"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
