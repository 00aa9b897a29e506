"""The README's command-line examples, run as written."""

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
