"""The demos print, byte for byte, the text committed in tests/demo_output.

Their output holds no timings and no floats, so it is the same on every
run; a change that alters it updates the committed text on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


def test_every_demo_has_its_committed_output():
    assert DEMOS
    assert [demo.stem for demo in DEMOS] == sorted(text.stem for text in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_a_demo_prints_its_committed_output(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (EXPECTED / f"{demo.stem}.txt").read_text()
