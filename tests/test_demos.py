"""Every script in demos/ runs to completion against the source tree and
prints exactly its committed stdout, tests/demo_stdout/<script>.txt.  After
a deliberate change to what a demo prints, rewrite its file with
``PYTHONPATH=src python demos/<script>.py > tests/demo_stdout/<script>.txt``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{script.stem}.txt").read_text(), script.name
