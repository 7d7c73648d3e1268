"""Every script under demos/ runs to completion against the package."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, cli):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=cli.env)
    assert proc.returncode == 0, proc.stderr
