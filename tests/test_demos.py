"""Each script under ``demos/`` runs to completion against this tree's ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # the demos write demo_runs/ under the working directory, and their
    # inputs to a fresh temporary directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
