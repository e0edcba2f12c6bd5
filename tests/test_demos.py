"""Every demo runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda d: d.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
