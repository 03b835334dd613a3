"""Every demo script runs to completion against the current library API."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))
SLOW = {"05_scaling_sweep.py"}  # about 6 s, and writes demo_out/


@pytest.mark.parametrize("path", [
    pytest.param(path, id=os.path.basename(path),
                 marks=[pytest.mark.slow] if os.path.basename(path) in SLOW else [])
    for path in DEMOS
])
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
