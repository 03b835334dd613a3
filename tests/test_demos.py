"""Every demo script, and the README's quick start, runs against the current library API."""

import glob
import os
import re
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


def test_readme_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    code = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", readme,
                     re.DOTALL | re.MULTILINE).group(1)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
