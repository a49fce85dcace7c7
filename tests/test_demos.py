"""Each demo runs to completion against the package in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["demo_complex_growth.py", "demo_limit_formula.py", "demo_local_spectrum.py",
         "demo_pde_probe.py", "demo_reconstruction.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout
