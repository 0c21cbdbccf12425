"""Every demo script runs to completion in a fresh interpreter."""

import glob
import os
import subprocess
import sys

import pytest

import geomgate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(tmp_path, script):
    # the demos write their CSV and PNG files into the working directory
    src = os.path.dirname(os.path.dirname(geomgate.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
