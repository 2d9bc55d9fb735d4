"""Smoke tests: the quadrature, tail-shape and torus demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["condensation_constant.py", "tail_shapes.py", "torus_condensation.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), BIGJUMPS_OUT_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    if name == "condensation_constant.py":
        assert "diverged=True" in proc.stdout
    if name == "torus_condensation.py":
        assert "g(1/sqrt(2)) in d = 2: 0.7853981634" in proc.stdout
