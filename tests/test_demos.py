"""Every demo script runs to completion from a clean working directory."""

import os
import pathlib
import subprocess
import sys

import pytest

import latticepath

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(pathlib.Path(latticepath.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    cwd, tmp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    env = {**os.environ, "TMPDIR": str(tmp),
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(cwd.iterdir()) == [] and list(tmp.iterdir()) == []  # nothing left behind
