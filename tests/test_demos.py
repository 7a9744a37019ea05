"""Each script in demos/ runs to completion without a warning or traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import passiveqkd

DEMOS = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_cleanly(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(Path(passiveqkd.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
