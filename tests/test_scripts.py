"""Each script under scripts/ runs to completion on a small input.

The scripts use the public API, so a renamed or deleted name breaks them;
running them here turns that into a test failure.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# small arguments for each script, a fraction of a second apiece
SCRIPT_ARGS = {
    "lln_scaling.py": ["--populations", "50,200", "--replicas", "20",
                       "--grid-points", "11"],
    "clt_covariance.py": ["--population", "500", "--replicas", "120"],
    "absorption_times.py": ["--populations", "10,20", "--replicas", "40"],
}


def test_every_script_has_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == \
        sorted(SCRIPT_ARGS)


@pytest.mark.parametrize("script", sorted(SCRIPT_ARGS))
def test_script_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / script),
         *SCRIPT_ARGS[script]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
