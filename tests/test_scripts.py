"""Smoke runs of the helper scripts, so an API change cannot leave them broken."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args", [
    ("law_survey.py", ["--trunc", "8", "--nmax", "2"]),
    ("jacobi_scaling.py", ["--bmax", "2", "--trunc", "8"]),
    ("bracket_defects.py", ["--weight", "4"]),
])
def test_script_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
