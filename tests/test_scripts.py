"""Smoke runs of the helper scripts, so an API change cannot leave them broken."""

import os
import shutil
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


def _run_gate(args):
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "payload_gate.py"), *args],
                          capture_output=True, text=True, timeout=300)


def test_payload_gate_against_itself():
    done = _run_gate(["--against", str(ROOT / "src"), "--select", "fgl --kind additive"])
    assert done.returncode == 0, done.stdout + done.stderr
    assert "3 commands agree" in done.stdout


def test_payload_gate_reports_a_difference(tmp_path):
    # a copy of the package whose JSON output is indented differently
    pkg = tmp_path / "fglcalc"
    shutil.copytree(ROOT / "src" / "fglcalc", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = pkg / "cli.py"
    cli.write_text(cli.read_text().replace("indent=2", "indent=3"))
    done = _run_gate(["--against", str(tmp_path), "--select", "fgl --kind additive --trunc 8"])
    assert done.returncode == 1, done.stdout + done.stderr
    assert "DIFFERS  fgl --kind additive --trunc 8" in done.stdout
    assert _run_gate(["--against", str(tmp_path / "nowhere")]).returncode == 2
