"""Smoke runs of the helper scripts and the benchmark's traced pass, and the
package's exports, so an API change cannot leave them broken."""

import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fglcalc

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
    # every differing command is reported, not only the first
    done = _run_gate(["--against", str(tmp_path), "--select", "fgl --kind additive"])
    assert done.returncode == 1, done.stdout + done.stderr
    for trunc in ("8", "13", "24"):
        assert f"DIFFERS  fgl --kind additive --trunc {trunc}:" in done.stdout
    assert "3 of 3 commands differ" in done.stdout
    assert _run_gate(["--against", str(tmp_path / "nowhere")]).returncode == 2


def test_every_mutant_text_occurs_once():
    # the mutation gate's list cannot rot silently: each mutant's text is
    # still in its file exactly once (no mutant is run here)
    mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))["MUTANTS"]
    for name, text, replacement, label, expected, killer in mutants:
        assert (ROOT / "src" / "fglcalc" / name).read_text().count(text) == 1, label
        assert replacement != text, label
        assert expected == "killed" or expected.startswith("equivalent: "), label
        # a killed mutant names the test node the gate runs first
        assert (killer is not None) == (expected == "killed"), label


def test_every_mutant_killer_is_a_collected_test():
    # the node each killed mutant names is one that pytest collects, so a
    # renamed or deleted test shows here and not as an error of the gate
    mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))["MUTANTS"]
    nodes = sorted({m[5] for m in mutants if m[5]})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *nodes],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(nodes) <= set(done.stdout.splitlines())


def test_reach_map_lists_every_function_no_command_enters():
    # scripts/reach.py --subset runs 17 of the payload gate's commands under
    # the profiler (the full run checks that they enter the same defs as all
    # of the gate's): every def
    # they do not enter is in LIBRARY_SURFACE, and every name listed there is
    # a def they do not enter
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "reach.py"), "--subset"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    reach = runpy.run_path(str(ROOT / "scripts" / "reach.py"))
    listed = [name for name, _ in reach["LIBRARY_SURFACE"]]
    assert len(set(listed)) == len(listed)
    # the verdict names a def neither entered nor listed, and a listed name
    # that is entered or gone
    names = set(listed) | {"fgl.unlisted"}
    assert reach["problems"](names - {listed[0]}, {listed[1]}) == [
        "not entered and not listed: fgl.unlisted",
        f"listed but entered: {listed[1]}",
        f"listed but no such def: {listed[0]}"]


def test_every_export_resolves():
    assert len(set(fglcalc.__all__)) == len(fglcalc.__all__)
    assert set(fglcalc.__all__) <= set(dir(fglcalc))
    missing = [name for name in fglcalc.__all__ if not hasattr(fglcalc, name)]
    assert missing == []
    ns = {}
    exec("from fglcalc import *", ns)
    assert set(fglcalc.__all__) <= set(ns)


def test_bench_reads_every_traced_name():
    # one ring-mode operation through bench/launch.py, its trace fed to
    # bench/run.py's merge and layer_metrics as the traced benchmark does:
    # a span that left the package is a KeyError here.  -B and exec keep
    # bench/ unwritten.
    bench = ROOT / "bench"
    done = subprocess.run([sys.executable, "-B", str(bench / "launch.py"), "ring",
                           "fgl", "--kind", "additive", "--trunc", "8"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    path = bench / "run.py"
    run = {"__name__": "bench_run", "__file__": str(path)}
    exec(compile(path.read_text(), str(path), "exec"), run)
    mark = run["MARK"]
    info = json.loads([line for line in done.stderr.splitlines()
                       if line.startswith(mark)][-1][len(mark):])
    trace = run["merge"]([info["trace"]])
    metrics = run["layer_metrics"](trace, trace, 1.0, 1.0, 1.0)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in per_layer)
