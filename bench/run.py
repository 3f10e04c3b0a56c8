"""fglcalc benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify-mult --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Every operation is one fresh `fglcalc`
process started through bench/launch.py, one at a time (a closed loop with
a single client); FGLCALC_THREADS is left unset.  The last stdout line is
the result object; the line before it is the full record (environment,
per-operation times, sample counts).

--trace 0 runs whole passes over the workload's operations until the next
one would overrun --seconds, then fills the rest with set-up probes, and
reports the end-to-end metrics.  --trace 1 runs three passes whatever
--seconds says: one plain, one timing the series/fgl/calculus/vertex/cli
layers, and one that also counts ring calls, and reports the per-layer
metrics.

`--record-reference` rewrites bench/reference.json from the current code;
do that only for a commit whose output is known good.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
REFERENCE = os.path.join(HERE, "reference.json")
MARK = "FGLBENCH "
DEADLINE_S = 170.0

LAWS = {
    "additive": ["--kind", "additive"],
    "multiplicative": ["--kind", "multiplicative"],
    "one_parameter": ["--kind", "one_parameter"],
    "elliptic": ["--kind", "elliptic"],
    "p_typical(2,1)": ["--kind", "p_typical", "--p", "2", "--h", "1"],
    "p_typical(3,1)": ["--kind", "p_typical", "--p", "3", "--h", "1"],
}

# checks that f-calculus runs for `verify`, by the name verify reports
CALCULUS_CHECKS = {
    "binom": "calculus.f_binomial_identities",
    "delta_support": "calculus.delta_support_check",
    "delta_g_relation": "calculus.delta_g_relation_check",
    "delta_invariant_factor": "calculus.delta_phi_relation_check",
    "delta_jacobi": "calculus.f_jacobi_delta_check",
    "residue_delta_unit": "calculus.delta_residue_check",
    "residue_theorems": "calculus.residue_theorems_check",
    "residue_inversion": "calculus.residue_inversion_check",
    "residue_iterated": "calculus.iterated_residue_check",
    "hyper": "calculus.hyperderivative_properties",
}

CELL_KEYS = ("window_size", "entries_checked", "cells")


def operations(workload, seed):
    """The workload's operations as (reference key, fglcalc argv) pairs."""
    if workload in ("verify-mult", "verify-elliptic"):
        kind = "multiplicative" if workload == "verify-mult" else "elliptic"
        return [(f"verify:{kind}", ["verify", "--suite", "all", "--kind",
                                    kind, "--seed", str(seed)])]
    if workload == "law-build":
        # fgl has no random input; the seed only orders the cold builds
        ops = [(f"fgl:{name}", ["fgl", "--trunc", "24"] + args)
               for name, args in LAWS.items()]
        random.Random(seed).shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-mult", "verify-elliptic", "law-build")


# -- running one operation -------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.pop("FGLCALC_THREADS", None)
    # string hashing fixed so that traced call counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


class Deadline(Exception):
    pass


def launch(mode, argv, deadline):
    """Run one operation; return stdout bytes, exit code and measurements."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, LAUNCH, mode] + argv, cwd=ROOT,
                              env=child_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise Deadline()
    wall = time.monotonic() - t0
    info = {}
    for line in proc.stderr.decode(errors="replace").splitlines():
        if line.startswith(MARK):
            info = json.loads(line[len(MARK):])
    rec = {"wall_s": wall, "exit": proc.returncode,
           "cpu_s": info.get("cpu_s"),
           "rss_mb": info["maxrss_kb"] / 1024 if "maxrss_kb" in info else None,
           "setup_s": info["setup_end"] - t0 if "setup_end" in info else None}
    return proc.stdout, rec, info.get("trace")


# -- output checks -------------------------------------------------------------


def shift_seeds(obj, seed):
    """The reference (recorded at --seed 0) as it reads at `seed`: verify
    echoes its seed, and seed + k for the k-th seeded check."""
    if isinstance(obj, dict):
        return {k: (v + seed if k == "seed" else shift_seeds(v, seed))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [shift_seeds(v, seed) for v in obj]
    return obj


def reference_view(key, payload):
    """The part of a payload the reference pins: each verify report's check
    name and window, or every fgl coefficient row."""
    if key.startswith("verify:"):
        return [[row["check"], rep["window"]]
                for row, rep in zip(payload["rows"], payload["reports"])]
    return [[r["series"], r["exp"], r["coeff"]] for r in payload["rows"]]


def certified_cells(key, payload):
    if key.startswith("verify:"):
        return sum(rep.get("details", {}).get(k, 0)
                   for rep in payload["reports"] for k in CELL_KEYS)
    return len(payload["rows"])


def check_output(key, stdout, code, seed, reference):
    """(error or None, certified cells) for one operation's output."""
    if code != 0:
        return f"exit code {code}", 0
    try:
        payload = json.loads(stdout)
    except ValueError as e:
        return f"stdout is not JSON: {e}", 0
    if key.startswith("verify:"):
        if payload.get("ok") is not True:
            return "verify reported ok != true", 0
        bad = [r["check"] for r in payload["rows"] if r["status"] != "pass"]
        if bad:
            return f"checks not passing: {bad}", 0
    if reference_view(key, payload) != shift_seeds(reference[key], seed):
        return "output differs from the recorded reference", 0
    return None, certified_cells(key, payload)


# -- passes ----------------------------------------------------------------------


def run_pass(ops, mode, seed, reference, deadline):
    recs, outs, traces = [], [], []
    for key, argv in ops:
        stdout, rec, trace = launch(mode, argv, deadline)
        rec["op"] = key
        if mode == "setup":
            ok = rec["exit"] == 0 and rec["setup_s"] is not None
            rec["error"] = None if ok else "set-up probe did not reach load_law"
            rec["cells"] = 0
        else:
            rec["error"], rec["cells"] = check_output(key, stdout, rec["exit"],
                                                      seed, reference)
            if mode != "run" and trace is None and rec["error"] is None:
                rec["error"] = "traced process sent no spans"
        recs.append(rec)
        outs.append(stdout)
        traces.append(trace)
    setups = [r["setup_s"] for r in recs]
    return {"wall_s": sum(r["wall_s"] for r in recs),
            "setup_s": sum(setups) if None not in setups else None,
            "cells": sum(r["cells"] for r in recs),
            "ops": recs, "stdout": outs, "traces": traces}


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"pct": 100 * (n - 10) // n, "value": sorted(values)[n - 11]}


def untraced(ops, seed, seconds, reference, start, deadline):
    # one set-up probe first, untimed: it compiles bytecode and warms the
    # file cache, which every later operation would otherwise pay unevenly
    launch("setup", ops[0][1], deadline)
    passes = [run_pass(ops, "run", seed, reference, deadline)]
    while (time.monotonic() - start
           + statistics.median(p["wall_s"] for p in passes) <= seconds):
        passes.append(run_pass(ops, "run", seed, reference, deadline))
    probes = []
    while all(p["setup_s"] is not None for p in passes + probes):
        est = statistics.median(p["wall_s"] for p in probes) if probes \
            else statistics.median(p["setup_s"] for p in passes)
        if time.monotonic() - start + est > seconds:
            break
        probes.append(run_pass(ops, "setup", seed, reference, deadline))

    ops_run = [r for p in passes + probes for r in p["ops"]]
    failed = sum(r["error"] is not None for r in ops_run)
    walls = [p["wall_s"] for p in passes]
    setups = [p["setup_s"] for p in passes + probes if p["setup_s"] is not None]
    cells = {p["cells"] for p in passes}
    rss = [r["rss_mb"] for r in ops_run if r["rss_mb"] is not None]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups) if setups else None, "s"),
        "peak_rss_mb": (max(rss) if rss else None, "MB"),
        "pass_ratio": ((len(ops_run) - failed) / len(ops_run), "ratio"),
        "certified_cells": (min(cells), "count"),
    }
    record = {
        "wall_s": {"median": metrics["wall_s"][0], "n": len(walls),
                   "tail": tail(walls)},
        "setup_s": {"median": metrics["setup_s"][0], "n": len(setups)},
        "fail_ratio": failed / len(ops_run),
        "certified_cells_per_pass": sorted(cells),
        "passes": [strip(p) for p in passes],
        "setup_probes": [strip(p) for p in probes],
    }
    correct = failed == 0 and len(cells) == 1
    return correct, len(ops_run), failed, metrics, record


def strip(p):
    return {"wall_s": p["wall_s"], "setup_s": p["setup_s"],
            "cells": p["cells"], "ops": p["ops"]}


# -- traced run --------------------------------------------------------------------


def merge(traces):
    out = {"calls": {}, "self_s": {}, "incl_s": {}, "layer_self_s": {},
           "max_terms": 0, "window_misses": 0}
    for t in traces:
        for part in ("calls", "self_s", "incl_s", "layer_self_s"):
            for k, v in t[part].items():
                out[part][k] = out[part].get(k, 0) + v
        out["max_terms"] = max(out["max_terms"], t["max_terms"])
        out["window_misses"] += t["window_misses"]
    return out


def layer_metrics(timed, ring, plain_wall, timed_wall, ring_wall):
    c, s, i, ls = (timed["calls"], timed["self_s"], timed["incl_s"],
                   timed["layer_self_s"])
    rc, rls = ring["calls"], ring["layer_self_s"]
    m = {
        "ring.mul.calls": (rc.get("ring.Ring.mul", 0), "count"),
        "ring.add.calls": (rc.get("ring.Ring.add", 0), "count"),
        "ring.is_zero.calls": (rc.get("ring.Ring.is_zero", 0), "count"),
        "ring.self_s": (rls.get("ring", 0.0), "s"),
        "series.laurent_mul.calls": (c["series.LaurentElement.__mul__"], "count"),
        "series.laurent_mul.self_s": (s["series.LaurentElement.__mul__"], "s"),
        "series.laurent_add.self_s": (s["series.LaurentElement.__add__"], "s"),
        "series.int_power.calls": (c["series.LaurentElement.int_power"], "count"),
        "series.int_power.s": (i["series.LaurentElement.int_power"], "s"),
        "series.power_mul.calls": (c["series.PowerSeries.__mul__"], "count"),
        "series.power_mul.self_s": (s["series.PowerSeries.__mul__"], "s"),
        "series.substitute.s": (i["series.substitute"], "s"),
        "series.max_terms": (timed["max_terms"], "count"),
        "series.self_s": (ls.get("series", 0.0), "s"),
        "fgl.law_build.calls": (c["fgl.standard_law"] + c["fgl.fgl_new"], "count"),
        "fgl.law_build.s": (i["fgl.law_build"], "s"),
        "fgl.validate.s": (i["fgl.FormalGroupLaw.validate"], "s"),
    }
    for check, span in CALCULUS_CHECKS.items():
        m[f"calculus.{check}.s"] = (i[span], "s")
    m.update({
        "calculus.self_s": (ls.get("calculus", 0.0), "s"),
        "calculus.window_misses": (timed["window_misses"], "count"),
        "vertex.calls": (sum(v for k, v in c.items()
                             if k.startswith("vertex.")), "count"),
        "vertex.heisenberg_build.s": (i["vertex.HeisenbergAlgebra.__init__"], "s"),
        "vertex.jacobi.s": (i["vertex.jacobi_identity_check"], "s"),
        "vertex.lie_axioms.s": (i["vertex.lie_axiom_check"], "s"),
        "vertex.self_s": (ls.get("vertex", 0.0), "s"),
        "cli.main.s": (i["cli.main"], "s"),
        "cli.emit.s": (i["cli.emit"], "s"),
        "traced_wall_s": (timed_wall, "s"),
        "trace_overhead_s": (timed_wall - plain_wall, "s"),
        "series_ring.self_share": (
            (rls.get("series", 0.0) + rls.get("ring", 0.0)) / ring_wall,
            "ratio"),
    })
    return m


def traced(ops, seed, reference, deadline):
    plain = run_pass(ops, "run", seed, reference, deadline)
    timed = run_pass(ops, "time", seed, reference, deadline)
    ring = run_pass(ops, "ring", seed, reference, deadline)
    problems = []
    for p in (timed, ring):
        for k, (a, b) in enumerate(zip(plain["stdout"], p["stdout"])):
            if a != b:
                problems.append(f"{ops[k][0]}: traced stdout differs from plain")
    ops_run = [r for p in (plain, timed, ring) for r in p["ops"]]
    failed = sum(r["error"] is not None for r in ops_run)
    if failed:
        return False, len(ops_run), failed, {}, {
            "passes": [strip(p) for p in (plain, timed, ring)]}
    t, r = merge(timed["traces"]), merge(ring["traces"])
    for key in ("calls", "max_terms", "window_misses"):
        want = t[key]
        got = r[key]
        if key == "calls":
            got = {k: v for k, v in got.items() if not k.startswith("ring.")}
        if want != got:
            problems.append(f"{key} differ between the two traced passes")
    metrics = layer_metrics(t, r, plain["wall_s"], timed["wall_s"],
                            ring["wall_s"])
    record = {"problems": problems,
              "passes": [strip(p) for p in (plain, timed, ring)],
              "timed_spans": t, "ring_spans": r}
    return not problems, len(ops_run), failed, metrics, record


# -- environment and entry point -------------------------------------------------------


def environment():
    commit = None
    try:
        # the ceiling keeps git from reporting an enclosing repository
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=
                                      os.path.dirname(ROOT)))
        if out.returncode == 0:
            commit = out.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "fglcalc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": h.hexdigest()}


def record_reference():
    reference = {}
    deadline = time.monotonic() + 3600
    for workload in WORKLOADS:
        for key, argv in operations(workload, 0):
            stdout, rec, _ = launch("run", argv, deadline)
            if rec["exit"] != 0:
                sys.exit(f"{key}: exit code {rec['exit']}")
            reference[key] = reference_view(key, json.loads(stdout))
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fglcalc", "cli.py")):
        sys.exit(f"no fglcalc sources under {ROOT}/src: run from a checkout")
    if args.record_reference:
        record_reference()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    with open(REFERENCE) as fh:
        reference = json.load(fh)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = environment()
    env["loadavg_start"] = os.getloadavg()[0]
    ops = operations(args.workload, args.seed)
    try:
        if args.trace:
            correct, attempted, failed, metrics, record = traced(
                ops, args.seed, reference, deadline)
        else:
            correct, attempted, failed, metrics, record = untraced(
                ops, args.seed, args.seconds, reference, start, deadline)
    except Deadline:
        sys.exit(f"{args.workload}: not finished within {DEADLINE_S:.0f} s")
    env["loadavg_end"] = os.getloadavg()[0]
    record.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": env, "elapsed_s": time.monotonic() - start})
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
