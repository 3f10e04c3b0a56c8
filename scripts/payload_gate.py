"""Compare fglcalc's CLI payloads between this tree and another source tree.

Runs every command of the gate list once with this tree's ``src`` on
PYTHONPATH and once with the other tree's, and reports every command whose
stdout or exit code differs.  Stderr (timings) is not compared.  The
gate list: ``verify --suite all`` on the six built-in laws at seeds 0 and 3,
and at ``--trunc 14`` on elliptic and on one_parameter, where every check
reads one shared power table at a depth no other command reaches;
the failure and configuration-error paths, ``verify --suite binom
--inject-fault`` on additive and on elliptic (exit 1, with a first failure)
and ``verify --suite delta --kind multiplicative --trunc 15`` (exit 2, no
cell certified); the delta towers and vertex grids at B = 2 and on windows
clipped by floors, ``verify --suite delta --kind elliptic --window 2``,
``verify --suite delta --kind multiplicative --trunc 5``, ``verify --suite
vertex --kind multiplicative --window 2`` (exit 0), ``verify --suite
vertex --kind additive --weight 4`` (exit 2, a WindowMiss in the vertex
Jacobi check) and ``verify --suite vertex --kind additive --weight 5
--trunc 8`` (exit 0, the fixture law built as deep as its box reads); the
towers on capped powers at other depths, ``verify
--suite vertex`` on p_typical(2,1), ``verify --suite vertex --kind
multiplicative --weight 7`` and ``verify --suite delta`` on p_typical(2,1)
at ``--trunc 14``; the residue suite at high truncations, ``verify --suite
residue --trunc 16|24`` on elliptic and on p_typical(2,1); the
hyperderivative suite, ``verify --suite hyper`` on elliptic and on
p_typical(2,1), and on elliptic at ``--trunc 5``, where the orders it
checks are clipped to what the truncation certifies; the twisted powers
at other depths and over QQ[s], ``verify --suite residue --kind
one_parameter --trunc 16`` and ``verify --suite delta --trunc 14`` on
elliptic and on one_parameter; ``fgl --trunc
8|13|24`` on the six; ``binom`` on one_parameter (default and ``--nmin -3
--nmax 4``) and on elliptic;
``heisenberg --action commutators|shift|bracket_table`` on the additive law;
``heisenberg --action bracket_table|shift`` on multiplicative and on
p_typical(2,1), whose brackets carry a p_F correction; and ``fgl
--law-file`` on four law files written to a temporary directory, two
valid ones (exit 0) and two rejected ones (exit 2): a law with a "-3/2"
coefficient; p_typical(2,1)'s cells at trunc 10, a dense law whose
associativity is certified as F = E(L(z) + L(w)); a non-associative law of
w-degree 2, whose failing monomial the one-sided substitution locates; and
a law with a negative exponent.  67 commands in all.

Usage: python3 scripts/payload_gate.py --against OTHER/src [--select TEXT]

Exit codes: 0 every command agrees, 1 a command differs, 2 usage error.
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

KINDS = [["--kind", "additive"], ["--kind", "multiplicative"],
         ["--kind", "one_parameter"], ["--kind", "elliptic"],
         ["--kind", "p_typical", "--p", "2", "--h", "1"],
         ["--kind", "p_typical", "--p", "3", "--h", "1"]]

UNIT = [[1, 0, "1"], [0, 1, "1"]]
# the cells of p_typical(2,1) at trunc 10 with z-degree <= w-degree, as
# (i, j, F_ij); F is symmetric
P_TYPICAL = [(1, 1, -1), (1, 2, 1), (1, 3, -2), (1, 4, 3), (1, 5, -4), (1, 6, 6),
             (1, 7, -10), (1, 8, 15), (2, 2, -4), (2, 3, 10), (2, 4, -21),
             (2, 5, 43), (2, 6, -88), (2, 7, 169), (3, 3, -34), (3, 4, 101),
             (3, 5, -275), (3, 6, 680), (4, 4, -394), (4, 5, 1303)]
LAW_FILES = {
    "valid": {"name": "mult-file", "trunc": 8, "coeffs": UNIT + [[1, 1, "-3/2"]]},
    "dense": {"name": "p-typical-file", "trunc": 10,
              "coeffs": UNIT + [[a, b, str(c)] for i, j, c in P_TYPICAL
                                for a, b in dict.fromkeys([(i, j), (j, i)])]},
    "non_associative": {"trunc": 8, "coeffs": UNIT + [[1, 1, "1"], [2, 1, "1"],
                                                     [1, 2, "1"]]},
    "negative_exponent": {"trunc": 8, "coeffs": UNIT + [[-1, 2, "1"]]},
}


def gate_list(law_dir):
    cmds = [["verify", "--suite", "all", *kind, "--seed", seed]
            for kind in KINDS for seed in ("0", "3")]
    cmds += [["verify", "--suite", "all", *kind, "--trunc", "14"]
             for kind in (KINDS[3], KINDS[2])]
    cmds += [["verify", "--suite", "binom", "--kind", k, "--inject-fault"]
             for k in ("additive", "elliptic")]
    cmds += [["verify", "--suite", "delta", "--kind", "multiplicative", "--trunc", "15"]]
    cmds += [["verify", "--suite", "delta", "--kind", "elliptic", "--window", "2"],
             ["verify", "--suite", "delta", "--kind", "multiplicative", "--trunc", "5"],
             ["verify", "--suite", "vertex", "--kind", "multiplicative", "--window", "2"],
             ["verify", "--suite", "vertex", "--kind", "additive", "--weight", "4"],
             ["verify", "--suite", "vertex", "--kind", "additive", "--weight", "5",
              "--trunc", "8"]]
    cmds += [["verify", "--suite", "vertex", *KINDS[4]],
             ["verify", "--suite", "vertex", "--kind", "multiplicative", "--weight", "7"],
             ["verify", "--suite", "delta", *KINDS[4], "--trunc", "14"]]
    cmds += [["verify", "--suite", "residue", *kind, "--trunc", t]
             for kind in (KINDS[3], KINDS[4]) for t in ("16", "24")]
    cmds += [["verify", "--suite", "hyper", *kind] for kind in (KINDS[3], KINDS[4])]
    cmds += [["verify", "--suite", "hyper", *KINDS[3], "--trunc", "5"]]
    cmds += [["verify", "--suite", "residue", *KINDS[2], "--trunc", "16"]]
    cmds += [["verify", "--suite", "delta", *kind, "--trunc", "14"]
             for kind in (KINDS[3], KINDS[2])]
    cmds += [["fgl", *kind, "--trunc", t] for kind in KINDS for t in ("8", "13", "24")]
    cmds += [["binom", "--kind", "one_parameter"],
             ["binom", "--kind", "one_parameter", "--nmin", "-3", "--nmax", "4"],
             ["binom", "--kind", "elliptic"]]
    cmds += [["heisenberg", "--action", a] for a in ("commutators", "shift", "bracket_table")]
    cmds += [["heisenberg", "--action", a, *kind] for kind in (KINDS[1], KINDS[4])
             for a in ("bracket_table", "shift")]
    cmds += [["fgl", "--law-file", str(Path(law_dir) / f"{name}.json")]
             for name in LAW_FILES]
    return cmds


def _start(src, args):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    return subprocess.Popen([sys.executable, "-m", "fglcalc.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)


def _finish(proc):
    out, _ = proc.communicate(timeout=900)
    return proc.returncode, out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True,
                    help="the other tree's src directory (holding fglcalc/)")
    ap.add_argument("--select", default="",
                    help="run only the commands whose text contains this")
    args = ap.parse_args(argv)
    other = Path(args.against).resolve()
    if not (other / "fglcalc" / "cli.py").is_file():
        print(f"error: {other} holds no fglcalc package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as law_dir:
        for name, law in LAW_FILES.items():
            (Path(law_dir) / f"{name}.json").write_text(json.dumps(law))
        cmds = [c for c in gate_list(law_dir) if args.select in " ".join(c)]
        if not cmds:
            print(f"error: no gate command contains {args.select!r}", file=sys.stderr)
            return 2
        return _compare(cmds, other)


def _compare(cmds, other):
    differ = 0
    for cmd in cmds:
        text = " ".join(cmd)
        # the two trees run side by side
        procs = [_start(SRC, cmd), _start(other, cmd)]
        try:
            (code, out), (other_code, other_out) = map(_finish, procs)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if (code, out) != (other_code, other_out):
            print(f"DIFFERS  {text}: exit {code} here, {other_code} in {other}")
            diff = difflib.unified_diff(other_out.splitlines(), out.splitlines(),
                                        "against", "here", lineterm="", n=1)
            for line in list(diff)[:40]:
                print("  " + line)
            differ += 1
        else:
            print(f"same     {text} (exit {code})", flush=True)
    if differ:
        print(f"{differ} of {len(cmds)} commands differ")
        return 1
    print(f"{len(cmds)} commands agree")
    return 0

if __name__ == "__main__":
    sys.exit(main())
