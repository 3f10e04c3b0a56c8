"""List the functions of src/fglcalc that no payload-gate command enters.

Runs the commands of ``scripts/payload_gate.py`` in process under
``sys.setprofile`` and prints every ``def`` in ``src/fglcalc`` (methods and
nested functions included; lambdas and generated dataclass methods are not
``def``s) that none of them enters.  Each such function must be named in
``LIBRARY_SURFACE`` below with the reason it stays although no CLI command
reaches it; everything else the CLI does not reach is deleted.  A listed name
that a command enters, or that no longer names a ``def``, is reported too.

``--subset`` runs ``subset``, 17 of the gate's commands that enter exactly
the ``def``s all 67 enter, in a few seconds (the tier-1 suite runs it).  The
full run also runs ``subset`` and reports each ``def`` the gate enters and
the subset does not, so the subset cannot drift from the gate unseen.
``--tests`` then also runs pytest on ``tests/`` in process and names, under
each function no command enters, the tests that enter it; a test that
reaches a function only through a subprocess is not seen.

Usage: python3 scripts/reach.py [--subset] [--tests]

Exit codes: 0 every function no command enters is listed, every listed
name is a ``def`` no command enters, the subset enters what the gate enters
and (with ``--tests``) pytest passed; 1 otherwise.
"""

import argparse
import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "fglcalc"
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "src")]

import payload_gate  # noqa: E402

README = "README quick start"
TORSION = "ZZ and Z/m torsion (README: characteristic-p torsion)"
W_DOMINANT = "README finding: the w-dominant meromorphicity defect"
REPR = "__repr__"

# (module.qualname, why it stays although no CLI command enters it)
LIBRARY_SURFACE = [
    ("__init__.__getattr__", f"{README}: `from fglcalc import ...` resolves here"),
    ("__init__.__dir__", f"{README}: dir(fglcalc) lists the exports"),
    ("fgl.fgl_inverse", f"{README}: fgl module-level name"),
    ("fgl.invariant_differential", f"{README}: fgl module-level name"),
    ("fgl.logarithm", f"{README}: fgl module-level name"),
    ("fgl.exponential", f"{README}: fgl module-level name"),
    ("fgl.partial_derivative", f"{README}: fgl module-level name"),
    ("fgl.g_factor", f"{README}: fgl module-level name"),
    ("fgl.FormalGroupLaw.logarithm", f"{README}: logarithm"),
    ("fgl.FormalGroupLaw.exponential", f"{README}: exponential"),
    ("fgl.FormalGroupLaw.partial_derivative", f"{README}: fgl.partial_derivative"),
    ("fgl.FormalGroupLaw.f_z_iota_w", "the tests' reference base for twisted powers"),
    ("calculus.Report.__eq__", "reports compare by value, field by field"),
    ("vertex.heisenberg_cocycle", "acceptance criterion 8"),
    ("vertex.meromorphicity_pair", W_DOMINANT),
    ("vertex._substituted_p_check", W_DOMINANT),
    ("vertex.MeromorphicityPair.__init__", W_DOMINANT),
    ("vertex.MeromorphicityPair.ok", W_DOMINANT),
    ("vertex.MeromorphicityPair.to_json", W_DOMINANT),
    ("ring.Ring.integers", TORSION),
    ("ring.Ring.integers_mod", TORSION),
    ("ring.Ring.denominator", TORSION),
    ("ring._Numbers.add", TORSION),
    ("ring._Numbers.mul", TORSION),
    ("ring.Integers.try_invert", TORSION),
    ("ring.Integers.divide_by_int", TORSION),
    ("ring.IntegersMod.__init__", TORSION),
    ("ring.IntegersMod.lift", TORSION),
    ("ring.IntegersMod.from_int", TORSION),
    ("ring.IntegersMod.add", TORSION),
    ("ring.IntegersMod.neg", TORSION),
    ("ring.IntegersMod.mul", TORSION),
    ("ring.IntegersMod.try_invert", TORSION),
    ("ring.IntegersMod.divide_by_int", TORSION),
    ("ring.IntegersMod.to_text", TORSION),
    ("series.LaurentElement.zero", f"{TORSION}: hyper/torsion_s1 over Z/m"),
    ("series.LaurentElement.diagonal_eval", "scripts/law_survey.py"),
    ("vertex.NotFound.__init__", "failure-report path: no order up to MAX_ORDER"),
    ("series.LaurentElement.__eq__",
     "acceptance criterion 2: phi(F(z,w)) == phi(z) + phi(w) compares series by value"),
    ("ring._NotInvertible.__repr__", REPR),
    ("ring.Ring.__repr__", REPR),
    ("ring.IntegersMod.__repr__", REPR),
    ("ring.ParamPoly.__repr__", REPR),
    ("series.LaurentElement.__repr__", REPR),
    ("series.BilateralWindow.__repr__", REPR),
    ("fgl.FormalGroupLaw.__repr__", REPR),
    ("vertex.StateSpace.__repr__", REPR),
    ("vertex.LieClass.__repr__", REPR),
]


def subset(law_dir):
    """Commands that enter the same defs as the whole gate list."""
    kinds = [["--kind", k] for k in ("additive", "multiplicative", "one_parameter",
                                     "elliptic")]
    cmds = [["verify", "--suite", "all", *kind, "--trunc", "8", "--weight", "5",
             "--window", "2"] for kind in kinds]
    cmds += [["verify", "--suite", "binom", "--inject-fault", "--trunc", "6"],
             ["verify", "--suite", "delta", "--kind", "multiplicative", "--trunc", "15"],
             ["verify", "--suite", "hyper", "--kind", "elliptic", "--trunc", "5"],
             ["verify", "--suite", "vertex", "--kind", "additive", "--weight", "4"],
             ["fgl", "--kind", "p_typical", "--p", "2", "--h", "1", "--trunc", "8"],
             ["binom", "--kind", "one_parameter", "--nmin", "-3", "--nmax", "4"]]
    cmds += [["heisenberg", "--action", a, "--weight", "2"]
             for a in ("commutators", "shift", "bracket_table")]
    cmds += [["fgl", "--law-file", str(Path(law_dir) / f"{name}.json")]
             for name in payload_gate.LAW_FILES]
    return cmds


def defs():
    """{(file, first line of the code object): "module.qualname"} for every
    def in the package; a decorated def's code starts at its first
    decorator."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, line)] = name
                walk(child, name, path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", path)
            else:
                walk(child, prefix, path)

    for path in sorted(PKG.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, str(path))
    return out


@contextlib.contextmanager
def _profiled(on_call):
    def profile(frame, event, arg):
        if event == "call":
            on_call(frame.f_code)

    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)


def entered(cmds):
    """The keys of ``defs()`` that running ``cmds`` through the CLI enters."""
    codes = set()
    # the first command imports the package afresh under the profiler, so
    # that what runs at import counts for every list of commands
    for name in [m for m in sys.modules if m.split(".")[0] == "fglcalc"]:
        del sys.modules[name]
    for argv in cmds:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), _profiled(codes.add):
            from fglcalc.cli import main
            main(argv)
    return {(c.co_filename, c.co_firstlineno) for c in codes}


def problems(names, reached):
    """Lines naming each def neither reached nor listed, and each listed
    name that is reached or names no def."""
    listed = dict(LIBRARY_SURFACE)
    out = [f"not entered and not listed: {n}" for n in sorted(names - reached)
           if n not in listed]
    out += [f"listed but entered: {n}" for n in sorted(listed) if n in reached]
    out += [f"listed but no such def: {n}" for n in sorted(listed) if n not in names]
    return out


def _tests_reaching(targets):
    """({key: [test ids entering it]} for the def keys in ``targets``,
    pytest's exit code) for one run of pytest on tests/."""
    import pytest

    by_code, current = defaultdict(set), [None]

    class Plugin:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_protocol(self, item, nextitem):
            current[0] = item.nodeid
            yield
            current[0] = None

    def on_call(code):
        key = (code.co_filename, code.co_firstlineno)
        if key in targets and current[0] is not None:
            by_code[key].add(current[0])

    with _profiled(on_call):
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                           plugins=[Plugin()])
    return {key: sorted(ids) for key, ids in by_code.items()}, code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--subset", action="store_true",
                    help="run subset() instead of the full gate list")
    ap.add_argument("--tests", action="store_true",
                    help="also run pytest on tests/ and name the tests that "
                         "enter each function no command enters")
    args = ap.parse_args(argv)
    found = defs()
    with tempfile.TemporaryDirectory() as law_dir:
        for name, law in payload_gate.LAW_FILES.items():
            (Path(law_dir) / f"{name}.json").write_text(json.dumps(law))
        cmds = subset(law_dir) if args.subset else payload_gate.gate_list(law_dir)
        reached = {found[k] for k in entered(cmds) if k in found}
        drift = (set() if args.subset else
                 reached - {found[k] for k in entered(subset(law_dir)) if k in found})
    unreached = {k: n for k, n in found.items() if n not in reached}
    listed = dict(LIBRARY_SURFACE)
    if args.tests:
        tests, code = _tests_reaching(set(unreached))
        if code != 0:
            print(f"pytest exited {code}: the tests entering each function are not known")
            return 1
    print(f"{len(found)} defs in src/fglcalc; {len(cmds)} commands enter "
          f"{len(reached)}; {len(unreached)} are entered by none:")
    for (path, line), name in sorted(unreached.items(), key=lambda kv: kv[1]):
        print(f"  {name} ({Path(path).name}:{line}): "
              f"{listed.get(name, 'NOT LISTED')}")
        if args.tests:
            ids = tests.get((path, line), [])
            print(f"    entered by {len(ids)} tests" + "".join(f"\n      {t}" for t in ids))
    bad = problems(set(found.values()), reached)
    bad += [f"entered by the gate but not by subset(): {n}" for n in sorted(drift)]
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
