"""Mutation gate for the certification arithmetic.

Each mutant replaces one exact text, which occurs once in its file under
``src/fglcalc``, by an off-by-one or a dropped bound in what a series, a
window or a power-table entry certifies.  The script copies the checkout to a
scratch directory once, then for each mutant in turn writes the mutated file,
runs ``python -m pytest -x -q tests/`` there in one child process, and puts
the file back.  A mutant is killed when pytest fails, and survives when every
test passes.  The run leaves out ``test_every_mutant_text_occurs_once``, which
checks this list against the unmutated source and so fails on every mutant.
Expected outcomes are "killed" or "equivalent: <reason>".

Usage: python3 scripts/mutants.py [--workdir DIR]

Prints one table row per mutant.  Exit codes: 0 every mutant came out as
expected, 1 a mutant expected killed survived (or one documented equivalent
was killed, so its reason is wrong), 2 usage error or a run that neither
passed nor failed (a pytest error, or no end within 30 minutes).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LIST_TEST = "tests/test_scripts.py::test_every_mutant_text_occurs_once"

# (file under src/fglcalc, exact text, replacement, label, expected)
MUTANTS = [
    ("series.py", "        if _tot(e) >= self.trunc:\n",
     "        if _tot(e) > self.trunc:\n",
     "reliable_at: >= trunc -> > trunc", "killed"),
    ("series.py", "        return LaurentElement(R, self.vars, out, r.top + 1, floors=r._floors())\n",
     "        return LaurentElement(R, self.vars, out, r.top + 2, floors=r._floors())\n",
     "LaurentElement.__mul__: truncation + 1", "killed"),
    ("series.py", "other.top + least_x)",
     "other.top + least_x + 1)",
     "_Region._product: tail bound least + g.trunc", "killed"),
    ("series.py", "min(self.top + least_y,",
     "min(self.top + least_y + 1,",
     "_Region._product: ceiling top + least + 1", "killed"),
    ("series.py", "            top = min(top, least_x + least_y - 1)\n",
     "            pass\n",
     "_Region._product: drop the cap for cuts in different variables", "killed"),
    ("series.py", "lows[i] = max(lows[i], lo + rise)",
     "lows[i] = max(lows[i], lo + rise - 1)",
     "_Region._product: low - 1", "killed"),
    ("series.py", "highs[i] = min(highs[i], hi + min((e[i] for e in cells), default=0))",
     "highs[i] = min(highs[i], hi + min((e[i] for e in cells), default=0) + 1)",
     "_Region._product: high + 1", "killed"),
    ("series.py", "stated = stated and min((e[i] for e in cells), default=0) >= 0",
     "stated = stated and min((e[i] for e in cells), default=0) >= -1",
     "_Region._product: support kept past a -1 exponent", "killed"),
    ("series.py", "least = min(min(map(sum, cells), default=inf), self.top + 1)",
     "least = min(min(map(sum, cells), default=inf), self.top + 2)",
     "_Region._least: first uncertified total + 1", "killed"),
    ("series.py", "[hi + 1 + s - lo for lo, hi",
     "[hi + 2 + s - lo for lo, hi",
     "_Region._least: least above a high + 1", "killed"),
    ("series.py", "        return _tot(e) <= self.top and all(",
     "        return _tot(e) <= self.top + 1 and all(",
     "_Region._contains: top + 1", "killed"),
    ("series.py", "or sum(self.lows) > self.top)",
     "or sum(self.lows) > self.top + 1)",
     "_Region._empty: top + 1", "killed"),
    ("series.py", "other.highs)), min(self.top, other.top),",
     "other.highs)), min(self.top, other.top) + 1,",
     "_Region._meet: top + 1", "killed"),
    ("series.py", "ranges = [range(lo, hi + 1) for lo, hi in zip(self.lows, self.highs)]",
     "ranges = [range(lo, hi) for lo, hi in zip(self.lows, self.highs)]",
     "_Region._size: drop the highs", "killed"),
    ("series.py", "(inf,) * n, self.trunc - 1, True)",
     "(inf,) * n, self.trunc, True)",
     "LaurentElement._region: top = trunc", "killed"),
    ("series.py", "view._region()._meet(f._region()), True)",
     "view._region()._meet(_Region(f._region().lows, f._region().highs, f.trunc, False)), True)",
     "from_laurent: max_total = f.trunc", "killed"),
    ("series.py", "                if pc is None:\n",
     "                if pc is None or _tot(e) - e[i] > t + 1:\n",
     "residue_coeff: guard cut > t + 1",
     "equivalent: the result's truncation t + 1 drops every cell the guard "
     "would, and keeps every cell it keeps"),
    ("series.py", "        kmax = kcap\n",
     "        kmax = kcap - 1\n",
     "_graded_power: grade cap kcap -> kcap - 1", "killed"),
    ("series.py", "row, t - j, _clean=True)",
     "row, t - j + 1, _clean=True)",
     "power_slices: slice truncation t - j -> t - j + 1", "killed"),
    ("calculus.py", "hi[oi] = min(hi[oi], -delta.floors[1] - 1)",
     "hi[oi] = min(hi[oi], -delta.floors[1])",
     "_delta_tower: out high + 1", "killed"),
    ("calculus.py", "for n in range(-m - 1, top + 1):",
     "for n in range(-m, top + 1):",
     "_tower_cell: drop n = -m - 1", "killed"),
    ("calculus.py", "get = delta._reader((m, -m - 1), m + top)",
     "get = delta._reader((m, -m), m + top)",
     "_tower_cell: delta run checked from n = -m", "killed"),
    ("calculus.py", "get = delta._reader((m, -m - 1), m + top)",
     "get = delta._reader((m, -m - 1), m + top - 1)",
     "_tower_cell: delta run checked to tot(cell) - 1", "killed"),
    ("calculus.py", "p._reader(blo, min(btop, mt - max(lo[oi], -n - 1)))",
     "p._reader(tuple(x + 1 for x in blo), min(btop, mt - max(lo[oi], -n - 1)))",
     "_delta_tower: power read region low + 1", "killed"),
    ("calculus.py", "p._reader(blo, min(btop, mt - max(lo[oi], -n - 1)))",
     "p._reader(blo, min(btop - 1, mt - max(lo[oi], -n - 1)))",
     "_delta_tower: power read region top below the box top", "killed"),
    ("calculus.py", "p._reader(blo, min(btop, mt - max(lo[oi], -n - 1)))",
     "p._reader(blo, min(btop, mt - max(lo[oi], -n)))",
     "_delta_tower: power read region top from m >= -n", "killed"),
    ("calculus.py", "cut=min(0, r.top + 1)",
     "cut=min(-1, r.top + 1)",
     "product_residue: cut at total degree 0 -> -1", "killed"),
    ("calculus.py", "floors=(-depth, -depth), trunc=a + 1)",
     "floors=(-depth, -depth), trunc=a)",
     "iterated_residue_check: power depth a + 1 -> a", "killed"),
    ("calculus.py", "(lo, s.trunc - 1 - j)",
     "(lo, s.trunc - j)",
     "_row_spans: row top trunc - 1 - j -> trunc - j", "killed"),
    ("calculus.py", "floors=(-B, -B))",
     "floors=(-B + 1, -B + 1))",
     "f_jacobi_delta_check: tower floors -B -> -B + 1", "killed"),
    ("series.py", "return top < self.trunc and all(",
     "return top <= self.trunc and all(",
     "_certifies: greatest total < trunc -> <= trunc", "killed"),
    ("series.py", "f is None or lo >= f for lo, f in zip(lows, self.floors))",
     "f is None or lo >= f - 1 for lo, f in zip(lows, self.floors))",
     "_certifies: least cell one below the floors", "killed"),
    ("vertex.py", "if not g._certifies((zlo, qlo), top):",
     "if not g._certifies((zlo + 1, qlo), top):",
     "y_at_group_law_grid: read box least z + 1", "killed"),
    ("vertex.py", "if not g._certifies((zlo, qlo), top):",
     "if not g._certifies((zlo, qlo + 1), top):",
     "y_at_group_law_grid: read box least w + 1", "killed"),
    ("vertex.py", "if not g._certifies((zlo, qlo), top):",
     "if not g._certifies((zlo, qlo), top - 1):",
     "y_at_group_law_grid: read box greatest total - 1", "killed"),
    ("vertex.py", "qlo <= q <= qhi and i + q <= top\n",
     "qlo <= q <= qhi and i + q <= top + 1\n",
     "y_at_group_law_grid: stored cells walked to total top + 1", "killed"),
    ("vertex.py", "and not (ilo <= i <= ihi and jlo <= q + n <= jhi)",
     "and not (ilo - 1 <= i <= ihi and jlo <= q + n <= jhi)",
     "y_at_group_law_grid: widening skips a row below the inner box", "killed"),
    ("vertex.py", "(max(-B - j1, j2 - 2 * B - 1) for",
     "(max(-B - j1 + 1, j2 - 2 * B - 1) for",
     "jacobi_identity_check: z-dominant read low -B - j1 + 1", "killed"),
    ("vertex.py", "(max(-B - j1, j2 - 2 * B - 1) for",
     "(max(-B - j1, j2 - 2 * B) for",
     "jacobi_identity_check: z-dominant read low j2 - 2B", "killed"),
    ("vertex.py", "(N - B, 0))",
     "(N - B + 1, 0))",
     "jacobi_identity_check: left-side read low N - B + 1", "killed"),
    ("vertex.py", "(max(-B - j2, j1 - 2 * B - 1) for",
     "(max(-B - j2 + 1, j1 - 2 * B - 1) for",
     "jacobi_identity_check: w-dominant read low -B - j2 + 1", "killed"),
    ("vertex.py", "(max(-B - j2, j1 - 2 * B - 1) for",
     "(max(-B - j2, j1 - 2 * B) for",
     "jacobi_identity_check: w-dominant read low j1 - 2B", "killed"),
    ("fgl.py", "t = self.trunc if k == 0 else self.trunc - 1 + k",
     "t = self.trunc if k == 0 else self.trunc + k",
     "iota_power: depth N - 1 + k -> N + k", "killed"),
    ("fgl.py", "        if _depth(entry) == depth:\n",
     "        if _depth(entry) >= depth:\n",
     "_served: serve a deeper entry uncut", "killed"),
]


def _copy(dest):
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"))


def _run(copy, mutant):
    name, text, replacement = mutant[:3]
    path = copy / "src" / "fglcalc" / name
    original = path.read_text()
    if original.count(text) != 1:
        raise SystemExit(f"error: {mutant[3]!r}: text occurs {original.count(text)} "
                         f"times in {name}")
    path.write_text(original.replace(text, replacement))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", "--deselect", LIST_TEST, "tests/"],
                              cwd=copy, env=env, capture_output=True, text=True,
                              timeout=1800)
    except subprocess.TimeoutExpired:
        return "error (timeout)", time.perf_counter() - t0
    finally:
        path.write_text(original)
    seconds = time.perf_counter() - t0
    if done.returncode == 0:
        return "survived", seconds
    if done.returncode == 1:
        failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
        return "killed" + (f" ({failed[0].split()[1]})" if failed else ""), seconds
    return f"error (pytest exit {done.returncode})", seconds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", help="scratch directory for the copy (default: a temp dir)")
    args = ap.parse_args(argv)
    base = Path(args.workdir or tempfile.mkdtemp(prefix="fglcalc-mutants-"))
    copy = base / "tree"
    if copy.exists():
        shutil.rmtree(copy)
    _copy(copy)
    status = 0
    print("| mutant | expected | outcome | seconds |")
    print("|---|---|---|---|")
    try:
        for m in MUTANTS:
            outcome, seconds = _run(copy, m)
            expected = m[4]
            want = "killed" if expected == "killed" else "survived"
            if outcome.startswith("error"):
                status = max(status, 2)
            elif not outcome.startswith(want):
                status = max(status, 1)
            print(f"| {m[3]} | {expected} | {outcome} | {seconds:.1f} |", flush=True)
    finally:
        shutil.rmtree(copy if args.workdir else base, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
