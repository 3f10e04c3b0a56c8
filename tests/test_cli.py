import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from fglcalc import cli
from fglcalc.cli import MAX_TRUNC, CliConfig, ConfigError, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_json(tmp_path, args):
    out = tmp_path / "out.json"
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def run_text(tmp_path, args):
    out = tmp_path / "out.txt"
    code = main(args + ["--out", str(out)])
    return code, out.read_text()


def run_python(argv, timeout=300):
    """A fresh interpreter with this tree's src on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)


def run_process(args, timeout=300):
    """fglcalc in a fresh interpreter, so a hang or a traceback shows."""
    return run_python(["-m", "fglcalc.cli", *args], timeout)


# -- config --------------------------------------------------------------------


def test_config_defaults_and_bounds():
    cfg = CliConfig()
    assert (cfg.trunc, cfg.window, cfg.weight, cfg.seed) == (12, 6, 6, 0)
    with pytest.raises(ConfigError):
        CliConfig(trunc=3)
    with pytest.raises(ConfigError):
        CliConfig(window=1)
    with pytest.raises(ConfigError):
        CliConfig(weight=0)
    with pytest.raises(ConfigError):
        CliConfig(format="xml")


def test_bad_trunc_exits_2(tmp_path, capsys):
    assert main(["fgl", "--kind", "additive", "--trunc", "2"]) == 2


def test_trunc_above_cap_exits_2(tmp_path, capsys):
    # the cap is checked before any law is built, for --trunc and a law file
    assert CliConfig(trunc=MAX_TRUNC).trunc == MAX_TRUNC
    too_big = str(MAX_TRUNC + 1)
    assert main(["fgl", "--kind", "p_typical", "--trunc", too_big]) == 2
    assert f"MAX_TRUNC = {MAX_TRUNC}" in capsys.readouterr().err
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"trunc": MAX_TRUNC + 1,
                               "coeffs": [[1, 0, "1"], [0, 1, "1"]]}))
    assert main(["fgl", "--law-file", str(law)]) == 2
    assert f"MAX_TRUNC = {MAX_TRUNC}" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["fgl", "--kind", "additive", "--trunc", "4"],
                                  ["verify", "--suite", "binom", "--kind", "additive"]])
def test_unwritable_out_exits_2(tmp_path, args):
    # a directory or a missing parent is a configuration error, exit 2, not
    # a traceback with the "identity failed" exit 1
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        done = run_process(args + ["--out", str(out)])
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        last = done.stderr.splitlines()[-1]
        assert last.startswith(f"error: ConfigError: cannot write {out}")
        assert done.stdout == ""


def test_weight_above_cap_exits_2(monkeypatch, capsys):
    # the vertex suite and heisenberg build the law at 3 * weight, so the
    # weight is capped with the truncation, before any law is built
    assert CliConfig(weight=MAX_TRUNC // 3).weight == MAX_TRUNC // 3

    def no_build(*args, **kw):
        raise AssertionError("a law was built")

    monkeypatch.setattr(cli, "standard_law", no_build)
    for args in (["heisenberg", "--kind", "multiplicative", "--weight", "22",
                  "--action", "bracket_table"],
                 ["verify", "--kind", "multiplicative", "--weight", "22"]):
        assert main(args) == 2, args
        err = capsys.readouterr().err
        assert "ConfigError" in err and "--weight 22" in err, args
        assert f"MAX_TRUNC = {MAX_TRUNC}" in err, args


# -- fgl ------------------------------------------------------------------------


def test_fgl_one_parameter_logarithm(tmp_path):
    # phi = s^{-1} log(1 + s z): coefficient of z^n is (-1)^(n+1) s^(n-1) / n
    code, d = run_json(tmp_path, ["fgl", "--kind", "one_parameter",
                                  "--trunc", "8"])
    assert code == 0
    phi = {r["exp"]: r["coeff"] for r in d["rows"] if r["series"] == "phi"}
    assert phi["1"] == "1"
    assert phi["2"] == "-1/2*s"
    assert phi["3"] == "1/3*s^2"
    assert phi["4"] == "-1/4*s^3"


def test_fgl_p_typical_integrality(tmp_path):
    code, d = run_json(tmp_path, ["fgl", "--kind", "p_typical",
                                  "--p", "2", "--h", "1", "--trunc", "10"])
    assert code == 0
    assert d["integral"] is True
    assert d["law"] == "p_typical(2,1)"


@pytest.mark.parametrize("args", [
    ["--h", "0"], ["--h", "-1"], ["--p", "1"], ["--p", "0"], ["--p", "-2"],
])
def test_fgl_p_typical_bad_parameters_exit_2(args):
    # q = p^h <= 1 used to loop forever in _phi_p, and a negative or
    # non-integer p ended in a traceback
    done = run_process(["fgl", "--kind", "p_typical", "--trunc", "8", *args],
                       timeout=60)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "ConfigError" in done.stderr and "p >= 2 and h >= 1" in done.stderr
    assert done.stdout == ""


@pytest.mark.parametrize("args,source", [
    (["--kind", "additive", "--p", "5"], "additive"),
    (["--kind", "elliptic", "--h", "2"], "elliptic"),
    (["--law-file", "law.json", "--p", "2", "--h", "1"], "a law file"),
])
def test_p_and_h_are_refused_where_no_law_reads_them(args, source, capsys):
    # only p_typical reads --p and --h; elsewhere they would be ignored
    assert main(["fgl", "--trunc", "4", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ConfigError: --p and --h set the parameters of "
                   f"p_typical, not of {source}\n")


def test_param_is_not_an_option():
    # --p and --h set the only parameters a built-in law reads; there is no
    # second key=value route that could take keys no law reads
    done = run_process(["fgl", "--kind", "additive", "--param", "foo=1"], timeout=60)
    assert done.returncode == 2
    assert "unrecognized arguments: --param" in done.stderr


def test_fgl_malformed_law_file_exits_2(tmp_path):
    bad = tmp_path / "law.json"
    bad.write_text(json.dumps(
        {"trunc": 8, "coeffs": [[1, 0, "1"], [0, 1, "1"], [2, 0, "1"]]}))
    assert main(["fgl", "--law-file", str(bad)]) == 2
    bad.write_text("not json at all")
    assert main(["fgl", "--law-file", str(bad)]) == 2
    # floats, bools and inexact strings are refused, never rounded
    unit = [[1, 0, "1"], [0, 1, "1"]]
    for law in ({"trunc": 8, "coeffs": unit + [[1, 1, 0.1]]},
                {"trunc": 8.9, "coeffs": unit + [[1, 1, "1"]]},
                {"trunc": 8, "coeffs": unit + [[1.7, 1, "1"]]},
                {"trunc": True, "coeffs": unit},
                {"trunc": 8, "coeffs": unit + [[1, 1, True]]},
                {"trunc": 8, "coeffs": unit + [[1, 1, "0.5"]]},
                {"trunc": 8, "coeffs": unit + [[1, 1, "1/0"]]},
                {"trunc": 8, "coeffs": unit + [[-1, 2, "1"]]},
                {"name": 5, "trunc": 8, "coeffs": unit},
                [unit]):
        bad.write_text(json.dumps(law))
        assert main(["fgl", "--law-file", str(bad)]) == 2, law


def test_law_file_refuses_keys_it_does_not_read(tmp_path, capsys):
    # a key that no loader reads is refused by name instead of ignored: this
    # file would otherwise print the law over QQ under the name "file"
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"trunc": 6, "ring": "integers_mod 4", "nmae": "typo",
                               "coeffs": [[1, 0, "1"], [0, 1, "1"]]}))
    assert main(["fgl", "--law-file", str(law)]) == 2
    assert "unknown key 'nmae', 'ring'" in capsys.readouterr().err


def test_fgl_valid_law_file(tmp_path):
    f = tmp_path / "mult.json"
    f.write_text(json.dumps(
        {"name": "mult-file", "trunc": 8,
         "coeffs": [[1, 0, "1"], [0, 1, 1], [1, 1, "-3/2"]]}))
    code, d = run_json(tmp_path, ["fgl", "--law-file", str(f)])
    assert code == 0
    assert d["law"] == "mult-file"
    F = {r["exp"]: r["coeff"] for r in d["rows"] if r["series"] == "F"}
    assert F["1;1"] == "-3/2"


# -- binom -----------------------------------------------------------------------


def test_binom_additive_pascal(tmp_path):
    code, d = run_json(tmp_path, ["binom", "--kind", "additive",
                                  "--nmin", "0", "--nmax", "4"])
    assert code == 0
    got = {(r["n"], r["exp"]): r["coeff"] for r in d["rows"]}
    for n in range(0, 5):
        for j in range(0, n + 1):
            assert got[(n, f"{n - j};{j}")] == str(comb(n, j))
    assert d["truncated_rows"] == []


def test_binom_negative_rows_flagged(tmp_path):
    code, d = run_json(tmp_path, ["binom", "--kind", "additive",
                                  "--nmin", "-1", "--nmax", "0",
                                  "--window", "3"])
    assert code == 0
    assert d["truncated_rows"] == [-1]
    for r in d["rows"]:
        if r["n"] == -1:
            i, j = map(int, r["exp"].split(";"))
            assert -3 <= i <= 3 and -3 <= j <= 3


def test_binom_one_parameter_closed_form(tmp_path):
    code, d = run_json(tmp_path, ["binom", "--kind", "one_parameter",
                                  "--nmin", "-2", "--nmax", "3"])
    assert code == 0
    assert d["closed_form_match"] is True


# -- verify ----------------------------------------------------------------------


def test_verify_hyper_passes(tmp_path):
    code, d = run_json(tmp_path, ["verify", "--suite", "hyper",
                                  "--kind", "multiplicative"])
    assert code == 0
    assert d["ok"] is True
    assert all(r["status"] == "pass" for r in d["rows"])


def test_verify_delta_elliptic_window4(tmp_path):
    code, d = run_json(tmp_path, ["verify", "--suite", "delta",
                                  "--kind", "elliptic", "--window", "4"])
    assert code == 0
    assert d["ok"] is True
    # surviving windows are recorded in the reports
    surv = d["reports"][0]["window"]
    assert all(lo <= hi for lo, hi in surv)


def test_verify_injected_fault_exits_1(tmp_path):
    code, d = run_json(tmp_path, ["verify", "--suite", "binom",
                                  "--kind", "additive", "--inject-fault"])
    assert code == 1
    assert d["ok"] is False
    assert d["first_failure"]["identity"].startswith("f_binomial")


def test_verify_too_small_truncation_exits_2(capsys):
    # a certified window beyond the truncation is a configuration error that
    # names the check and the truncation, not a traceback with exit 1: the
    # vertex Jacobi check at weight 4 reads past the law's truncation 12
    args = ["--suite", "vertex", "--kind", "additive", "--weight", "4"]
    assert main(["verify"] + args) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "'jacobi'" in err
    assert "truncation 12:" in err


def test_verify_fixture_law_reaches_the_box_top(tmp_path):
    # the weak-associativity box reads cell (4, 4): the fixture law is built
    # certified below total degree 9 whatever --trunc is; at trunc 8 the
    # check read past it (exit 2)
    code, d = run_json(tmp_path, ["verify", "--suite", "vertex", "--kind",
                                  "additive", "--weight", "5", "--trunc", "8"])
    assert code == 0
    assert d["ok"] is True
    fixture = next(r for r in d["reports"]
                   if r["identity"] == "axiom/weak_associativity")
    assert fixture == {"details": {"minimal_N": 0},
                       "identity": "axiom/weak_associativity", "law": "additive",
                       "status": "pass", "window": {"Nmax": 8}}
    lie = next(r for r in d["reports"] if r["identity"] == "lie_axioms")
    assert lie["window"] == {"W": 5, "mmax": 4}


def test_verify_hyper_clips_nmax_to_the_truncation(tmp_path):
    # the composition rule reads cell (nmax, nmax) of F^0, certified below
    # total degree trunc: nmax is clipped to (trunc - 1) // 2, so small
    # truncations certify fewer orders instead of exiting 2
    runs = [(["--kind", "multiplicative", "--suite", "hyper", "--trunc", t], nmax)
            for t, nmax in (("4", 1), ("5", 2), ("6", 2), ("7", 3))]
    for trunc in (4, 5):
        path = tmp_path / f"law{trunc}.json"
        path.write_text(json.dumps({"trunc": trunc, "coeffs": [
            [1, 0, 1], [0, 1, 1], [1, 1, 1]]}))
        runs.append((["--suite", "all", "--law-file", str(path)], (trunc - 1) // 2))
    for args, nmax in runs:
        code, d = run_json(tmp_path, ["verify"] + args)
        assert code == 0, args
        rep = next(r for r in d["reports"] if r["identity"] == "hyperderivative")
        assert rep["window"] == {"nmax": nmax}, args


def test_verify_delta_wide_window_counts_its_cells():
    # window_size walks a two-variable box in its first variable only and
    # counts each run of the second at once, so each 60001 x 60001 box of
    # --window 30000 takes 60001 steps, where a walk of every cell never ends
    done = run_process(["verify", "--suite", "delta", "--kind", "multiplicative",
                        "--window", "30000"], timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ok"]


def test_verify_empty_window_exits_2():
    # at trunc 15 a delta comparison keeps no cell of the default box: a
    # configuration error naming the check and the truncation, not a
    # traceback with exit 1
    done = run_process(["verify", "--suite", "delta", "--kind", "multiplicative",
                        "--trunc", "15"])
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "ConfigError" in done.stderr and "truncation 15:" in done.stderr
    assert "no surviving window" in done.stderr
    assert done.stdout == ""


def test_verify_delta_at_small_truncation_passes(tmp_path):
    # at trunc 4 the u-dominant expansion of F(x, iota u)^-1 stops at u^-4,
    # so the Jacobi towers certify out-exponents up to 3 only; reading the
    # cell [4, 0, -4] beyond that was a false failure (exit 1)
    code, d = run_json(tmp_path, ["verify", "--suite", "delta", "--kind",
                                  "multiplicative", "--trunc", "4"])
    assert code == 0
    jac = next(r for r in d["reports"] if r["identity"] == "delta/f_jacobi")
    assert jac["window"]["jacobi"] == [[-4, 3], [-4, 4], [-4, 3]]
    for trunc in ("5", "6"):
        assert main(["verify", "--suite", "delta", "--kind", "multiplicative",
                     "--trunc", trunc, "--out", str(tmp_path / "o.json")]) == 0


@pytest.mark.parametrize("kind", ["multiplicative", "elliptic"])
def test_verify_residue_at_small_truncation_passes(tmp_path, kind):
    # the by-parts samples keep to the poles and orders whose residues the
    # truncation certifies; reading uncertified residues failed (exit 1)
    for trunc in range(4, 12):
        assert main(["verify", "--suite", "residue", "--kind", kind, "--trunc",
                     str(trunc), "--out", str(tmp_path / "o.json")]) == 0, trunc


def test_verify_payload_is_byte_stable(tmp_path):
    args = ["verify", "--suite", "binom", "--kind", "additive", "--seed", "0"]
    _, a = run_text(tmp_path, args)
    _, b = run_text(tmp_path, args)
    assert a == b


def test_verify_vertex_needs_rationals(tmp_path, capsys):
    assert main(["verify", "--suite", "vertex", "--kind", "elliptic"]) == 2


def test_verify_vertex_multiplicative(tmp_path):
    code, d = run_json(tmp_path, ["verify", "--suite", "vertex",
                                  "--kind", "multiplicative",
                                  "--weight", "4", "--window", "2"])
    assert code == 0
    assert d["ok"] is True
    names = [r["check"] for r in d["rows"]]
    assert "lie_axioms" in names and "jacobi" in names


def test_verify_all_computes_no_power_an_entry_covers(monkeypatch):
    # one law's power table serves the whole suite: no request for a power,
    # a power of G or of iota or power slices that an entry already on the
    # law covers runs int_power, times_line_power or the slice recurrence
    # again; on verify --suite all over elliptic, and on the vertex suite
    # over multiplicative at trunc 3 * weight, which runs on that law itself
    from fglcalc import fgl
    from fglcalc.series import LaurentElement

    kernel = []

    def counted(real):
        def run(*args, **kwargs):
            kernel.append(1)
            return real(*args, **kwargs)
        return run

    for owner, name in ((LaurentElement, "int_power"), (fgl, "times_line_power"),
                        (LaurentElement, "power_slices")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))

    for kind, suite, trunc in (("elliptic", "all", 12), ("multiplicative", "vertex", 18)):
        law = fgl.standard_law(kind, trunc=trunc)
        deepest, recomputed = {}, []

        def watch(name, family, depth):
            real = getattr(law, name)

            def run(*args, **kwargs):
                before = len(kernel)
                out = real(*args, **kwargs)
                if len(kernel) > before:
                    key, d = family(*args, **kwargs), depth(out)
                    if deepest.get(key, d - 1) >= d:
                        recomputed.append((key, d, deepest[key]))
                    deepest[key] = max(d, deepest.get(key, d))
                return out
            monkeypatch.setattr(law, name, run)

        watch("power", lambda n, twisted=False, dominant=0, floors=None, **_:
              (twisted, dominant, n, floors), lambda p: p.trunc)
        watch("g_power", lambda n, trunc=None: ("G", n), lambda p: p.trunc)
        watch("power_slices", lambda n, cap: ("w_slices", n), len)
        watch("iota_power", lambda k: ("iota", k), lambda p: p.trunc)
        checks = cli._suite_checks(CliConfig(kind=kind, trunc=trunc, seed=1), law, suite)
        assert all(check().ok for _, check in checks), suite
        assert deepest, suite
        assert recomputed == [], suite
        assert any(key[0] == "iota" for key in deepest) == (suite == "vertex")


# -- heisenberg --------------------------------------------------------------------


def test_heisenberg_commutator_table(tmp_path):
    code, d = run_json(tmp_path, ["heisenberg", "--action", "commutators",
                                  "--kind", "additive", "--weight", "4"])
    assert code == 0
    assert d["ok"] is True
    got = {(r["n"], r["m"]): r["bracket"] for r in d["rows"]}
    for n in range(-4, 5):
        for m in range(-4, 5):
            assert got[(n, m)] == (str(n) if n == -m else "0")


def test_heisenberg_shift_matrices(tmp_path):
    code, d = run_json(tmp_path, ["heisenberg", "--action", "shift",
                                  "--kind", "additive", "--weight", "3"])
    assert code == 0
    rows = {(r["n"], r["input"], r["output"]): r["coeff"] for r in d["rows"]}
    # additive S^(n) = D^n / n! on the b_{-1}-power basis
    assert rows[(1, "-1", "-2")] == "1"
    assert rows[(2, "-1", "-3")] == "1"
    assert rows[(1, "-1;-1", "-2;-1")] == "2"
    assert rows[(0, "vac", "vac")] == "1"


def test_heisenberg_bracket_table(tmp_path):
    code, d = run_json(tmp_path, ["heisenberg", "--action", "bracket_table",
                                  "--kind", "additive"])
    assert code == 0
    assert d["ok"] is True
    assert all(r["class"] == "0" for r in d["rows"])


def test_heisenberg_rejects_symbolic_ring(tmp_path):
    assert main(["heisenberg", "--action", "commutators",
                 "--kind", "one_parameter"]) == 2


# -- output formats ----------------------------------------------------------------


def test_csv_flattens_exponents(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["binom", "--kind", "additive", "--nmax", "2",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,exp,coeff"
    assert any(";" in ln.split(",")[1] for ln in lines[1:])


def test_pretty_format_smoke(tmp_path):
    code, text = run_text(tmp_path, ["fgl", "--kind", "additive",
                                     "--trunc", "6", "--format", "pretty"])
    assert code == 0
    assert "law" in text and "series=F" in text


# -- imports -----------------------------------------------------------------------


def run_fresh(code):
    """The stderr of code run in a fresh interpreter that writes no bytecode."""
    done = run_python(["-B", "-c", code])
    assert done.returncode == 0, done.stderr
    return done.stderr


def test_fgl_loads_neither_calculus_nor_vertex():
    err = run_fresh(
        "import sys\n"
        "import fglcalc\n"
        "from fglcalc import cli\n"
        "assert set(fglcalc.__all__) <= set(dir(fglcalc))\n"
        "assert cli.main(['fgl', '--kind', 'elliptic', '--trunc', '8']) == 0\n"
        "print(sorted({'fglcalc.calculus', 'fglcalc.vertex', 'dataclasses'}\n"
        "             & set(sys.modules)), file=sys.stderr)\n")
    assert err.splitlines()[-1] == "[]"


def test_verify_loads_no_dataclasses():
    # the reports and the vertex records are plain classes, so verify
    # imports neither dataclasses nor the inspect module that it imports
    err = run_fresh(
        "import sys\n"
        "from fglcalc import cli\n"
        "assert cli.main(['verify', '--kind', 'multiplicative', '--trunc', '8',\n"
        "                 '--weight', '5', '--window', '2']) == 0\n"
        "print(sorted({'fglcalc.calculus', 'fglcalc.vertex', 'dataclasses', 'inspect'}\n"
        "             & set(sys.modules)), file=sys.stderr)\n")
    assert err.splitlines()[-1] == "['fglcalc.calculus', 'fglcalc.vertex']"


def test_suite_helpers_run_on_a_fresh_import():
    # the commands import calculus and vertex where they run them, so the
    # helpers work when called directly, with neither module loaded yet
    err = run_fresh(
        "import sys\n"
        "from fglcalc import cli\n"
        "cfg = cli.CliConfig(kind='additive', trunc=8, weight=5)\n"
        "law = cli.load_law(cfg)\n"
        "A = cli._heisenberg_algebra(cfg, law)\n"
        "assert (A.K, A.W, A.law.trunc) == (5, 5, 15)\n"
        "checks = cli._suite_checks(cfg, law, 'all')\n"
        "print([name for name, check in checks if not check().ok],\n"
        "      len(checks), file=sys.stderr)\n")
    assert err.splitlines()[-1] == "[] 16"
