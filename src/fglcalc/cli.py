"""Batch command line front end: law summaries, binomial tables, identity
suites, and Heisenberg reports, emitted as JSON (authoritative), CSV, or
plain text.

Exit codes: 0 all requested checks pass, 1 an identity check failed, 2 a
usage or configuration problem (including a law file that violates the
group-law axioms).  Payloads are byte-stable for a fixed (config, seed);
wall-clock timings go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time

from .ring import Ring
from .series import EmptyWindow, LaurentElement, PowerSeries, WindowMiss, comb_any
from .fgl import AxiomViolation, IntegralityFailure, fgl_new, standard_law

# calculus and vertex are imported by the commands that run them, so that
# `fgl` loads neither


class ConfigError(Exception):
    pass


# Largest truncation order accepted from --trunc or a law file.  Building a
# law grows about as the fifth power of the truncation (p_typical(2,1) takes
# about 8 s at 36 and 32 s at 48 on a 2-core host), so the cap keeps one
# build to minutes; it sits well above every truncation the test suite, the
# scripts and the benchmark use.
MAX_TRUNC = 64

# the monomials x0^a x1^b x2^c, a + b + c = -2, of the iterated residue check
ITERATED_TRIPLES = [(a, b, -2 - a - b) for a in range(-3, 2) for b in range(-2, 1)]


def _check_trunc(trunc, source):
    if trunc > MAX_TRUNC:
        raise ConfigError(f"{source} {trunc} exceeds the maximum truncation "
                          f"MAX_TRUNC = {MAX_TRUNC}")


class CliConfig:
    """One command's settings, checked when they are made."""

    def __init__(self, kind="additive", params=None, law_file=None, trunc=12,
                 window=6, weight=6, seed=0, format="json", out=None,
                 inject_fault=False):
        self.kind = kind
        self.params = {} if params is None else params
        self.law_file = law_file
        self.trunc = trunc
        self.window = window
        self.weight = weight
        self.seed = seed
        self.format = format
        self.out = out
        self.inject_fault = inject_fault
        if self.params and (law_file or kind != "p_typical"):
            # no other law reads them, so they would be silently ignored
            raise ConfigError("--p and --h set the parameters of p_typical, not of "
                              + ("a law file" if law_file else kind))
        if trunc < 4:
            raise ConfigError("--trunc must be at least 4")
        _check_trunc(trunc, "--trunc")
        if window < 2:
            raise ConfigError("--window must be at least 2")
        if weight < 1:
            raise ConfigError("--weight must be at least 1")
        if 3 * weight > MAX_TRUNC:
            # the vertex suite and heisenberg rebuild the law at 3 * weight
            raise ConfigError(f"--weight {weight} needs truncation "
                              f"{3 * weight}, above the maximum "
                              f"truncation MAX_TRUNC = {MAX_TRUNC}")
        if format not in ("json", "csv", "pretty"):
            raise ConfigError(f"unknown format {format!r}")


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _exact(x, text=False):
    """x itself if it is a JSON integer (JSON true/false load as bool, a
    subclass of int) or, with text=True, a "p" or "p/q" string."""
    if type(x) is int or (text and isinstance(x, str) and _RATIONAL.fullmatch(x)):
        return x
    raise ValueError(f"{x!r} is not an exact {'rational' if text else 'integer'}")


def load_law(cfg):
    """Build the configured law: a built-in kind or a coefficient file.

    A law file's trunc and exponents must be JSON integers and its
    coefficients integers or exact "p" / "p/q" strings; floats are refused
    rather than rounded.  Its trunc, like --trunc, is capped at MAX_TRUNC."""
    if cfg.law_file:
        try:
            with open(cfg.law_file) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("the file must hold a JSON object")
            name = data.get("name", "file")
            if not isinstance(name, str):
                raise ValueError(f"name {name!r} is not a string")
            trunc = _exact(data.get("trunc", cfg.trunc))
            _check_trunc(trunc, "law file trunc")
            QQ = Ring.rationals()
            coeffs = {}
            for item in data["coeffs"]:
                i, j, c = item
                coeffs[(_exact(i), _exact(j))] = QQ.from_fraction(_exact(c, text=True))
            F = PowerSeries(QQ, ("z", "w"), coeffs, trunc)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError,
                json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read law file {cfg.law_file}: {e}")
        return fgl_new(F, name=name)
    try:
        return standard_law(cfg.kind, trunc=cfg.trunc, **cfg.params)
    except ValueError as e:
        raise ConfigError(str(e))


# -- output -------------------------------------------------------------------


def _coeff_rows(name, el, ring):
    rows = []
    for e, c in sorted(el.coeffs.items()):
        rows.append({"series": name,
                     "exp": ";".join(str(x) for x in e),
                     "coeff": ring.to_text(c)})
    return rows


def emit(cfg, payload):
    if cfg.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif cfg.format == "csv":
        rows = payload.get("rows", [])
        buf = io.StringIO()
        if rows:
            w = csv.DictWriter(buf, fieldnames=list(rows[0]))
            w.writeheader()
            for r in rows:
                w.writerow(r)
        text = buf.getvalue()
    else:
        lines = [f"{k}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(payload.items()) if k != "rows"]
        for r in payload.get("rows", []):
            lines.append("  " + "  ".join(f"{k}={v}" for k, v in r.items()))
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- fgl ------------------------------------------------------------------------


def cmd_fgl(cfg):
    law = load_law(cfg)
    R = law.ring
    rows = []
    rows += _coeff_rows("F", law.F, R)
    rows += _coeff_rows("iota", law.iota, R)
    rows += _coeff_rows("pF", law.pF, R)
    if law.log is not None:
        rows += _coeff_rows("phi", law.log, R)
        rows += _coeff_rows("phi_inv", law.exp, R)
    rows += _coeff_rows("G", law.G, R)
    payload = {"law": law.name, "trunc": law.trunc, "rows": rows}
    if law.name.startswith("p_typical"):
        # the constructor raises IntegralityFailure otherwise, so reaching
        # this point certifies integrality through the truncation order
        payload["integral"] = all(c.denominator == 1
                                  for c in law.F.coeffs.values())
    return payload, 0


# -- binom -----------------------------------------------------------------------


def cmd_binom(cfg, nmin, nmax):
    from .calculus import f_binomial

    law = load_law(cfg)
    R = law.ring
    B = cfg.window
    # a negative power is an infinite expansion: only its box cells are shown
    shown = [(n, i, j, c) for n in range(nmin, nmax + 1)
             for (i, j), c in sorted(f_binomial(law, n).items())
             if n >= 0 or (-B <= i <= B and -B <= j <= B)]
    rows = [{"n": n, "exp": f"{i};{j}", "coeff": R.to_text(c)}
            for n, i, j, c in shown]
    payload = {"law": law.name, "trunc": law.trunc, "rows": rows,
               "truncated_rows": [n for n in range(nmin, nmax + 1) if n < 0],
               "box": B}
    if law.name == "one_parameter":
        s = R.param("s")
        payload["closed_form_match"] = all(
            R.eq(c, R.mul(R.from_int(comb_any(n, j) * comb_any(j, i + j - n)),
                          _rpow(R, s, i + j - n)))
            for n, i, j, c in shown)
    return payload, 0


def _rpow(R, x, k):
    out = R.one()
    for _ in range(k):
        out = R.mul(out, x)
    return out


# -- verify ----------------------------------------------------------------------


def _vertex_suite(cfg, law):
    """Law-independent vertex checks: the ones the theory guarantees for
    every group law under the partial Y (the law-dependent identities,
    field-level skew and the w-dominant route, are reported by the library
    checkers with their defect cells and are exercised in the test suite)."""
    from .calculus import Report
    from .vertex import (MAX_ORDER, WEAK_ASSOCIATIVITY_TOP, TrivialAlgebra,
                         axiom_check, jacobi_identity_check, lie_axiom_check,
                         weak_commutativity_order)

    A = _heisenberg_algebra(cfg, law)
    bg = A.generator
    vac = A.vacuum
    checks = [
        ("vacuum_creation", lambda: axiom_check(A, "vacuum_creation")),
        ("translation_covariance",
         lambda: axiom_check(A, "translation_covariance")),
        ("commutativity_order", lambda: Report(
            "vertex/commutativity_order", A.law.name, {"Mmax": MAX_ORDER},
            details={"M": weak_commutativity_order(A, bg, bg, vac)})),
        ("lie_axioms", lambda: lie_axiom_check(A)),
        ("jacobi", lambda: jacobi_identity_check(
            A, bg, bg, vac, B=min(cfg.window, 3))),
        ("fixture", lambda: axiom_check(
            TrivialAlgebra(standard_law(
                "additive", trunc=sum(WEAK_ASSOCIATIVITY_TOP) + 1)),
            "weak_associativity")),
    ]
    return checks


def _suite_checks(cfg, law, suite):
    from .calculus import (
        delta_g_relation_check,
        delta_phi_relation_check,
        delta_residue_check,
        delta_support_check,
        f_binomial_identities,
        f_jacobi_delta_check,
        hyperderivative_properties,
        iterated_residue_check,
        residue_inversion_check,
        residue_theorems_check,
    )

    B = cfg.window
    checks = []
    if suite in ("all", "binom"):
        # --inject-fault corrupts one table entry so the failure path and
        # exit code contract stay testable against a valid law
        override = {(1, 1, 0): law.ring.from_int(7)} if cfg.inject_fault \
            else None
        checks.append(("binom",
                       lambda: f_binomial_identities(law, override=override)))
    if suite in ("all", "delta"):
        # the two-variable delta comparisons lose box rows to the factor
        # spread, so compute on a box wide enough that a window of size B
        # survives; the reports carry the surviving windows
        Bc = max(B, 6)
        zsq = LaurentElement(law.ring, ("z",),
                             {(2,): law.ring.one()}, law.trunc)
        checks += [
            ("delta_support", lambda: delta_support_check(law, zsq,
                                                          box=(-Bc, Bc))),
            ("delta_g_relation", lambda: delta_g_relation_check(law,
                                                                box=(-Bc, Bc))),
            ("delta_invariant_factor",
             lambda: delta_phi_relation_check(law, box=(-Bc, Bc))),
            ("delta_jacobi", lambda: f_jacobi_delta_check(law, B=min(B, 4))),
        ]
    if suite in ("all", "residue"):
        checks += [
            ("residue_delta_unit", lambda: delta_residue_check(law,
                                                               box=(-B, B))),
            ("residue_theorems", lambda: residue_theorems_check(
                law, nmax=5, samples=20, seed=cfg.seed)),
            ("residue_inversion", lambda: residue_inversion_check(
                law, samples=10, seed=cfg.seed + 1)),
            ("residue_iterated", lambda: iterated_residue_check(law, ITERATED_TRIPLES)),
        ]
    if suite in ("all", "hyper"):
        checks.append(("hyper", lambda: hyperderivative_properties(law)))
    if suite in ("all", "vertex"):
        if law.ring.kind == "rationals" and not cfg.law_file:
            checks += _vertex_suite(cfg, law)
        elif suite == "vertex":
            raise ConfigError(
                "the vertex suite needs a built-in law with rational "
                "coefficients")
    return checks


def cmd_verify(cfg, suite):
    law = load_law(cfg)
    checks = _suite_checks(cfg, law, suite)
    t0 = time.perf_counter()
    results = []
    for name, fn in checks:
        try:
            results.append((name, fn()))
        except WindowMiss as e:
            # a certified window beyond the truncation is a configuration
            # problem, not a failed identity
            raise ConfigError(f"check {name!r} needs more than truncation "
                              f"{law.trunc}: {e}")
        except EmptyWindow as e:
            # likewise a window that nothing certifies at this truncation
            raise ConfigError(f"check {name!r} certifies no cell at "
                              f"truncation {law.trunc}: {e}")
    elapsed = time.perf_counter() - t0
    print(f"verify suite={suite} law={law.name} "
          f"elapsed={elapsed:.2f}s", file=sys.stderr)
    rows = []
    ok = True
    first_fail = None
    for name, rep in results:
        rows.append({"check": name, "identity": rep.identity,
                     "status": "pass" if rep.ok else "fail"})
        if not rep.ok and first_fail is None:
            first_fail = rep.to_json()
            ok = False
    payload = {"suite": suite, "law": law.name, "seed": cfg.seed,
               "trunc": law.trunc, "window": cfg.window,
               "ok": ok, "rows": rows,
               "reports": [rep.to_json() for _, rep in results]}
    if first_fail is not None:
        payload["first_failure"] = first_fail
    return payload, 0 if ok else 1


# -- heisenberg --------------------------------------------------------------------


def _heisenberg_algebra(cfg, law):
    """The Heisenberg algebra at --weight W over law, rebuilt at truncation
    3 W when law's is lower; a law file cannot be rebuilt."""
    from .vertex import HeisenbergAlgebra

    W = cfg.weight
    if law.trunc < 3 * W:
        if cfg.law_file:
            raise ConfigError(
                f"law file truncation {law.trunc} too small for weight {W}")
        law = standard_law(cfg.kind, trunc=3 * W, **cfg.params)
    return HeisenbergAlgebra(law, W=W)


def cmd_heisenberg(cfg, action):
    from .vertex import (b_apply, lie_bracket, st_scale, st_sub, state_text,
                         state_to_json)

    law = load_law(cfg)
    if law.ring.kind != "rationals":
        raise ConfigError("heisenberg commands need rational coefficients")
    A = _heisenberg_algebra(cfg, law)
    K = A.K
    if action == "commutators":
        rows = []
        ok = True
        basis = A.basis_monomials()
        for n in range(-K, K + 1):
            for m in range(-K, K + 1):
                want = n if n == -m else 0
                good = all(
                    st_sub(b_apply(n, b_apply(m, {mono: 1})),
                           b_apply(m, b_apply(n, {mono: 1})))
                    == st_scale({mono: 1}, want)
                    for mono in basis)
                ok = ok and good
                rows.append({"n": n, "m": m, "bracket": str(want),
                             "status": "pass" if good else "fail"})
        payload = {"law": A.law.name, "K": K, "W": A.W, "ok": ok, "rows": rows}
        return payload, 0 if ok else 1
    if action == "shift":
        rows = []
        for n in range(0, A.W + 1):
            for mono, img in A.shift_matrix(n).items():
                for out_mono, c in sorted(img.items()):
                    rows.append({"n": n,
                                 "input": ";".join(map(str, mono)) or "vac",
                                 "output": ";".join(map(str, out_mono)) or "vac",
                                 "coeff": str(c)})
        return {"law": A.law.name, "W": A.W, "rows": rows}, 0
    if action == "bracket_table":
        states = {"vac": A.vacuum, "b": A.generator}
        table = {(a, b): lie_bracket(A, sa, sb)
                 for a, sa in states.items() for b, sb in states.items()}
        # antisymmetry of the table where the field-level skew holds; the
        # additive law satisfies it on all pairs
        ok = A.law.name != "additive" or all(
            (q + table[b, a]).is_zero() for (a, b), q in table.items())
        payload = {"law": A.law.name, "W": A.W, "ok": ok,
                   "rows": [{"a": a, "b": b, "class": state_text(q.rep)}
                            for (a, b), q in table.items()],
                   "classes": [{"a": a, "b": b, "rep": state_to_json(q.rep)}
                               for (a, b), q in table.items()]}
        return payload, 0 if ok else 1
    raise ConfigError(f"unknown heisenberg action {action!r}")


# -- entry point -------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="fglcalc",
                                description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kind", default="additive",
                        choices=["additive", "multiplicative", "one_parameter",
                                 "elliptic", "p_typical"])
    common.add_argument("--law-file", default=None)
    common.add_argument("--trunc", type=int, default=12)
    common.add_argument("--window", type=int, default=6)
    common.add_argument("--weight", type=int, default=6)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", default="json",
                        choices=["json", "csv", "pretty"])
    common.add_argument("--out", default=None)
    # the parameters of p_typical, the only built-in law that reads any
    common.add_argument("--p", type=int, default=None)
    common.add_argument("--h", type=int, default=None)
    common.add_argument("--inject-fault", action="store_true",
                        help="corrupt one binomial table entry (testing aid)")

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("fgl", parents=[common])
    b = sub.add_parser("binom", parents=[common])
    b.add_argument("--nmin", type=int, default=0)
    b.add_argument("--nmax", type=int, default=4)
    v = sub.add_parser("verify", parents=[common])
    v.add_argument("--suite", default="all",
                   choices=["all", "binom", "delta", "residue", "hyper",
                            "vertex"])
    h = sub.add_parser("heisenberg", parents=[common])
    h.add_argument("--action", default="commutators",
                   choices=["commutators", "shift", "bracket_table"])
    return p


def config_from_args(args):
    params = {k: v for k, v in (("p", args.p), ("h", args.h)) if v is not None}
    return CliConfig(kind=args.kind, params=params, law_file=args.law_file,
                     trunc=args.trunc, window=args.window, weight=args.weight,
                     seed=args.seed, format=args.format, out=args.out,
                     inject_fault=args.inject_fault)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "fgl":
            payload, code = cmd_fgl(cfg)
        elif args.command == "binom":
            payload, code = cmd_binom(cfg, args.nmin, args.nmax)
        elif args.command == "verify":
            payload, code = cmd_verify(cfg, args.suite)
        else:
            payload, code = cmd_heisenberg(cfg, args.action)
    except (ConfigError, AxiomViolation, IntegralityFailure) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    emit(cfg, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
