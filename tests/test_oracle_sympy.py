"""Law companions against an independent computation in sympy.

For the four built-in laws over QQ and QQ[params] at trunc 12, sympy
rebuilds F from its closed form and derives the companions its own way:
log as the integral of 1 / F_w(z, 0) (series inversion), exp as the series
reversion of log, iota by solving F(z, y) = 0 for y in closed form, and G
by exact polynomial division of F(z, iota(w)) by z - w.  The twisted powers
F(z, iota w)^n are expanded from sympy's iota by the substitution w = z*u,
with no G and no floors logic.  sympy is installed but not a declared
dependency, so the module is skipped without it.
"""

from functools import cache

import pytest

sp = pytest.importorskip("sympy")
from sympy.polys.domains import QQ as SQQ
from sympy.polys.ring_series import (
    rs_integrate,
    rs_nth_root,
    rs_series_inversion,
    rs_series_reversion,
)
from sympy.polys.rings import ring

from fglcalc.fgl import standard_law
from fglcalc.series import LaurentElement

T = 12
R, z, w, u, y, s, d, e = ring("z, w, u, y, s, d, e", SQQ)
PARAMS = {"s": s, "d": d, "e": e}


def cut(p, n):
    """The terms of p of total degree below n in (z, w)."""
    return R({m: c for m, c in p.items() if m[0] + m[1] < n})


def closed_form(kind):
    """F(z, w) to total degree T, and F as a sympy expression for solve."""
    if kind == "elliptic":
        # Euler's addition law: (z sqrt(S(w)) + w sqrt(S(z))) / (1 - e z^2 w^2)
        def root(x):
            return rs_nth_root(1 - 2 * d * x**2 + e * x**4, 2, x, T)

        geometric = sum((e * z**2 * w**2) ** k for k in range(T // 4 + 1))
        F = cut(cut(z * root(w) + w * root(z), T) * geometric, T)
        Z, W, D, E = sp.symbols("z w d e")

        def S(x):
            return 1 - 2 * D * x**2 + E * x**4

        return F, (Z * sp.sqrt(S(W)) + W * sp.sqrt(S(Z))) / (1 - E * Z**2 * W**2)
    F = {"additive": z + w, "multiplicative": z + w + z * w,
         "one_parameter": z + w + s * z * w}[kind]
    return F, F.as_expr()


def as_ring(f):
    """A fglcalc series in z (and w) as an element of R."""
    gens = {"z": z, "w": w, "u": u}
    out = R(0)
    for exps, c in f.coeffs.items():
        if isinstance(c, dict):
            params = [PARAMS[p] for p in f.ring.params]
            value = R(0)
            for pexps, q in c.items():
                term = R(SQQ(q.numerator, q.denominator))
                for g, k in zip(params, pexps):
                    term *= g**k
                value += term
        else:
            value = R(SQQ(c.numerator, c.denominator))
        for v, k in zip(f.vars, exps):
            value *= gens[v] ** k
        out += value
    return out


@pytest.fixture(scope="module", params=["additive", "multiplicative",
                                        "one_parameter", "elliptic"])
def case(request):
    kind = request.param
    F, expr = closed_form(kind)
    return standard_law(kind, trunc=T), F, expr


def test_law_matches_closed_form(case):
    L, F, _ = case
    assert as_ring(L.F) == F


def test_log_and_exp(case):
    L, F, _ = case
    log = rs_integrate(rs_series_inversion(F.diff(w).subs(w, 0), z, T - 1), z)
    exp = rs_series_reversion(log, z, T, y).compose(y, z)
    assert (L.log.trunc, L.exp.trunc) == (T, T)
    assert as_ring(L.log) == log
    assert as_ring(L.exp) == exp


@cache
def sympy_iota(kind):
    """iota(z) to degree T: the root y of F(z, y) = 0 with y = -z + O(z^2)."""
    _, expr = closed_form(kind)
    Z, W, Y = sp.symbols("z w y")
    roots = [r for r in sp.solve(expr.subs(W, Y), Y)
             if sp.series(r, Z, 0, 2).removeO().coeff(Z, 1) == -1]
    assert len(roots) == 1
    return R(sp.series(roots[0], Z, 0, T).removeO())


def test_iota_and_g(case):
    L, F, expr = case
    iota = sympy_iota(L.name)
    assert L.iota.trunc == T
    assert as_ring(L.iota) == iota
    # F(z, iota w) vanishes on z = w in every total degree, so its cut at T
    # is divisible by z - w, and G has truncation T - 1
    G, rest = cut(F.compose(w, iota.compose(z, w)), T).div(z - w)
    assert rest == 0
    assert L.G.trunc == T - 1
    assert as_ring(L.G) == G


def cut_zu(p, a, b):
    """The terms z^i u^j of p with i < a and j <= b."""
    return R({m: c for m, c in p.items() if m[0] < a and m[2] <= b})


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "one_parameter",
                                  "elliptic"])
def test_twisted_powers(kind):
    # with w = z*u, F(z, iota w) = z * A(z, u), A = (1 - u) + z*P(z, u), so
    # the z-dominant F(z, iota w)^n is z^n * sum_k C(n, k) (1 - u)^(n-k)
    # (zP)^k: its cell z^i w^j is the coefficient of z^(i+j-n) u^j there.
    # A is known below z-degree T - 1, and the certified cells reach
    # u-degree at most T - 2 + n + T (the z floor is -T)
    L = standard_law(kind, trunc=T)
    F, _ = closed_form(kind)
    iota = sympy_iota(kind)
    zA = cut(F.compose(w, iota.compose(z, z * u)), T)
    A = R({(m[0] - 1,) + m[1:]: c for m, c in zA.items()})
    zP = A - (1 - u)
    top_u = 2 * T
    zPk = [R(1)]
    for _ in range(T - 2):
        zPk.append(cut_zu(zPk[-1] * zP, T - 1, top_u))
    for n in (-3, -1, 2):
        An = R(0)
        for k, q in enumerate(zPk):
            line = sum((sp.binomial(n - k, b) * (-u) ** b for b in range(top_u + 1)), R(0))
            An += sp.binomial(n, k) * cut_zu(line * q, T - 1, top_u)
        got = L.power(n, twisted=True)
        assert got.floors == ((-T if n < 0 else None), None)
        # every cell the power certifies, as a monomial z^a u^b of A^n
        certified = {(a, b) for a in range(T - 1) for b in range(top_u + 1)
                     if got.reliable_at((a + n - b, b))}
        # n < 0: the z floor bounds the u-degree; n > 0: both sides vanish
        # beyond u-degree a + n, where z^(a+n-b) turns negative
        assert n > 0 or max(b for _, b in certified) < top_u
        want = R({m: c for m, c in An.items() if (m[0], m[2]) in certified})
        assert all(i + j >= n and j >= 0 for i, j in got.coeffs)
        mine = LaurentElement(got.ring, ("z", "u"),
                              {(i + j - n, j): c for (i, j), c in got.coeffs.items()},
                              got.trunc, _clean=True)
        assert as_ring(mine) == want, n


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "one_parameter",
                                  "elliptic"])
def test_power_slices(kind):
    # with w = z*u, F(z, w) = z * A(z, u), A = (1 + u) + z*P(z, u), so the
    # z-dominant F(z, w)^n is z^n * sum_k C(n, k) (1 + u)^(n-k) (zP)^k: cell
    # z^i w^j of its slice j is the coefficient of z^(i+j-n) u^j there, and
    # no cell lies below z^(n-j).  A is known below z-degree T - 1, so slice
    # j is certified below z^(T - 1 + n - j), with no floor
    L = standard_law(kind, trunc=T)
    F, _ = closed_form(kind)
    zA = cut(F.compose(w, z * u), T)
    A = R({(m[0] - 1,) + m[1:]: c for m, c in zA.items()})
    zP = A - (1 + u)
    cap = 4
    zPk = [R(1)]
    for _ in range(T - 2):
        zPk.append(cut_zu(zPk[-1] * zP, T - 1, cap))
    for n in (-3, -1):
        An = R(0)
        for k, q in enumerate(zPk):
            line = sum((sp.binomial(n - k, b) * u ** b for b in range(cap + 1)), R(0))
            An += sp.binomial(n, k) * cut_zu(line * q, T - 1, cap)
        slices = L.power_slices(n, cap)
        assert len(slices) == cap + 1
        for j, sj in enumerate(slices):
            assert (sj.vars, sj.trunc, sj.floors) == (("z",), T - 1 + n - j, (None,))
            assert all(i >= n - j for (i,) in sj.coeffs), (n, j)
            mine = LaurentElement(sj.ring, ("z", "u"),
                                  {(i + j - n, j): c for (i,), c in sj.coeffs.items()},
                                  T - 1, _clean=True)
            want = R({m: c for m, c in An.items() if m[2] == j})
            assert as_ring(mine) == want, (n, j)
