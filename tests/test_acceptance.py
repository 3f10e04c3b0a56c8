"""Acceptance gate: ten numbered criteria, one test per criterion.

Every comparison is exact coefficient equality (the arithmetic is exact, so
there are no tolerances anywhere), and each test asserts its own wall-clock
budget.  The pytest verbose output therefore gives one pass/fail line per
criterion; the timing line is printed for runs with -s.
"""

import time
from fractions import Fraction
from functools import lru_cache
from math import comb

from fglcalc.ring import Ring
from fglcalc.series import LaurentElement, PowerSeries, comb_any
from fglcalc.fgl import (
    FormalGroupLaw,
    g_factor,
    logarithm,
    standard_law,
)
from fglcalc.calculus import (
    FBinomialTable,
    delta_F,
    delta_g_relation_check,
    delta_phi_relation_check,
    delta_residue_check,
    delta_support_check,
    f_binomial_identities,
    f_jacobi_delta_check,
    hyperderivative,
    hyperderivative_properties,
    iterated_residue_check,
    residue_inversion_check,
    residue_theorems_check,
)
from fglcalc.vertex import (
    HeisenbergAlgebra,
    b_apply,
    heisenberg_cocycle,
    lie_axiom_check,
    lie_bracket,
    quotient_reduce,
    st_add,
    st_scale,
    st_sub,
    state_weight,
)

QQ = Ring.rationals()

BUILTINS = [("additive", {}), ("multiplicative", {}), ("one_parameter", {}),
            ("elliptic", {}), ("p_typical", {"p": 2, "h": 1})]


class _budget:
    """Times the criterion body and asserts the stated wall-clock budget."""

    def __init__(self, num, label, seconds):
        self.num, self.label, self.seconds = num, label, seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, et, ev, tb):
        dt = time.time() - self.t0
        status = "pass" if et is None and dt < self.seconds else "FAIL"
        print(f"[acceptance] criterion {self.num:02d} {self.label}: {status} "
              f"({dt:.2f}s, budget {self.seconds}s)")
        if et is None:
            assert dt < self.seconds, \
                f"criterion {self.num} exceeded budget: {dt:.2f}s"
        return False


@lru_cache(maxsize=None)
def _law(kind, trunc, extra=()):
    return standard_law(kind, trunc=trunc, **dict(extra))


@lru_cache(maxsize=None)
def _heis(kind, W=6):
    return HeisenbergAlgebra(_law(kind, 3 * W), W=W)


def vac():
    return {(): Fraction(1)}


def bgen():
    return {(-1,): Fraction(1)}


def test_criterion_01_group_law_axioms_and_integrality():
    with _budget(1, "group-law suite", 10):
        # construction runs the full axiom validation at the truncation
        for kind, params in BUILTINS:
            L = _law(kind, 12, tuple(params.items()))
            assert L.trunc == 12
        for p in (2, 3):
            L = _law("p_typical", 12, (("p", p), ("h", 1)))
            assert all(c.denominator == 1 for c in L.F.coeffs.values()), p


def test_criterion_02_logarithms():
    with _budget(2, "logarithm checks", 5):
        # closed form: z^n coefficient of phi is (-s)^(n-1)/n
        L = _law("one_parameter", 12)
        phi = logarithm(L)
        for n in range(1, 12):
            assert phi.coefficient((n,)) == \
                {(n - 1,): Fraction((-1) ** (n - 1), n)}, n
        # linearization for the rational-coefficient laws
        for kind, extra in [("additive", ()), ("multiplicative", ()),
                            ("p_typical", (("p", 2), ("h", 1))),
                            ("p_typical", (("p", 3), ("h", 1)))]:
            L = _law(kind, 12, extra)
            phi = logarithm(L)
            lhs = phi.substitute({"z": L.F})
            rhs = phi.extend(("z", "w")) + \
                phi.rename(("w",)).extend(("z", "w"))
            t = min(lhs.trunc, rhs.trunc)
            assert lhs.truncate(t) == rhs.truncate(t), kind


def test_criterion_03_g_factor():
    with _budget(3, "G-factor", 5):
        for kind, params in BUILTINS:
            L = _law(kind, 12, tuple(params.items()))
            R = L.ring
            G = g_factor(L)
            # F(z, iota w) = G(z,w) * (z - w) through total degree 10
            zmw = LaurentElement(R, ("z", "w"),
                                 {(1, 0): R.one(), (0, 1): R.neg(R.one())},
                                 G.trunc)
            prod = G.as_laurent() * zmw
            f = L.f_z_iota_w()
            for i in range(0, 10):
                for j in range(0, 10 - i):
                    if prod.reliable_at((i, j)) and f.reliable_at((i, j)):
                        assert R.eq(prod.coefficient((i, j)),
                                    f.coefficient((i, j))), (kind, i, j)
            # diagonal of G is the derivative of the logarithm
            diag = G.as_laurent().diagonal_eval()
            dphi = logarithm(L).derivative("z")
            for n in range(min(diag.trunc, dphi.trunc, 10)):
                assert R.eq(diag.coefficient((n,)),
                            dphi.coefficient((n,))), (kind, n)


def test_criterion_04_f_binomial_tables():
    with _budget(4, "F-binomial suite", 10):
        L = _law("one_parameter", 12)
        R = L.ring
        s = R.param("s")
        tab = FBinomialTable(L, nmax=4)
        for n in range(-4, 5):
            sl = tab.slices[n]
            for i in range(-9, 10):
                for j in range(0, 10):
                    if i + j >= 10 or not sl.reliable_at((i, j)):
                        continue
                    k = i + j - n
                    want = R.zero()
                    if k >= 0:
                        want = R.from_int(comb_any(n, j) * comb_any(j, k))
                        for _ in range(k):
                            want = R.mul(want, s)
                    assert R.eq(sl.coefficient((i, j)), want), (n, i, j)
        rep = f_binomial_identities(L, nmax=4, smax=4)
        assert rep.ok, rep.to_json()


def test_criterion_05_delta_suite():
    with _budget(5, "delta suite", 60):
        # displayed series on the box [-6,6]
        D = delta_F(_law("additive", 12), box=(-6, 6))
        for e0 in range(-6, 7):
            for e1 in range(-6, 7):
                if not D.region._contains((e0, e1)):
                    continue
                want = Fraction(1 if e1 == -e0 - 1 else 0)
                assert D.coeffs.get((e0, e1), Fraction(0)) == want, (e0, e1)
        L = _law("one_parameter", 12)
        R = L.ring
        s = R.param("s")
        D = delta_F(L, box=(-6, 6))
        for e0 in range(-6, 7):
            for e1 in range(-6, 7):
                if not D.region._contains((e0, e1)):
                    continue
                want = R.one() if e1 == -e0 - 1 else \
                    (s if e1 == -e0 else R.zero())
                assert R.eq(D.coeffs.get((e0, e1), R.zero()), want), (e0, e1)
        # support, G-relation, and the invariant-factor relation
        for kind, params in BUILTINS:
            L = _law(kind, 12, tuple(params.items()))
            f = LaurentElement(L.ring, ("z",), {(2,): L.ring.one()}, L.trunc)
            assert delta_support_check(L, f).ok, kind
            assert delta_g_relation_check(L).ok, kind
            assert delta_phi_relation_check(L).ok, kind
        # three-variable Jacobi and the exchange identity on [-4,4]^3
        for kind in ("additive", "one_parameter", "elliptic"):
            rep = f_jacobi_delta_check(_law(kind, 16), B=4)
            assert rep.ok, (kind, rep.to_json())


def test_criterion_06_residue_suite():
    with _budget(6, "residue suite", 30):
        triples = [(a, b, -2 - a - b) for a in range(-3, 2)
                   for b in range(-2, 1)][:15]
        assert len(triples) == 15
        for kind, params in BUILTINS:
            L = _law(kind, 12, tuple(params.items()))
            assert delta_residue_check(L).ok, kind
            assert residue_inversion_check(L, samples=10, seed=1).ok, kind
            assert residue_theorems_check(L, nmax=5, samples=20,
                                          seed=0).ok, kind
            assert iterated_residue_check(L, triples).ok, kind


def test_criterion_07_hyperderivatives():
    with _budget(7, "hyperderivative suite", 10):
        for kind, params in BUILTINS:
            L = _law(kind, 12, tuple(params.items()))
            assert hyperderivative_properties(L).ok, kind
        # characteristic-two torsion: S_1 S_1 = 0 while S_2 is not
        Z2 = Ring.integers_mod(2)
        F = PowerSeries(Z2, ("z", "w"), {(1, 0): 1, (0, 1): 1}, 10)
        L2 = FormalGroupLaw(F, name="additive_mod2")
        zsq = LaurentElement(Z2, ("z",), {(2,): 1}, 10)
        s1s1 = hyperderivative(L2, hyperderivative(L2, zsq, 1), 1)
        assert all(c == 0 for e, c in s1s1.coeffs.items()
                   if s1s1.reliable_at(e))
        assert hyperderivative(L2, zsq, 2).coefficient((0,)) == 1


def test_criterion_08_heisenberg():
    with _budget(8, "Heisenberg algebra", 30):
        HA, HM = _heis("additive"), _heis("multiplicative")
        # mode commutators [b_n, b_m] = n delta_{n,-m} on the weight-6 basis
        for n in range(-6, 7):
            for m in range(-6, 7):
                for mono in HA.basis_monomials():
                    x = {mono: Fraction(1)}
                    comm = st_sub(b_apply(n, b_apply(m, x)),
                                  b_apply(m, b_apply(n, x)))
                    assert comm == (st_scale(x, n) if n == -m else {}), (n, m)
        for A in (HA, HM):
            # shift operators annihilate the vacuum in positive degree
            for n in range(1, 7):
                assert A.shift(n, vac()) == {}
            # S(z) S(w) = S(F(z,w)), matrix-exact on the weight-6 truncation
            F = A.law.as_laurent()
            powers = {k: F.int_power(k) for k in range(0, A.W + 1)}
            for mono in A.basis_monomials():
                x = {mono: Fraction(1)}
                wt = state_weight(x)
                for i in range(0, A.W - wt + 1):
                    for j in range(0, A.W - wt - i + 1):
                        lhs = A.shift(i, A.shift(j, x))
                        rhs = {}
                        for k in range(0, i + j + 1):
                            c = powers[k].coefficient((i, j))
                            if c:
                                rhs = st_add(rhs, st_scale(A.shift(k, x), c))
                        assert lhs == rhs, (A.law.name, mono, i, j)
            # cocycle pairing values
            for n in range(1, 7):
                tn = LaurentElement(QQ, ("t",), {(n,): Fraction(1)},
                                    A.law.trunc)
                tmn = LaurentElement(QQ, ("t",), {(-n,): Fraction(1)},
                                     A.law.trunc)
                assert heisenberg_cocycle(A.law, tn, tmn) == Fraction(n)


def test_criterion_09_lie_algebra_theorem():
    with _budget(9, "associated Lie algebra", 60):
        HA, HM = _heis("additive"), _heis("multiplicative")
        for A in (HA, HM):
            r = lie_axiom_check(A)
            assert r.ok, (A.law.name, r.status)
            assert r.details["triples"] == 8
        # classical residue oracle for the additive law: on the Y-domain
        # Y(alpha vac + beta b(-1)vac, z) = alpha id + beta b(z), so the
        # bracket is beta * b_0 applied to the second argument
        samples = [vac(), bgen(), st_add(vac(), bgen()),
                   st_scale(bgen(), Fraction(3, 2)),
                   st_add(st_scale(vac(), Fraction(-2)), bgen())]
        for a in samples:
            for b in samples:
                beta = a.get((-1,), Fraction(0))
                want = quotient_reduce(HA, st_scale(b_apply(0, b), beta))
                assert lie_bracket(HA, a, b) == want


def test_criterion_10_cross_truncation_stability():
    with _budget(10, "cross-truncation stability", 120):
        for kind, params in BUILTINS:
            extra = tuple(params.items())
            L8 = _law(kind, 8, extra)
            L12 = _law(kind, 12, extra)
            # the series data agrees after truncation to degree 8
            assert L12.F.truncate(8) == L8.F, kind
            t = min(L8.iota.trunc, 8)
            assert L12.iota.truncate(t) == L8.iota.truncate(t), kind
            t = min(L8.pF.trunc, 8)
            assert L12.pF.truncate(t) == L8.pF.truncate(t), kind
            t = min(g_factor(L8).trunc, g_factor(L12).trunc, 8)
            assert g_factor(L12).truncate(t) == g_factor(L8).truncate(t), kind
            # binomial tables agree where both truncations certify a cell
            t8 = FBinomialTable(L8, nmax=3)
            t12 = FBinomialTable(L12, nmax=3)
            R = L8.ring
            for n in range(-3, 4):
                for i in range(-5, 6):
                    for j in range(0, 6):
                        if all(t.slices[n].reliable_at((i, j)) for t in (t8, t12)):
                            assert R.eq(t8.entry(n, i, j),
                                        t12.entry(n, i, j)), (kind, n, i, j)
            # the suites pass again at the lower truncation
            assert f_binomial_identities(L8, nmax=2, smax=3).ok, kind
            assert delta_g_relation_check(L8).ok, kind
            assert delta_phi_relation_check(L8).ok, kind
            assert delta_residue_check(L8).ok, kind
            assert residue_theorems_check(L8, nmax=4, samples=10,
                                          seed=0).ok, kind
            assert iterated_residue_check(
                L8, [(-1, 0, -1), (-2, 1, -1), (0, -2, 0)]).ok, kind
            assert hyperderivative_properties(L8, nmax=2).ok, kind
            # windows at B = 4 agree with the B = 6 run restricted
            D4 = delta_F(L12, box=(-4, 4))
            D6 = delta_F(L12, box=(-6, 6))
            for e in set(D4.coeffs) | set(D6.coeffs):
                if D4.region._contains(e) and D6.region._contains(e):
                    assert R.eq(D4.coeffs.get(e, R.zero()),
                                D6.coeffs.get(e, R.zero())), (kind, e)
