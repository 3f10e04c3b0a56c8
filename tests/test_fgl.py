import copy
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from fglcalc.fgl import (
    AxiomViolation,
    FormalGroupLaw,
    NeedsRationals,
    exponential,
    fgl_inverse,
    fgl_new,
    g_factor,
    invariant_differential,
    logarithm,
    partial_derivative,
    standard_law,
)
from fglcalc import fgl as fgl_module, series as series_module
from fglcalc.ring import Ring
from fglcalc.series import LaurentElement, PowerSeries, WindowMiss, separable_sum

from binomial_oracle import binomial_power, swap_variables
from hyperderivative_oracle import slice_w

QQ = Ring.rationals()
ZZ = Ring.integers()

ALL_KINDS = ["additive", "multiplicative", "one_parameter", "elliptic"]


def qq_series(coeffs, vars=("z", "w"), trunc=12):
    return PowerSeries(QQ, vars, {e: Fraction(c) for e, c in coeffs.items()}, trunc)


def specialize(f, values):
    """Evaluate the parameters of a parampoly-coefficient series at rationals."""
    R = f.ring
    out = {}
    for e, poly in f.coeffs.items():
        acc = Fraction(0)
        for pexp, base in poly.items():
            term = Fraction(base)
            for name, k in zip(R.params, pexp):
                term *= Fraction(values[name]) ** k
            acc += term
        if acc:
            out[e] = acc
    return PowerSeries(QQ, f.vars, out, f.trunc)


def swap_zw(f):
    return PowerSeries(f.ring, f.vars, {(j, i): c for (i, j), c in f.coeffs.items()},
                       f.trunc, _clean=True)


def at_zero(f, name):
    """Set one of the two variables to zero, keeping the ambient variables."""
    i = f.vars.index(name)
    return PowerSeries(f.ring, f.vars,
                       {e: c for e, c in f.coeffs.items() if e[i] == 0},
                       f.trunc, _clean=True)


# -- construction and validation ------------------------------------------


def test_additive_accepted():
    L = fgl_new(qq_series({(1, 0): 1, (0, 1): 1}))
    assert L.F.coeffs == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_one_parameter_form_accepted():
    R = Ring.parampoly(QQ, ["s"])
    F = PowerSeries(R, ("z", "w"),
                    {(1, 0): R.one(), (0, 1): R.one(), (1, 1): R.param("s")}, 10)
    L = fgl_new(F)
    assert L.ring == R


def test_unitality_violation_rejected():
    with pytest.raises(AxiomViolation) as exc:
        fgl_new(qq_series({(1, 0): 1, (0, 1): 1, (2, 0): 1}))
    assert exc.value.axiom == "unitality"
    assert exc.value.monomial == (2, 0)


def test_commutativity_violation_rejected():
    with pytest.raises(AxiomViolation) as exc:
        fgl_new(qq_series({(1, 0): 1, (0, 1): 1, (2, 1): 1}))
    assert exc.value.axiom == "commutativity"


def test_associativity_violation_rejected():
    # commutative and unital but not associative; the first failing monomial
    # of F(z, F(w,v)) - F(F(z,w), v) in (z, w, v), in sorted order
    with pytest.raises(AxiomViolation) as exc:
        fgl_new(qq_series({(1, 0): 1, (0, 1): 1, (2, 2): 1}))
    assert exc.value.axiom == "associativity"
    assert exc.value.monomial == (1, 1, 2)
    QS = Ring.parampoly(QQ, ["s"])
    s = QS.param("s")
    for ring, coeffs, trunc, monomial in [
            (ZZ, {(1, 1): 1, (2, 3): 1, (3, 2): 1}, 10, (1, 1, 3)),
            (Ring.integers_mod(5), {(1, 1): 3, (3, 3): 4}, 10, (1, 2, 3)),
            (QS, {(1, 1): s, (1, 3): s, (3, 1): s}, 9, (1, 1, 2))]:
        one = ring.one()
        F = PowerSeries(ring, ("z", "w"), {(1, 0): one, (0, 1): one, **coeffs}, trunc)
        with pytest.raises(AxiomViolation) as exc:
            fgl_new(F)
        assert (exc.value.axiom, exc.value.monomial) == ("associativity", monomial), ring


def test_rescaled_associativity_check_reports_the_plain_monomial():
    # validate works on F(Dz, Dw)/D; a perturbed elliptic law must fail at
    # the monomial where the unscaled sides F(z, F(w,v)), F(F(z,w), v) first
    # differ
    law = standard_law("elliptic", trunc=10)
    R = law.ring
    bump = R.mul({(0, 0): Fraction(1, 3)}, R.param("d"))
    coeffs = dict(law.F.coeffs)
    for e in [(2, 3), (3, 2)]:
        coeffs[e] = R.add(coeffs.get(e, R.zero()), bump)
    F = PowerSeries(R, ("z", "w"), coeffs, 10)
    assert max(map(R.denominator, F.coeffs.values())) > 1
    tv = ("z", "w", "v")
    lhs = F.substitute({"w": F.rename(("w", "v")).extend(tv)})
    rhs = F.rename(("z", "v")).extend(tv).substitute({"z": F.extend(tv)})
    plain = min(e for e in set(lhs.coeffs) | set(rhs.coeffs)
                if lhs.coefficient(e) != rhs.coefficient(e))
    with pytest.raises(AxiomViolation) as exc:
        fgl_new(F)
    assert (exc.value.axiom, exc.value.monomial) == ("associativity", plain)


def test_p_typical_rejects_bad_parameters():
    for params in [{"h": 0}, {"h": -1}, {"p": 1}, {"p": 0}, {"p": -2}, {"p": "x"},
                   {"p": 2.0}, {"h": True}]:
        with pytest.raises(ValueError, match="p >= 2 and h >= 1"):
            standard_law("p_typical", trunc=8, **params)


@pytest.mark.parametrize("trunc", [8, 12])
@pytest.mark.parametrize("kind", ALL_KINDS + ["p_typical"])
def test_axiom_suite_all_builtins(kind, trunc):
    # construction runs the full validation
    L = standard_law(kind, trunc=trunc)
    assert L.trunc == trunc


def test_p_typical_integrality():
    for p, h in [(2, 1), (3, 1)]:
        L = standard_law("p_typical", trunc=12, p=p, h=h)
        for c in L.F.coeffs.values():
            assert c.denominator == 1


# -- associativity: the separable certificate F = E(L(z) + L(w)) -------------

SIX_LAWS = [(k, {}) for k in ALL_KINDS] + [("p_typical", {"p": 2, "h": 1}),
                                          ("p_typical", {"p": 3, "h": 1})]
QS = Ring.parampoly(QQ, ["s"])


def two_sided_failure(F):
    """The first monomial, in sorted order, where F(z, F(w,v)) and
    F(F(z,w), v) differ, both sides substituted in full; or None."""
    tv = ("z", "w", "v")
    lhs = F.substitute({"w": F.rename(("w", "v")).extend(tv)})
    rhs = F.rename(("z", "v")).extend(tv).substitute({"z": F.extend(tv)})
    bad = [e for e in set(lhs.coeffs) | set(rhs.coeffs)
           if lhs.coefficient(e) != rhs.coefficient(e)]
    return min(bad, default=None)


def substituted_sum(E, L):
    """E(L(z) + L(w)) by two-variable substitution."""
    tv = ("z", "w")
    return E.substitute({"z": L.extend(tv) + L.rename(("w",)).extend(tv)})


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _ring_value(draw, ring):
    if ring == QQ:
        return QQ.from_fraction(draw(_small.filter(bool)))
    poly = draw(st.dictionaries(st.tuples(st.integers(0, 2)), _small.filter(bool),
                                min_size=1, max_size=2))
    return {e: QQ.from_fraction(c) for e, c in poly.items()}


@st.composite
def candidate_laws(draw):
    """A commutative unital F of w-degree >= 2 over QQ or QQ[s]: random
    symmetric cells, E(L(z) + L(w)) for a random L, or a built-in law;
    with one symmetric pair of cells bumped or not."""
    t = draw(st.integers(4, 12))
    source = draw(st.sampled_from(["random", "logarithm", "builtin"]))
    if source == "builtin":
        kind, params = draw(st.sampled_from(SIX_LAWS))
        F = standard_law(kind, trunc=t, **params).F
        ring = F.ring
        cells = dict(F.coeffs)
    else:
        ring = draw(st.sampled_from([QQ, QS]))
        one = ring.one()
        if source == "random":
            cells = {(1, 0): one, (0, 1): one}
            for _ in range(draw(st.integers(1, 4))):
                i = draw(st.integers(1, t - 3))
                j = draw(st.integers(2, t - 1 - i))
                cells[(i, j)] = cells[(j, i)] = _ring_value(draw, ring)
        else:
            L = {(1,): one}
            for _ in range(draw(st.integers(1, 3))):
                L[(draw(st.integers(2, t - 1)),)] = _ring_value(draw, ring)
            L = PowerSeries(ring, ("z",), L, t)
            cells = dict(substituted_sum(L.comp_inverse(), L).coeffs)
    if draw(st.booleans()):
        i = draw(st.integers(1, t - 2))
        j = draw(st.integers(1, t - 1 - i))
        bump = _ring_value(draw, ring)
        for e in {(i, j), (j, i)}:
            cells[e] = ring.add(cells.get(e, ring.zero()), bump)
    F = PowerSeries(ring, ("z", "w"), cells, t)
    assume(max(j for _, j in F.coeffs) >= 2)
    return F


@given(F=candidate_laws())
@settings(max_examples=60, deadline=None)
def test_separable_certificate_matches_the_substitution(F):
    # the certificate accepts exactly the laws that the full substitution
    # finds associative, and every rejection names its first failing monomial
    want = two_sided_failure(F)
    if want is None:
        law = fgl_new(F)
        assert separable_sum(law.exp, law.log, F.trunc) == F.coeffs
    else:
        with pytest.raises(AxiomViolation) as exc:
            fgl_new(F)
        assert (exc.value.axiom, exc.value.monomial) == ("associativity", want)


@pytest.mark.parametrize("trunc", [8, 12, 16, 24])
@pytest.mark.parametrize("kind,params", SIX_LAWS)
def test_separable_sum_rebuilds_the_law(kind, params, trunc):
    law = standard_law(kind, trunc=trunc, **params)
    assert separable_sum(law.exp, law.log, trunc) == law.F.coeffs


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2)])
def test_p_typical_is_the_substituted_sum(p, h):
    for trunc in range(4, 25):
        phi = fgl_module._phi_p(QQ, p, h, trunc)
        want = substituted_sum(phi.comp_inverse(), phi)
        F = standard_law("p_typical", trunc=trunc, p=p, h=h).F
        assert (F.coeffs, F.trunc) == (want.coeffs, want.trunc)


def test_separable_sum_needs_its_inputs_below_t():
    law = standard_law("elliptic", trunc=8)
    with pytest.raises(ValueError, match="not known below 9"):
        separable_sum(law.exp, law.log, 9)
    with pytest.raises(ValueError, match="L\\(0\\) = 0"):
        separable_sum(law.exp, law.pF, law.pF.trunc)


def test_associativity_route_follows_ring_and_w_degree(monkeypatch):
    calls = []
    real = fgl_module.separable_sum
    monkeypatch.setattr(fgl_module, "separable_sum",
                        lambda *a: calls.append(1) or real(*a))
    for kind in ["additive", "multiplicative", "one_parameter"]:
        standard_law(kind, trunc=10)
    one = ZZ.one()
    fgl_new(PowerSeries(ZZ, ("z", "w"), {(1, 0): one, (0, 1): one, (1, 1): 2}, 10))
    assert not calls
    standard_law("elliptic", trunc=10)
    assert len(calls) == 1


def test_failed_certificate_never_accepts(monkeypatch):
    # a certificate that fails on a valid law goes to the locator, which
    # finds no monomial: the law is still rejected
    monkeypatch.setattr(fgl_module, "separable_sum", lambda *a: {})
    with pytest.raises(AxiomViolation) as exc:
        standard_law("elliptic", trunc=10)
    assert (exc.value.axiom, exc.value.monomial) == ("associativity", None)
    assert str(exc.value) == "group-law axiom 'associativity' fails"


# -- inverse ---------------------------------------------------------------


def test_additive_inverse():
    L = standard_law("additive", trunc=10)
    assert fgl_inverse(L).coeffs == {(1,): Fraction(-1)}


def test_multiplicative_inverse_geometric():
    # solve F(z, iota) = 0 by hand: iota = -z/(1+z) = -z + z^2 - z^3 + ...
    L = standard_law("multiplicative", trunc=12)
    iota = fgl_inverse(L)
    for n in range(1, 12):
        assert iota.coefficient((n,)) == Fraction((-1) ** n)


@pytest.mark.parametrize("kind,params", [(k, {}) for k in ALL_KINDS]
                         + [("p_typical", {"p": 2, "h": 1}),
                            ("p_typical", {"p": 3, "h": 1})])
def test_inverse_annihilates_at_trunc_24(kind, params):
    # F(z, iota z) = 0 through the whole truncation
    L = standard_law(kind, trunc=24, **params)
    r = L.F.substitute({"z": PowerSeries.var(L.ring, ("z",), "z", 24), "w": L.iota})
    assert r.trunc == 24 and r.is_zero()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_inverse_is_involution(kind):
    L = standard_law(kind, trunc=10)
    iota = fgl_inverse(L)
    back = iota.substitute({"z": iota})
    assert back == PowerSeries.var(L.ring, ("z",), "z", back.trunc)


# -- invariant differential ------------------------------------------------


def test_invariant_differential_additive():
    L = standard_law("additive", trunc=10)
    assert invariant_differential(L).coeffs == {(0,): Fraction(1)}


def test_invariant_differential_multiplicative():
    L = standard_law("multiplicative", trunc=12)
    pF = invariant_differential(L)
    for n in range(11):
        assert pF.coefficient((n,)) == Fraction((-1) ** n)


def signed_compositions(d, parts):
    """Sum of (-1)^k over ordered tuples from `parts` summing to d."""
    if d == 0:
        return 1
    return -sum(signed_compositions(d - p, parts) for p in parts if p <= d)


@pytest.mark.parametrize("p", [2, 3])
def test_p_typical_differential_enumeration_oracle(p):
    # 1/p_F = F^{0,1}(z,0); its z^d coefficient is the signed count of
    # compositions of d into parts p^n - 1.  (The cleaner-looking rule
    # "partitions of d into positive powers of p" is wrong: it would make
    # every odd-degree coefficient vanish, and they don't.)
    L = standard_law("p_typical", trunc=12, p=p, h=1)
    f01 = partial_derivative(L, 0, 1)
    parts = [p ** n - 1 for n in range(1, 5) if p ** n - 1 <= 9]
    for d in range(10):
        assert f01.coefficient((d, 0)) == Fraction(signed_compositions(d, parts)), d


@pytest.mark.parametrize("kind", ALL_KINDS + ["p_typical"])
def test_differential_inverts_f01(kind):
    L = standard_law(kind, trunc=10)
    f01 = at_zero(partial_derivative(L, 0, 1), "w")
    pF = invariant_differential(L).rename(("z",)).extend(("z", "w"))
    prod = (pF * f01).truncate(f01.trunc)
    assert prod == PowerSeries.one(L.ring, ("z", "w"), prod.trunc)


def test_pullback_of_differential_negates():
    # p_F(iota(z)) * iota'(z) = -p_F(z)
    for kind in ALL_KINDS + ["p_typical"]:
        L = standard_law(kind, trunc=10)
        iota = fgl_inverse(L)
        lhs = invariant_differential(L).substitute({"z": iota}) * iota.derivative("z")
        rhs = -invariant_differential(L)
        t = min(lhs.trunc, rhs.trunc)
        assert lhs.truncate(t) == rhs.truncate(t), kind


# -- logarithm and exponential ---------------------------------------------


def test_logarithm_additive():
    L = standard_law("additive", trunc=10)
    assert logarithm(L) == PowerSeries.var(QQ, ("z",), "z", 10)


def test_logarithm_one_parameter_closed_form():
    # phi = z - s z^2/2 + s^2 z^3/3 - ...
    L = standard_law("one_parameter", trunc=12)
    R = L.ring
    phi = logarithm(L)
    for n in range(1, 12):
        want = {(n - 1,): Fraction((-1) ** (n - 1), n)}
        assert phi.coefficient((n,)) == want, n


def test_logarithm_elliptic_integral_oracle():
    # independent route: integrate S(z)^{-1/2} termwise, then compare
    L = standard_law("elliptic", trunc=10)
    R = L.ring
    d, e = R.param("d"), R.param("e")
    S = PowerSeries(R, ("z",), {(0,): R.one(), (2,): R.neg(R.add(d, d)), (4,): e}, 10)
    phi_oracle = S.sqrt().invert_unit().integrate("z")
    t = min(phi_oracle.trunc, logarithm(L).trunc)
    assert logarithm(L).truncate(t) == phi_oracle.truncate(t)


@pytest.mark.parametrize("kind", ALL_KINDS + ["p_typical"])
def test_logarithm_linearizes(kind):
    L = standard_law(kind, trunc=10)
    R = L.ring
    phi = logarithm(L)
    lhs = phi.substitute({"z": L.F})
    rhs = phi.extend(("z", "w")) + phi.rename(("w",)).extend(("z", "w"))
    t = min(lhs.trunc, rhs.trunc)
    assert lhs.truncate(t) == rhs.truncate(t)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_exponential_round_trip(kind):
    L = standard_law(kind, trunc=10)
    back = logarithm(L).substitute({"z": L.exponential()})
    assert back == PowerSeries.var(L.ring, ("z",), "z", back.trunc)


def test_exponential_is_the_laws_companion():
    L = standard_law("multiplicative", trunc=8)
    assert exponential(L) is L.exp
    assert repr(L) == "<FormalGroupLaw multiplicative over Ring(rationals) at N=8>"


def test_integer_law_has_no_logarithm():
    F = PowerSeries(ZZ, ("z", "w"), {(1, 0): 1, (0, 1): 1, (1, 1): 1}, 10)
    L = fgl_new(F)
    with pytest.raises(NeedsRationals):
        logarithm(L)
    with pytest.raises(NeedsRationals):
        exponential(L)
    # everything that does not need denominators still works
    assert fgl_inverse(L).coefficient((2,)) == 1
    assert g_factor(L).constant_term() == 1


# -- partial derivatives ---------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS + ["p_typical"])
def test_f10_at_w_zero_is_one(kind):
    L = standard_law(kind, trunc=10)
    f10 = at_zero(partial_derivative(L, 1, 0), "w")
    assert f10 == PowerSeries.one(L.ring, ("z", "w"), f10.trunc)


def test_f20_additive_vanishes():
    L = standard_law("additive", trunc=10)
    assert partial_derivative(L, 2, 0).is_zero()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_derivative_cocycle_identity(kind):
    # F^{0,1}(z,w) F^{1,0}(0,w) = F^{1,0}(z,w) F^{0,1}(z,0)
    L = standard_law(kind, trunc=10)
    lhs = partial_derivative(L, 0, 1) * at_zero(partial_derivative(L, 1, 0), "z")
    rhs = partial_derivative(L, 1, 0) * at_zero(partial_derivative(L, 0, 1), "w")
    t = min(lhs.trunc, rhs.trunc)
    assert lhs.truncate(t) == rhs.truncate(t)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mixed_partials_swap(kind):
    L = standard_law(kind, trunc=10)
    for m in range(0, 4):
        for n in range(0, 4 - m):
            a = partial_derivative(L, m, n)
            b = swap_zw(partial_derivative(L, n, m))
            assert a == b, (m, n)


# -- G factor --------------------------------------------------------------


def test_g_factor_additive_is_one():
    L = standard_law("additive", trunc=10)
    assert g_factor(L) == PowerSeries.one(QQ, ("z", "w"), g_factor(L).trunc)


def test_g_factor_multiplicative_diagonal():
    # G(z,z) = phi'(z) = 1 - z + z^2 - ...
    L = standard_law("multiplicative", trunc=12)
    diag = g_factor(L).as_laurent().diagonal_eval()
    for n in range(diag.trunc):
        assert diag.coefficient((n,)) == Fraction((-1) ** n), n


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_g_factor_diagonal_is_log_derivative(kind):
    L = standard_law(kind, trunc=10)
    diag = g_factor(L).as_laurent().diagonal_eval()
    dphi = logarithm(L).derivative("z")
    for n in range(min(diag.trunc, dphi.trunc)):
        assert diag.coefficient((n,)) == dphi.coefficient((n,)), (kind, n)


@pytest.mark.parametrize("kind", ["multiplicative", "one_parameter"])
def test_g_factor_against_division_oracle(kind):
    # independent route: multiply F(z, iota w) by the |w| > |z| expansion of
    # (z - w)^{-1} and read off the nonnegative part
    L = standard_law(kind, trunc=12)
    R = L.ring
    G = g_factor(L)
    a = swap_variables(L.f_z_iota_w())
    inv = LaurentElement(R, a.vars,
                         {(0, 1): R.one(), (1, 0): R.neg(R.one())}, 12).int_power(-1)
    prod = a * inv
    for (i, j), c in G.coeffs.items():
        if prod.reliable_at((j, i)):
            assert prod.coefficient((j, i)) == c, (i, j)
    for (j, i), c in prod.coeffs.items():
        if i >= 0 and j >= 0 and i + j < G.trunc:
            assert G.coefficient((i, j)) == c, (i, j)


# -- specializations -------------------------------------------------------


def test_one_parameter_specializes_to_additive_and_multiplicative():
    L = standard_law("one_parameter", trunc=10)
    add = standard_law("additive", trunc=10)
    mult = standard_law("multiplicative", trunc=10)
    assert specialize(L.F, {"s": 0}) == add.F
    assert specialize(L.F, {"s": 1}) == mult.F


@pytest.mark.parametrize("delta", [Fraction(2), Fraction(-3), Fraction(1, 2)])
def test_elliptic_degenerates_to_rescaled_multiplicative(delta):
    # at e = d^2 the law collapses to (z+w)/(1 + d z w)
    L = standard_law("elliptic", trunc=10)
    got = specialize(L.F, {"d": delta, "e": delta ** 2})
    num = qq_series({(1, 0): 1, (0, 1): 1}, trunc=10)
    den = qq_series({(0, 0): 1, (1, 1): delta}, trunc=10)
    want = (num * den.invert_unit()).truncate(got.trunc)
    assert got == want


# -- the power table --------------------------------------------------------


def linear_law(R, c, trunc=10):
    """F = z + w + c*zw over R, built here rather than by standard_law."""
    F = PowerSeries(R, ("z", "w"), {(1, 0): R.one(), (0, 1): R.one(), (1, 1): c}, trunc)
    return FormalGroupLaw(F, name=f"z+w+({R.to_text(c)})zw")


ZS = Ring.parampoly(ZZ, ["s"])
# builders of the laws of the table test: the vertex suite's law, an
# integral law, and laws over ZZ, Z/4 and ZZ[s], whose coefficient rings no
# built-in law has
REFERENCE_BUILDERS = {
    **{k: (lambda k=k, t=t: standard_law(k, trunc=t)) for k, t in
       [("additive", 12), ("multiplicative", 12), ("one_parameter", 10), ("elliptic", 10)]},
    "multiplicative@18": lambda: standard_law("multiplicative", trunc=18),
    "p_typical": lambda: standard_law("p_typical", trunc=12, p=2, h=1),
    "ZZ": lambda: linear_law(ZZ, 3),
    "Z/4": lambda: linear_law(Ring.integers_mod(4), 3),
    "ZZ[s]": lambda: linear_law(ZS, ZS.param("s")),
}


@cache
def reference_law(kind):
    """The shared law of ``kind``, whose power table the tests fill in.
    Built on first use, not at import, so that a fault in law construction
    fails the tests that read the law instead of the module's collection."""
    return REFERENCE_BUILDERS[kind]()


@pytest.mark.parametrize("kw", [{}, {"trunc": 4}, {"floors": (-3, -3)}],
                         ids=["full", "cut", "floored"])
def test_untwisted_w_dominant_power_is_refused(kw):
    # F(z,w)^n has no w-dominant entry of its own: the request is refused
    # and names the z-dominant entry renamed, which is that expansion
    for kind in REFERENCE_BUILDERS:
        for n in (-2, 0, 1, 3):
            with pytest.raises(ValueError, match="rename"):
                reference_law(kind).power(n, dominant=1, **kw)


def _exchanged(f):
    return None if f is None else f[::-1]


def twisted_by_int_power(base, n, dominant, floors=None, trunc=None):
    """F(z, iota w)^n as ``law.power(n, twisted=True, ...)`` specifies it,
    computed by int_power on base = F(z, iota w) itself: the base cut to
    max(2, trunc - n + 1) under a cut, floors (-N, -N) for a cut n < 0."""
    N = base.trunc
    if n in (0, 1) or trunc is None or trunc >= N - 1 + n:
        trunc = None
    if trunc is not None:
        base = base.truncate(max(2, trunc - n + 1))
        if n < 0 and floors is None:
            floors = (-N, -N)
    if dominant:
        g = swap_variables(swap_variables(base).int_power(
            n, floors=None if floors is None else floors[::-1]))
    else:
        g = base.int_power(n, floors=floors)
    return g.truncate(trunc) if trunc is not None and g.trunc > trunc else g


@pytest.mark.parametrize("kind", list(REFERENCE_BUILDERS))
@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("dominant", [0, 1])
def test_power_table_matches_int_power(kind, twisted, dominant):
    law = reference_law(kind)
    t = law.trunc
    # the reference: the binomial loop on a base built afresh, outside the
    # table
    fresh = REFERENCE_BUILDERS[kind]()
    base = fresh.f_z_iota_w() if twisted else fresh.as_laurent()
    # one deep floor, below the default -trunc cut, on the dominant variable
    deep = [None, None]
    deep[dominant] = -2 * t
    for floors in (None, (-3 * t, -3 * t), tuple(deep)):
        for n in range(-6, 11):
            if dominant and not twisted:
                # F is symmetric: the w-dominant F(z,w)^n is the z-dominant
                # entry with z and w exchanged, which power(n).rename(("w",
                # "z")) reads
                got = swap_variables(law.power(n, floors=_exchanged(floors)))
            else:
                got = law.power(n, twisted=twisted, dominant=dominant, floors=floors)
            if dominant:
                want = swap_variables(binomial_power(
                    swap_variables(base), n, floors=_exchanged(floors)))
            else:
                want = binomial_power(base, n, floors=floors)
            assert (got.coeffs, got.trunc, got.floors) == \
                (want.coeffs, want.trunc, want.floors), (n, floors)
    if not twisted:
        return
    # G^n * i(z - w)^n against int_power on F(z, iota w): cut at every trunc
    # from -2 to the natural truncation + 1, and at each floor, on the fresh
    # law in ascending cut order, so that each cut is built, not served
    kw = {"twisted": True, "dominant": dominant}
    cases = [(n, None, cut) for n in (-4, -2, -1, 2, 3, 5) for cut in range(-2, t + n + 1)]
    cases += [(n, floors, None) for n in range(-6, 11)
              for floors in (None, (-3 * t, -3 * t), tuple(deep))]
    for n, floors, cut in cases:
        got = fresh.power(n, floors=floors, trunc=cut, **kw)
        want = twisted_by_int_power(base, n, dominant, floors=floors, trunc=cut)
        assert (got.coeffs, got.trunc, got.floors) == \
            (want.coeffs, want.trunc, want.floors), (n, floors, cut)
        # the request replaced the entry of its key
        assert fresh._powers[True, dominant, n, floors] is got
    # each key holds one entry, whatever the cut
    assert {k for k in fresh._powers if k[0] is True} == \
        {(True, dominant, n, floors) for n, floors, _ in cases}


CAPPED_LAWS = [("additive", {}), ("multiplicative", {}), ("one_parameter", {}),
               ("elliptic", {}), ("p_typical", {"p": 2, "h": 1}),
               ("p_typical", {"p": 3, "h": 1})]


@pytest.mark.parametrize("kind,params", CAPPED_LAWS,
                         ids=[k + "".join(f"-{v}" for v in p.values())
                              for k, p in CAPPED_LAWS])
@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("dominant", [0, 1])
def test_capped_power_is_the_truncated_power(kind, params, twisted, dominant,
                                             monkeypatch):
    # law.power(n, trunc=t) is the full power cut at total degree t, in
    # cells, truncation and floors, for every t up to the natural
    # truncation + 1, whether it is built (t ascending: each request is
    # deeper than the entry and replaces it) or served from a deeper entry
    # (t descending after the full power); n = 0 and n = 1 are never cut
    law = standard_law(kind, trunc=10, **params)
    if dominant and not twisted:
        return _assert_capped_w_dominant_power_is_exchanged(law)
    kw = {"twisted": twisted, "dominant": dominant}
    builds = []
    int_power = LaurentElement.int_power
    line_power = fgl_module.times_line_power

    def counting(real):
        def counted(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(LaurentElement, "int_power", counting(int_power))
    monkeypatch.setattr(fgl_module, "times_line_power", counting(line_power))
    for n in range(-5, 11):
        natural = law.trunc - 1 + n
        cuts = range(-2, natural + 2)
        built = []
        for t in cuts:
            del builds[:]
            built.append((law.power(n, trunc=t, **kw), bool(builds)))
        del builds[:]
        full = law.power(n, **kw)
        served = [law.power(n, trunc=t, **kw) for t in reversed(cuts)][::-1]
        assert builds == []
        for t, (got, ran), again in zip(cuts, built, served):
            if n in (0, 1):
                assert got is full and again is full
                continue
            # each cut up to the natural truncation ran the construction
            assert ran == (t <= natural), (n, t)
            want = full.truncate(t)
            for g in (got, again):
                assert (g.coeffs, g.trunc, g.floors) == \
                    (want.coeffs, want.trunc, want.floors), (n, t)
                assert g.trunc == min(t, natural)


def _assert_capped_w_dominant_power_is_exchanged(law):
    # F is symmetric: the w-dominant F(z,w)^n cut at t is the capped
    # z-dominant entry with z and w exchanged, against the binomial loop on
    # the exchanged base cut at t
    base = swap_variables(law.as_laurent())
    for n in range(-5, 11):
        full = swap_variables(binomial_power(base, n))
        for t in range(-2, law.trunc + n + 1):
            got = swap_variables(law.power(n, trunc=t))
            want = full if n in (0, 1) else full.truncate(t)
            assert (got.coeffs, got.trunc, got.floors) == \
                (want.coeffs, want.trunc, want.floors), (n, t)


@pytest.mark.parametrize("kind", ["additive", "multiplicative", "elliptic"])
def test_classical_line_power_is_int_power(kind):
    # (z - w)^M as the classical factors read it, the binomial line with
    # G = 1, is int_power on z - w itself in cells, truncation and floors
    law = standard_law(kind, trunc=12)
    R = law.ring
    zmw = LaurentElement(R, ("z", "w"), {(1, 0): R.one(), (0, 1): R.neg(R.one())}, 12)
    one = LaurentElement.one(R, ("z", "w"), 11)
    for M in range(1, 9):
        got = fgl_module.times_line_power(one, M, 0, (None, None))
        want = zmw.int_power(M)
        assert (got.coeffs, got.trunc, got.floors) == \
            (want.coeffs, want.trunc, want.floors), M


def test_power_table_shares_entries_across_names(monkeypatch):
    law = standard_law("multiplicative", trunc=10)
    calls = []
    real = LaurentElement.int_power

    def counting(self, n, floors=None):
        calls.append(n)
        return real(self, n, floors=floors)

    monkeypatch.setattr(LaurentElement, "int_power", counting)
    a = law.power(-2, twisted=True).rename(("z1", "z2"))
    b = law.power(-2, twisted=True).rename(("z1", "z0"))
    assert calls == [-2]
    assert (a.vars, b.vars) == (("z1", "z2"), ("z1", "z0"))
    assert a.coeffs is b.coeffs
    # F is symmetric: the w-dominant (w, z) power is the z-dominant entry
    wz = law.power(3).rename(("w", "z"))
    zw = law.power(3)
    assert calls == [-2, 3]
    assert wz.coeffs is zw.coeffs
    assert wz.coeffs == real(swap_variables(law.as_laurent()), 3).coeffs


@given(kind=st.sampled_from(list(REFERENCE_BUILDERS)), n=st.integers(-6, -1),
       cap=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_power_slices_match_the_full_power(kind, n, cap):
    # the capped slices are the w-slices of the full power, cut three
    # truncation orders deep, in cells and truncation; they carry no floor,
    # and no cell of the full power's slice j lies below z^(n - j), the
    # support the floor-free slices claim; a grade above the cap is a
    # WindowMiss, never an empty slice
    law = reference_law(kind)
    slices = law.power_slices(n, cap)
    full = REFERENCE_BUILDERS[kind]().power(n, floors=(-3 * law.trunc, None))
    assert len(slices) == cap + 1
    for j, sj in enumerate(slices):
        want = slice_w(full, j)
        assert (sj.vars, sj.coeffs, sj.trunc, sj.floors) == \
            (want.vars, want.coeffs, want.trunc, (None,)), j
        assert all(i >= n - j for (i,) in want.coeffs), j
    # a repeated or shallower request runs no recurrence and is the
    # deeper entry's prefix
    graded = []
    real = series_module._graded_power
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_graded_power",
                   lambda *a, **kw: graded.append(1) or real(*a, **kw))
        for k in range(cap, -1, -1):
            again = law.power_slices(n, k)
            assert len(again) == k + 1
            assert all(a is b for a, b in zip(again, slices))
    assert graded == []
    for j in (-1, cap + 1):
        with pytest.raises(WindowMiss):
            slices[j]


# a request is a key of the table and a depth: the trunc of a power or of
# a power of G (None for the full one), the cap of slices
POWER_KEYS = st.tuples(st.just("power"), st.integers(-4, 6), st.booleans(),
                       st.integers(0, 1), st.sampled_from([None, -2]))
G_KEYS = st.tuples(st.just("G"), st.integers(-3, 3))
SLICE_KEYS = st.tuples(st.just("slices"), st.integers(-4, -1))


@st.composite
def table_requests(draw):
    """Up to eight requests on at most three keys, so that one key is asked
    for at several depths, shallow and deep, in any order."""
    keys = draw(st.lists(st.one_of(POWER_KEYS, G_KEYS, SLICE_KEYS), min_size=1, max_size=3))
    reqs = []
    for _ in range(draw(st.integers(1, 8))):
        key = draw(st.sampled_from(keys))
        if key[0] == "slices":
            depth = draw(st.integers(0, 6))
        else:
            depth = draw(st.one_of(st.none(), st.integers(-2 if key[0] == "power" else 1, 16)))
        reqs.append(key + (depth,))
    return reqs


def table_request(law, req):
    """Serve one request of the power table: a power, a power of G or power
    slices; floors are given in multiples of the law's truncation."""
    N = law.trunc
    if req[0] == "power":
        _, n, twisted, dominant, deep, trunc = req
        floors = None if deep is None else (deep * N, deep * N)
        return law.power(n, twisted=twisted, dominant=dominant if twisted else 0,
                         floors=floors, trunc=trunc)
    if req[0] == "G":
        return law.g_power(req[1], req[2])
    _, n, cap = req
    return law.power_slices(n, cap)


@given(kind=st.sampled_from(["multiplicative", "elliptic", "ZZ"]), reqs=table_requests())
@settings(max_examples=60, deadline=None)
def test_power_table_serves_each_request_as_a_fresh_law(kind, reqs):
    # whatever the table holds, shallower or deeper entries of the same
    # key, a request reads exactly what it reads on a law with an empty
    # table: the same cells, truncation and floors, and as many slices
    law = copy.copy(reference_law(kind))
    law._powers = {}
    for req in reqs:
        fresh = copy.copy(law)
        fresh._powers = {}
        got, want = table_request(law, req), table_request(fresh, req)
        if req[0] == "slices":
            assert len(got) == len(want), req
        else:
            got, want = [got], [want]
        for g, w in zip(got, want):
            assert (g.coeffs, g.trunc, g.floors) == (w.coeffs, w.trunc, w.floors), req


@given(kind=st.sampled_from(["multiplicative", "one_parameter"]),
       m=st.integers(-4, 4), n=st.integers(-4, 4),
       twisted=st.booleans(), dominant=st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_power_table_exponent_law(kind, m, n, twisted, dominant):
    # F^m * F^n = F^(m+n) on every cell both sides certify
    law = reference_law(kind)
    R = law.ring
    kw = {"twisted": twisted, "dominant": dominant if twisted else 0}
    lhs = law.power(m, **kw) * law.power(n, **kw)
    rhs = law.power(m + n, **kw)
    t = law.trunc
    cells = [(i, j) for i in range(-2 * t, 2 * t) for j in range(-2 * t, 2 * t)
             if lhs.reliable_at((i, j)) and rhs.reliable_at((i, j))]
    assert cells
    for e in cells:
        assert R.eq(lhs.coefficient(e), rhs.coefficient(e)), (m, n, e)
