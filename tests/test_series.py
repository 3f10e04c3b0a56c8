import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import inf
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fglcalc import series
from fglcalc.fgl import standard_law
from fglcalc.ring import NOT_INVERTIBLE, Ring
from fglcalc.series import (
    BilateralWindow,
    DiagonalDivergence,
    IllegalSubstitution,
    LaurentElement,
    NonConvergentProduct,
    NotInvertibleError,
    OrderingMismatch,
    PowerSeries,
    WindowMiss,
    comb_any,
)
from fglcalc.vertex import HeisenbergAlgebra, ShiftQuotient, StateSpace

from binomial_oracle import binomial_power, swap_variables

QQ = Ring.rationals()


def ps(coeffs, vars=("z",), trunc=12, ring=QQ):
    data = {e: ring.from_fraction(Fraction(c)) if ring.kind == "rationals" else ring.from_int(c)
            for e, c in coeffs.items()}
    return PowerSeries(ring, vars, data, trunc)


def lz(coeffs, vars=("z",), trunc=12, ring=QQ, floors=None):
    data = {e: ring.from_fraction(Fraction(c)) if ring.kind == "rationals" else ring.from_int(c)
            for e, c in coeffs.items()}
    return LaurentElement(ring, vars, data, trunc, floors=floors)


def test_mul_power_series():
    f = ps({(0, 0): 1, (1, 0): 1}, vars=("z", "w"), trunc=8)
    g = ps({(0, 0): 1, (1, 0): -1}, vars=("z", "w"), trunc=8)
    assert (f * g) == ps({(0, 0): 1, (2, 0): -1}, vars=("z", "w"), trunc=8)


def test_int_power_geometric_oracle():
    # oracle: (z+w)^{-1} = z^{-1} sum_k (-w/z)^k
    f = lz({(1, 0): 1, (0, 1): 1}, vars=("z", "w"))
    g = f.int_power(-1)
    for k in range(6):
        assert g.coefficient((-1 - k, k)) == Fraction((-1) ** k)
    assert g.coefficient((0, 0)) == 0


def test_int_power_ordering_swapped():
    f = lz({(1, 0): 1, (0, 1): 1}, vars=("w", "z"))
    g = f.int_power(-1)
    # now w dominates: w^{-1} - w^{-2} z + ...
    for k in range(6):
        assert g.coefficient((-1 - k, k)) == Fraction((-1) ** k)


def test_int_power_identity():
    f = lz({(-2,): 3, (1,): 5})
    assert f.int_power(1) == f


def test_int_power_group_law():
    f = lz({(-1,): 1, (0,): 2, (2,): -1}, trunc=10)
    for n in range(-3, 4):
        for m in range(-3, 4):
            a = f.int_power(n) * f.int_power(m)
            b = f.int_power(n + m)
            for e, c in b.coeffs.items():
                if a.reliable_at(e):
                    assert a.coefficient(e) == c, (n, m, e)


def test_int_power_needs_unit_leading():
    ZZ = Ring.integers()
    f = LaurentElement(ZZ, ("z",), {(1,): 2}, 10)
    with pytest.raises(NotInvertibleError):
        f.int_power(-1)


def test_substitute_square_of_sum():
    f = ps({(2,): 1}, vars=("v",), trunc=10)
    F = lz({(1, 0): 1, (0, 1): 1}, vars=("z", "w"), trunc=10)
    g = f.as_laurent().substitute({"v": F})
    assert g.coefficient((2, 0)) == 1
    assert g.coefficient((1, 1)) == 2
    assert g.coefficient((0, 2)) == 1


def test_substitute_negative_power_matches_int_power():
    # f(z) = z^{-1}, z -> z + w + zw: compare against direct int_power
    f = lz({(-1,): 1}, vars=("z",), trunc=10)
    Fm = lz({(1, 0): 1, (0, 1): 1, (1, 1): 1}, vars=("z", "w"), trunc=10)
    got = f.substitute({"z": Fm})
    want = Fm.int_power(-1)
    for e, c in want.coeffs.items():
        if got.reliable_at(e):
            assert got.coefficient(e) == c, e


def test_substitute_functoriality():
    # v -> f(y), then y -> g(u) equals v -> f(g(u))
    f = lz({(1,): 2, (2,): 1, (3,): -1}, vars=("y",), trunc=9)
    g = lz({(1,): 1, (2,): 3}, vars=("u",), trunc=9)
    h = lz({(-2,): 1, (1,): 1}, vars=("v",), trunc=9)
    staged = h.substitute({"v": f}).substitute({"y": g})
    composite = h.substitute({"v": f.substitute({"y": g})})
    for e, c in composite.coeffs.items():
        if staged.reliable_at(e):
            assert staged.coefficient(e) == c, e


def test_substitute_rejects_constant_term():
    f = ps({(1,): 1}, vars=("v",), trunc=8)
    bad = lz({(0,): 1, (1,): 1}, vars=("z",), trunc=8)
    with pytest.raises(IllegalSubstitution):
        f.as_laurent().substitute({"v": bad})


def test_expand_difference_is_classical_delta():
    zmw = lz({(1, 0): 1, (0, 1): -1}, vars=("z", "w"), trunc=14)
    a = zmw.int_power(-1)
    b = swap_variables(swap_variables(zmw).int_power(-1))
    box = [(-6, 6), (-6, 6)]
    wa = BilateralWindow.from_laurent(a, box)
    wb = BilateralWindow.from_laurent(b, box)
    delta = wa - wb
    for n in range(-5, 6):
        e = (-n - 1, n)
        if delta._region()._contains(e):
            assert delta.coeffs.get(e, 0) == 1, e


def test_delta_killed_by_z_minus_w():
    zmw = lz({(1, 0): 1, (0, 1): -1}, vars=("z", "w"), trunc=16)
    a = zmw.int_power(-1)
    b = swap_variables(swap_variables(zmw).int_power(-1))
    box = [(-7, 7), (-7, 7)]
    delta = BilateralWindow.from_laurent(a, box) - BilateralWindow.from_laurent(b, box)
    prod = delta.mul_laurent(LaurentElement(QQ, zmw.vars, zmw.coeffs, inf))
    assert prod.is_zero_on_window()
    assert not prod.is_empty_window()


def test_two_bilateral_factors_rejected():
    w = BilateralWindow(QQ, ("z",), {(0,): Fraction(1)}, [(-3, 3)])
    with pytest.raises(NonConvergentProduct):
        w.mul_laurent(w)


def test_reprs_show_cells_truncation_and_region():
    f = lz({(-1, 2): 3, (0, 0): 1, (2, 0): Fraction(1, 2)}, vars=("z", "w"), trunc=6,
           floors=(-2, None))
    assert repr(f) == "<(1)*1 + (3)*z^-1*w^2 + (1/2)*z^2 | trunc 6, floors (-2, None)>"
    g = lz({(k,): 1 for k in range(14)}, trunc=20)
    assert repr(g).endswith("(1)*z^11 + [2 more] | trunc 20, floors (None,)>")
    win = BilateralWindow(QQ, ("z", "w"), {(0, 0): 1}, [(-1, 1), (-2, 2)], max_total=3)
    assert repr(win) == "<window ('z', 'w') reliable ((-1, 1), (-2, 2)) max_total 3 (1 terms)>"


def test_diagonal_eval():
    f = lz({(1, 1): 1}, vars=("z", "w"))
    assert f.diagonal_eval().coefficient((2,)) == 1


def test_diagonal_eval_divergence():
    f = lz({(1, 0): 1, (0, 1): 1}, vars=("z", "w"), trunc=12).int_power(-1)
    with pytest.raises(DiagonalDivergence):
        f.diagonal_eval()


def test_residue_coeff():
    assert lz({(-1,): 1}).residue_coeff("z").scalar() == 1
    assert lz({(2,): 3, (-2,): 5}).residue_coeff("z").scalar() == 0


def test_residue_coeff_reads_only_a_certified_cell():
    # below truncation 0 the z^(-1) cell is unknown, not zero
    with pytest.raises(WindowMiss):
        lz({(-3,): 1}, trunc=-1).residue_coeff("z")
    assert lz({(-3,): 1}, trunc=0).residue_coeff("z").scalar() == 0


def test_zero_factor_certifies_no_more_than_its_truncation():
    # an empty element at truncation -1 certifies nothing, and neither does
    # its product with p_F, whichever side it stands on
    pF = standard_law("multiplicative", trunc=12).pF.as_laurent()
    zero = LaurentElement.zero(QQ, ("z",), -1)
    for prod in (zero * pF, pF * zero):
        assert (prod.coeffs, prod.trunc) == ({}, -1)
        with pytest.raises(WindowMiss):
            prod.residue_coeff("z")


def test_derivative():
    assert lz({(3,): 1}).derivative("z") == lz({(2,): 3}, trunc=11)
    assert lz({(-1,): 1}).derivative("z") == lz({(-2,): -1}, trunc=11)


@given(data=st.data())
@settings(max_examples=40)
def test_residue_of_derivative_vanishes(data):
    exps = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=5, unique=True))
    coeffs = {(e,): data.draw(st.integers(-9, 9)) for e in exps}
    f = lz(coeffs, trunc=12)
    assert f.derivative("z").residue_coeff("z").scalar() == 0


@given(data=st.data())
@settings(max_examples=30)
def test_integration_by_parts(data):
    def rand_laurent():
        exps = data.draw(st.lists(st.integers(-4, 5), min_size=1, max_size=4, unique=True))
        return lz({(e,): data.draw(st.integers(-5, 5)) for e in exps}, trunc=14)

    f, g = rand_laurent(), rand_laurent()
    lhs = (f.derivative("z") * g).residue_coeff("z").scalar()
    rhs = (f * g.derivative("z")).residue_coeff("z").scalar()
    assert lhs == -rhs


def test_comp_inverse_log_exp_oracle():
    # f = log(1+z); oracle: multiply out f(g) = z degree by degree, so g
    # must equal e^z - 1 whose coefficients are 1/n!
    t = 10
    f = ps({(n,): Fraction((-1) ** (n + 1), n) for n in range(1, t)}, trunc=t)
    g = f.comp_inverse()
    fact = 1
    for n in range(1, t):
        fact *= n
        assert g.coefficient((n,)) == Fraction(1, fact), n
    back = f.substitute({"z": g})
    assert back == PowerSeries.var(QQ, ("z",), "z", t)


def test_comp_inverse_mod2():
    Z2 = Ring.integers_mod(2)
    f = PowerSeries(Z2, ("z",), {(1,): 1, (2,): 1}, 8)
    g = f.comp_inverse()
    # degree-by-degree oracle: f(g) = z
    assert f.substitute({"z": g}) == PowerSeries(Z2, ("z",), {(1,): 1}, 8)


def test_series_sqrt():
    one_plus_z = ps({(0,): 1, (1,): 1}, trunc=10)
    sq = (one_plus_z * one_plus_z).sqrt()
    assert sq == one_plus_z.truncate(sq.trunc)


def test_series_sqrt_elliptic_discriminant():
    R = Ring.parampoly(QQ, ["d", "e"])
    d, e = R.param("d"), R.param("e")
    S = PowerSeries(R, ("z",), {(0,): R.one(), (2,): R.neg(R.add(d, d)), (4,): e}, 10)
    g = S.sqrt()
    assert (g * g).truncate(8) == S.truncate(8)
    assert g.coefficient((2,)) == R.neg(d)
    # z^4 coefficient: (e - d^2)/2
    want = R.divide_by_int(R.sub(e, R.mul(d, d)), 2)
    assert g.coefficient((4,)) == want


def test_truncation_soundness():
    f = lz({(-1,): 1, (1,): 2, (3,): -1}, trunc=12)
    hi = f.int_power(-2)
    lo = f.truncate(8).int_power(-2)
    for e, c in lo.coeffs.items():
        if lo.reliable_at(e):
            assert hi.coefficient(e) == c


def read_outcome(read, e):
    """A cell read's value (0 for a cell not stored) or its WindowMiss text."""
    try:
        return read(e) or 0
    except WindowMiss as err:
        return str(err)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_region_reader_reads_as_certified(data):
    # a reader checked once on a region, by its least cell and its greatest
    # total, reads every cell of the region as ``certified`` does and raises
    # WindowMiss exactly where ``certified`` raises
    cells = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    coeffs = data.draw(st.dictionaries(cells, st.integers(-3, 3), max_size=12))
    floors = data.draw(st.tuples(*[st.none() | st.integers(-5, 3)] * 2))
    f = LaurentElement(QQ, ("z", "w"), {e: Fraction(c) for e, c in coeffs.items()},
                       data.draw(st.integers(-3, 9)), floors)
    lows = data.draw(cells)
    top = data.draw(st.integers(sum(lows), sum(lows) + 8))
    read = f._reader(lows, top)
    for i in range(lows[0], top - lows[1] + 1):
        for j in range(lows[1], top - i + 1):
            assert read_outcome(read, (i, j)) == read_outcome(f.certified, (i, j))


def test_comb_any():
    assert comb_any(-1, 0) == 1
    assert comb_any(-1, 3) == -1
    assert comb_any(-2, 2) == 3
    assert comb_any(4, 2) == 6
    assert comb_any(3, 5) == 0


# -- the sparse kernel against a naive double loop ---------------------------
#
# Each operand pair is (left, right) coefficient strategies; over the state
# module the left factor carries states and the right one scalars, the only
# products that module defines.

ZZ = Ring.integers()
Z6 = Ring.integers_mod(6)
QS = Ring.parampoly(QQ, ["s"])
STATES = StateSpace(QQ)

# nonzero values, so that zero sums and zero products come from the
# arithmetic (cancellation, zero divisors in Z/6), not from the operands
_small_q = st.fractions(min_value=-2, max_value=2, max_denominator=2).filter(bool)
_poly_s = st.dictionaries(st.tuples(st.integers(0, 2)), _small_q, min_size=1,
                          max_size=3)
_state = st.dictionaries(st.sampled_from([(), (-1,), (-2,), (-1, -1)]), _small_q,
                         min_size=1, max_size=3)

KERNEL_RINGS = {
    "QQ": (QQ, _small_q, _small_q),
    "ZZ": (ZZ, st.integers(-2, 2).filter(bool), st.integers(-2, 2).filter(bool)),
    "Z6": (Z6, st.integers(1, 5), st.integers(1, 5)),
    "QQ[s]": (QS, _poly_s, _poly_s),
    "states": (STATES, _state, _small_q),
}


def _terms(data, values, lo, hi, size=8):
    exps = st.tuples(st.integers(lo, hi), st.integers(lo, hi))
    return data.draw(st.dictionaries(exps, values, max_size=size))


def _naive_product(R, a, b, cut=None):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if cut is not None and sum(e1) + sum(e2) >= cut:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            s = R.add(out.get(e, R.zero()), R.mul(c1, c2))
            if s == R.zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _val(f):
    return min((sum(e) for e in f.coeffs), default=f.trunc)


def _inside(e, reliable, max_total):
    return (max_total is None or sum(e) <= max_total) and all(
        lo <= x <= hi for x, (lo, hi) in zip(e, reliable))


def _min_or(a, b):
    return b if a is None else a if b is None else min(a, b)


def _window(data, R, values, supported=False):
    reliable = []
    for _ in range(2):
        lo = data.draw(st.integers(-2, 0))
        reliable.append((lo, lo + data.draw(st.integers(1, 3))))
    mt = data.draw(st.one_of(st.none(), st.integers(-1, 4)))
    return BilateralWindow(R, ("z", "w"), _terms(data, values, -2, 2), reliable,
                           max_total=mt, supported=supported)


@given(data=st.data(), ring=st.sampled_from(sorted(KERNEL_RINGS)))
@settings(max_examples=100, deadline=None)
def test_kernel_power_series_mul(data, ring):
    R, left, right = KERNEL_RINGS[ring]
    f = PowerSeries(R, ("z", "w"), _terms(data, left, 0, 2),
                    data.draw(st.integers(2, 6)))
    g = PowerSeries(R, ("z", "w"), _terms(data, right, 0, 2),
                    data.draw(st.integers(2, 6)))
    h = f * g
    t = min(f.trunc + _val(g), g.trunc + _val(f))
    assert h.trunc == t
    assert h.coeffs == _naive_product(R, f.coeffs, g.coeffs, cut=t)


SCALAR_RINGS = {k: v for k, v in KERNEL_RINGS.items() if k != "states"}


@given(data=st.data(), ring=st.sampled_from(sorted(SCALAR_RINGS)))
@settings(max_examples=100, deadline=None)
def test_power_series_ops_match_laurent(data, ring):
    # a PowerSeries is the nonnegative, floor-free LaurentElement: every
    # operation agrees with the same one on its LaurentElement view, and
    # keeps the PowerSeries type
    R, values, _ = SCALAR_RINGS[ring]
    f = PowerSeries(R, ("z", "w"), _terms(data, values, 0, 3), data.draw(st.integers(1, 6)))
    g = PowerSeries(R, ("z", "w"), _terms(data, values, 0, 3), data.draw(st.integers(1, 6)))
    c = data.draw(values)
    n = data.draw(st.integers(0, 7))
    fl, gl = f.as_laurent(), g.as_laurent()
    assert type(fl) is LaurentElement and fl == f and fl.coeffs is f.coeffs
    pairs = [(f + g, fl + gl), (f - g, fl - gl), (-f, -fl), (f.scale(c), fl.scale(c)),
             (f.truncate(n), fl.truncate(n)), (f.derivative("w"), fl.derivative("w")),
             (f.extend(("v", "z", "w")), fl.extend(("v", "z", "w"))),
             (f.rename(("x", "y")), fl.rename(("x", "y"))), (f * g, fl * gl)]
    for got, want in pairs:
        assert type(got) is PowerSeries
        assert (got.vars, got.coeffs, got.trunc, got.floors) == \
            (want.vars, want.coeffs, want.trunc, want.floors)


def test_power_series_refuses_floors_and_negative_exponents():
    with pytest.raises(ValueError, match="floors"):
        PowerSeries(QQ, ("z", "w"), {(1, 0): 1}, 5, floors=(0, None))
    with pytest.raises(ValueError, match="negative exponent"):
        PowerSeries(QQ, ("z", "w"), {(1, 0): 1, (-1, 2): 1}, 5)
    with pytest.raises(ValueError, match="negative exponent"):
        PowerSeries.var(QQ, ("z",), "z", 5, power=-1)
    f = ps({(1, 0): 1, (0, 1): 1}, vars=("z", "w"), trunc=6)
    # an operation whose result is no power series raises, never drops
    # the floors or the negative exponents
    with pytest.raises(ValueError, match="floors"):
        f + lz({(0, 0): 1}, vars=("z", "w"), trunc=6, floors=(1, None))
    with pytest.raises(ValueError, match="negative exponent"):
        f + lz({(-1, 2): 1}, vars=("z", "w"), trunc=6)
    # a product with any other element is the LaurentElement product
    g = lz({(-1, 2): 1, (3, 0): 2}, vars=("z", "w"), trunc=6, floors=(0, None))
    got, want = f * g, f.as_laurent() * g
    assert type(got) is LaurentElement
    assert (got.coeffs, got.trunc, got.floors) == (want.coeffs, want.trunc, want.floors)


@given(data=st.data(), ring=st.sampled_from(sorted(KERNEL_RINGS)))
@settings(max_examples=100, deadline=None)
def test_kernel_laurent_mul_with_floors(data, ring):
    R, left, right = KERNEL_RINGS[ring]
    floors = st.tuples(*[st.one_of(st.none(), st.integers(-2, 0))] * 2)
    f = LaurentElement(R, ("z", "w"), _terms(data, left, -2, 2),
                       data.draw(st.integers(1, 5)), floors=data.draw(floors))
    g = LaurentElement(R, ("z", "w"), _terms(data, right, -2, 2),
                       data.draw(st.integers(1, 5)), floors=data.draw(floors))
    h = f * g
    # a factor with no stored terms follows the same rule, its valuation
    # being its truncation and its support max 0
    t = min(f.trunc + _val(g), g.trunc + _val(f))
    cut = [{i for i, fl in enumerate(x.floors) if fl is not None} for x in (f, g)]
    if any(i != j for i in cut[0] for j in cut[1]):
        # unknown cells of both factors, cut in different variables, meet
        # at total degree _val(f) + _val(g) and above
        t = min(t, _val(f) + _val(g))
    want_floors = []
    for i in range(2):
        cands = [fl + max((e[i] for e in other.coeffs), default=0)
                 for fl, other in ((f.floors[i], g), (g.floors[i], f)) if fl is not None]
        want_floors.append(max(cands) if cands else None)
    want = {e: c for e, c in _naive_product(R, f.coeffs, g.coeffs, cut=t).items()
            if all(fl is None or x >= fl for x, fl in zip(e, want_floors))}
    assert (h.trunc, h.floors) == (t, tuple(want_floors))
    assert h.coeffs == want


def _residue_outcome(read):
    try:
        r = read()
    except WindowMiss as exc:
        return "WindowMiss", str(exc)
    return r.vars, r.coeffs, r.trunc, r.floors


@given(data=st.data(), ring=st.sampled_from(sorted(KERNEL_RINGS)),
       vars=st.sampled_from([("z",), ("z", "w")]))
@settings(max_examples=200, deadline=None)
def test_residue_coeff_with_factor_is_residue_of_product(data, ring, vars):
    # the contraction never forms f * p, yet it must certify what the
    # product's residue certifies: cells, truncation, floors and misses
    R, left, right = KERNEL_RINGS[ring]
    name = data.draw(st.sampled_from(vars))
    floor = st.one_of(st.none(), st.integers(-4, 1))
    exps = st.tuples(*[st.integers(-4, 3)] * len(vars))
    f = LaurentElement(R, vars, data.draw(st.dictionaries(exps, left, max_size=8)),
                       data.draw(st.integers(-3, 5)),
                       floors=data.draw(st.tuples(*[floor] * len(vars))))
    # zero factors, and factors of positive valuation when lo > 0
    lo = data.draw(st.integers(-2, 2))
    p = LaurentElement(R, (name,), data.draw(st.dictionaries(
                           st.tuples(st.integers(lo, lo + 4)), right, max_size=5)),
                       data.draw(st.integers(-1, 7)), floors=(data.draw(floor),))
    got = _residue_outcome(lambda: f.residue_coeff(name, p))
    want = _residue_outcome(lambda: (f * p.extend(vars)).residue_coeff(name))
    assert got == want


def _scalars(R):
    return R.base if isinstance(R, StateSpace) else R


@given(data=st.data(), ring=st.sampled_from(sorted(KERNEL_RINGS)),
       supported=st.booleans())
@settings(max_examples=100, deadline=None)
def test_kernel_window_mul_laurent(data, ring, supported):
    # the one product of a window and a series, by its rule: the box, the
    # certified total degree and the stated support of the product
    R, left, right = KERNEL_RINGS[ring]
    win = _window(data, R, left, supported)
    g = LaurentElement(_scalars(R), ("z", "w"), _terms(data, right, -2, 2),
                       data.draw(st.one_of(st.integers(1, 6), st.just(inf))))
    h = win.mul_laurent(g)
    rel = win.reliable
    if g.coeffs:
        rel = tuple((lo if supported else lo + max(e[i] for e in g.coeffs),
                     hi + min(e[i] for e in g.coeffs))
                    for i, (lo, hi) in enumerate(rel))
    mt = None if win.max_total is None else win.max_total + _val(g)
    least = min((sum(e) for e in win.coeffs), default=None)
    if supported:
        lo_tot = sum(lo for lo, _ in win.reliable)
        least = _min_or(least, min(hi + 1 + lo_tot - lo for lo, hi in win.reliable))
    if least is not None and g.trunc != inf:
        mt = _min_or(mt, least + g.trunc - 1)
    want = {e: c for e, c in _naive_product(R, win.coeffs, g.coeffs).items()
            if _inside(e, rel, mt)}
    assert (h.reliable, h.max_total) == (rel, mt)
    assert h.coeffs == want
    assert h.supported == (supported and all(x >= 0 for e in g.coeffs for x in e))


def test_supported_window_times_a_negative_exponent_states_no_support():
    # a factor cell of exponent -1 moves product cells below the box lows,
    # so the product states no support; the random kernel test above finds
    # this case in most runs, not in all
    win = BilateralWindow(QQ, ("z", "w"), {}, [(0, 1), (0, 0)], supported=True)
    for e, supported in (((0, -1), False), ((0, 1), True)):
        g = LaurentElement(QQ, ("z", "w"), {e: Fraction(1)}, inf)
        assert win.mul_laurent(g).supported is supported, e


@given(data=st.data(), ring=st.sampled_from(sorted(KERNEL_RINGS)))
@settings(max_examples=100, deadline=None)
def test_kernel_mul_complete_lower(data, ring):
    # a window whose box lows bound its support, times a truncated power
    # series: the lows stay, the certified total degree is capped by the
    # least true cell plus the factor's truncation, and the product still
    # states its support
    R, left, right = KERNEL_RINGS[ring]
    win = _window(data, R, left, supported=True)
    g = LaurentElement(_scalars(R), ("z", "w"), _terms(data, right, 0, 2),
                       data.draw(st.integers(1, 6)))
    h = win.mul_laurent(g)
    rel = win.reliable
    if g.coeffs:
        rel = tuple((lo, hi + min(e[i] for e in g.coeffs))
                    for i, (lo, hi) in enumerate(rel))
    lo_tot = sum(lo for lo, _ in win.reliable)
    least = min(hi + 1 + lo_tot - lo for lo, hi in win.reliable)
    if win.coeffs:
        least = min(least, min(sum(e) for e in win.coeffs))
    ceil = None if win.max_total is None else win.max_total + _val(g)
    mt = _min_or(ceil, least + g.trunc - 1)
    want = {e: c for e, c in _naive_product(R, win.coeffs, g.coeffs).items()
            if _inside(e, rel, mt)}
    assert (h.reliable, h.max_total) == (rel, mt)
    assert h.coeffs == want
    assert h.supported


@given(data=st.data(), ring=st.sampled_from(sorted(KERNEL_RINGS)))
@settings(max_examples=200, deadline=None)
def test_stated_support_certifies_the_full_product(data, ring):
    # s has no cell below the box lows, and its window says so; g is known
    # below g.trunc, and tail stands for its unknown cells from there on.
    # Every cell the product certifies is that cell of s * (g + tail),
    # whatever s holds outside the window and g beyond its truncation
    R, left, right = KERNEL_RINGS[ring]
    lows = [data.draw(st.integers(-1, 1)) for _ in range(2)]
    reliable = [(lo, lo + data.draw(st.integers(0, 2))) for lo in lows]
    s = {(i + lows[0], j + lows[1]): c
         for (i, j), c in _terms(data, left, 0, 4, size=12).items()}
    win = BilateralWindow(R, ("z", "w"), s, reliable,
                          data.draw(st.one_of(st.none(), st.integers(-2, 5))),
                          supported=True)
    g = LaurentElement(_scalars(R), ("z", "w"), _terms(data, right, -2, 3),
                       data.draw(st.one_of(st.integers(1, 4), st.just(inf))))
    # one value on every cell of a wide band, so that the tail meets every
    # true cell of s that it can reach
    c = data.draw(right)
    tail = {e: c for e in product(range(-4, 9), repeat=2) if g.trunc <= sum(e) <= 9}
    h = win.mul_laurent(g)
    full = _naive_product(R, s, {**g.coeffs, **tail})
    for e in product(*(range(lo, hi + 1) for lo, hi in h.reliable)):
        if h._region()._contains(e):
            assert R.eq(h.coeffs.get(e, R.zero()), full.get(e, R.zero())), e


def test_window_times_empty_factor_certifies_only_below_its_truncation():
    # g stores no term below total degree 2 but may hold z^2, so 1 * g is
    # certified up to total degree 1 and no further
    win = BilateralWindow(QQ, ("z", "w"), {(0, 0): 1}, [(-3, 3), (-3, 3)])
    h = win.mul_laurent(LaurentElement(QQ, ("z", "w"), {}, 2))
    assert (h.coeffs, h.reliable, h.max_total) == ({}, win.reliable, 1)
    assert h._region()._contains((1, 0)) and not h._region()._contains((2, 0))


def test_window_factor_rings():
    # a window of states takes a factor over its scalars; any other pair of
    # rings, or of variable orders, is refused
    states = BilateralWindow(STATES, ("z", "w"), {(0, 0): {(-1,): 1}}, [(0, 2), (0, 2)])
    h = states.mul_laurent(LaurentElement(QQ, ("z", "w"), {(1, 0): 2}, 3))
    assert (h.coeffs, h.reliable, h.max_total) == ({(1, 0): {(-1,): 2}},
                                                   ((1, 3), (0, 2)), 2)
    scalar = BilateralWindow(QQ, ("z", "w"), {(0, 0): 1}, [(0, 2), (0, 2)])
    refused = [(states, ZZ, ("z", "w")), (states, StateSpace(ZZ), ("z", "w")),
               (states, QQ, ("w", "z")), (scalar, ZZ, ("z", "w")),
               (scalar, STATES, ("z", "w")),
               (BilateralWindow(QS, ("z", "w"), {}, [(0, 2), (0, 2)]), QQ, ("z", "w"))]
    for win, ring, vars in refused:
        with pytest.raises(OrderingMismatch):
            win.mul_laurent(LaurentElement(ring, vars, {(1, 0): 1}, 3))


def test_window_view_certifies_below_the_truncation_and_above_the_floors():
    # from_laurent certifies exactly the box cells f certifies: none at total
    # degree f.trunc or more, and every one below it at or above f's floors
    box = [(-4, 4), (-4, 4)]
    for trunc, floors in ((-1, (None, None)), (0, (-2, None)), (3, (None, -1)),
                          (6, (1, -3))):
        f = lz({(1, 0): 1, (-1, 1): 2, (2, 2): 3}, vars=("z", "w"), trunc=trunc,
               floors=floors)
        win = BilateralWindow.from_laurent(f, box)
        for e in product(range(-4, 5), repeat=2):
            assert win._region()._contains(e) == f.reliable_at(e), (trunc, floors, e)
        assert win.coeffs == f.coeffs


@given(data=st.data(), ring=st.sampled_from(sorted(SCALAR_RINGS)),
       window=st.booleans())
@settings(max_examples=100, deadline=None)
def test_certified_product_cells_are_cells_of_the_full_product(data, ring, window):
    # x is a series with floors, or a window that states no support; g is a
    # series (with floors unless x is a window).  Each stands for
    # a full element: its stored cells plus a dense tail on every cell of a
    # grid that its region leaves unknown and whose total degree is at least
    # its least true total (the least stored one, or the first uncertified
    # total).  Every cell the product certifies is that cell of the product
    # of the full elements.
    R, left, right = SCALAR_RINGS[ring]
    grid = list(product(range(-4, 6), repeat=2))

    def full(stored, certified, least, values):
        c = data.draw(values)
        tail = {e: c for e in grid if not certified(e) and sum(e) >= least}
        return {**tail, **stored}

    def series(values, floored):
        floor = st.one_of(st.none(), st.integers(-2, 0)) if floored else st.none()
        return LaurentElement(R, ("z", "w"), _terms(data, values, -2, 2),
                              data.draw(st.integers(1, 5)),
                              floors=(data.draw(floor), data.draw(floor)))

    g = series(right, not window)
    if window:
        x = _window(data, R, left)
        h = x.mul_laurent(g)
        top = inf if x.max_total is None else x.max_total
        xs = full(x.coeffs, x._region()._contains,
                  min([top + 1] + [sum(e) for e in x.coeffs]), left)
        certified = h._region()._contains
    else:
        x = series(left, True)
        h = x * g
        xs = full(x.coeffs, x.reliable_at, _val(x), left)
        certified = h.reliable_at
    gs = full(g.coeffs, g.reliable_at, _val(g), right)
    want = _naive_product(R, xs, gs)
    for e in set(want) | set(h.coeffs):
        if certified(e):
            assert R.eq(h.coeffs.get(e, R.zero()), want.get(e, R.zero())), e


def test_product_of_series_floored_in_different_variables_is_sound():
    # x is cut below z^0 and g below w^0, so x's z^-1 w and g's z w^-1 are
    # unknown; both have total degree 0, the least true total of each, so
    # the product certifies no cell of total degree 0 or more
    one = Fraction(1)
    x = LaurentElement(QQ, ("z", "w"), {(0, 0): one}, 1, floors=(0, None))
    g = LaurentElement(QQ, ("z", "w"), {(0, 0): one}, 1, floors=(None, 0))
    h = x * g
    assert (h.trunc, h.floors) == (0, (0, 0))
    want = _naive_product(QQ, {**x.coeffs, (-1, 1): one}, {**g.coeffs, (1, -1): one})
    for e in set(want) | set(h.coeffs):
        if h.reliable_at(e):
            assert h.coeffs.get(e, 0) == want.get(e, 0), e


# -- substitute and comp_inverse against the per-monomial product loop --------


def _substitute_oracle(f, bindings):
    """Substitution before the shift path: each monomial is built from full
    series products, truncated, and added into the result.  A negative
    power of an image, a monomial one included, is its ``int_power``,
    multiplied in by the product rule."""
    targets = list(bindings.values())
    if not targets:
        return f
    tvars = targets[0].vars
    R = f.ring
    for g in targets:
        if g.vars != tvars or g.ring != R:
            raise OrderingMismatch("inconsistent substitution targets")
        if g.valuation() < 1:
            raise IllegalSubstitution("substituted series must have positive valuation")
    ttrunc = min(g.trunc for g in targets)
    full = {}
    for v in f.vars:
        if v in bindings:
            full[v] = bindings[v]
        else:
            if v not in tvars:
                raise IllegalSubstitution(f"unbound variable {v!r} missing from target")
            full[v] = PowerSeries.var(R, tvars, v, ttrunc)
    t = min(f.trunc, ttrunc)
    # the images are PowerSeries, so the result has the type of f
    out = type(f).zero(R, tvars, t)
    pw = {v: {0: PowerSeries.one(R, tvars, t)} for v in f.vars}

    def power(v, k):
        cache = pw[v]
        if k not in cache:
            cache[k] = (power(v, k - 1) * full[v]).truncate(t)
        return cache[k]

    for e, c in f.coeffs.items():
        term = type(f).const(R, tvars, c, t)
        for v, k in zip(f.vars, e):
            g = full[v]
            if k > 0:
                term = (term * power(v, k)).truncate(t)
            elif k < 0:
                try:
                    term = term * g.int_power(k)
                except NotInvertibleError as exc:
                    raise IllegalSubstitution(
                        f"negative powers of {v!r} need an invertible image") from exc
        out = out + term
    return out


def _image(data, R, values, min_trunc=1):
    """A substitution image over (z, w): a bare variable, -z or 2z, a
    coefficient-one monomial of degree up to 4, a general series of positive
    valuation, or (rarely) one with a constant term or the wrong ordering."""
    one = R.one()
    kind = data.draw(st.sampled_from(
        ["var", "scaled", "monomial", "series", "series", "constant", "swapped"]))
    trunc = data.draw(st.integers(min_trunc, 7))
    vars = ("z", "w")
    if kind == "var":
        coeffs = {data.draw(st.sampled_from([(1, 0), (0, 1)])): one}
    elif kind == "scaled":
        coeffs = {(1, 0): data.draw(st.sampled_from([R.neg(one), R.add(one, one)]))}
    elif kind == "monomial":
        i = data.draw(st.integers(0, 4))
        coeffs = {(i, data.draw(st.integers(1 if i == 0 else 0, 4 - i))): one}
    elif kind == "constant":
        coeffs = {(0, 0): one, (1, 0): one}
    elif kind == "swapped":
        coeffs, vars = {(1, 0): one}, ("w", "z")
    else:
        exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
        coeffs = data.draw(st.dictionaries(exps, values, max_size=5))
    return PowerSeries(R, vars, coeffs, trunc)


SUBST_RINGS = ["QQ", "ZZ", "Z6", "QQ[s]"]


@given(data=st.data(), ring=st.sampled_from(SUBST_RINGS), laurent=st.booleans())
@settings(max_examples=300, deadline=None)
def test_substitute_matches_product_loop(data, ring, laurent):
    # a power series f(x, y, z) with x bound, y usually bound (unbound it is
    # missing from the targets) and z bound or left as the target variable
    # z; or a univariate Laurent f(x) with exponents -3..3
    R, left, right = KERNEL_RINGS[ring]
    if laurent:
        exps = st.tuples(st.integers(-3, 3))
        f = LaurentElement(R, ("x",), data.draw(st.dictionaries(exps, left, min_size=1,
                                                                max_size=6)),
                           data.draw(st.integers(-2, 8)))
        bindings = {"x": _image(data, R, right, min_trunc=3)}
    else:
        exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
        f = PowerSeries(R, ("x", "y", "z"),
                        data.draw(st.dictionaries(exps, left, max_size=8)),
                        data.draw(st.integers(1, 8)))
        bindings = {"x": _image(data, R, right)}
        if data.draw(st.integers(0, 4)):
            bindings["y"] = _image(data, R, right)
        if data.draw(st.booleans()):
            bindings["z"] = _image(data, R, right)

    def outcome(substitute):
        try:
            g = substitute(f, bindings)
        except (IllegalSubstitution, OrderingMismatch, ValueError) as exc:
            return type(exc), str(exc)
        return type(g), g.vars, g.coeffs, g.trunc, g.floors

    assert outcome(LaurentElement.substitute) == outcome(_substitute_oracle)


def test_substitute_refuses_floors_and_mixed_negative_powers():
    z = lz({(1,): 1}, trunc=10)
    # the cell z^1 of the result is unknown: it would come from z^1 of f,
    # which lies below f's floor
    f = LaurentElement(QQ, ("z",), {(3,): 1, (5,): 1}, 10, floors=(3,))
    with pytest.raises(ValueError, match="floors"):
        f.substitute({"z": z + z * z})
    g = LaurentElement(QQ, ("z",), {(1,): 1, (2,): 1}, 10, floors=(-4,))
    with pytest.raises(IllegalSubstitution, match="floors"):
        lz({(1,): 1, (2,): 1}).substitute({"z": g})
    # in two or more variables any negative exponent is refused, on a
    # monomial image too: under x -> z^2 the unknown cell x^-8 y^16 of h
    # (total degree 8, its truncation) would land on z^0
    h = lz({(-1, 1): 1}, vars=("x", "y"), trunc=8)
    for img in (lz({(1,): 1, (2,): 1}, trunc=8), z * z, z):
        with pytest.raises(ValueError, match="univariate"):
            h.substitute({"x": img, "y": z})


def test_substitute_laurent_image_into_power_series():
    f = PowerSeries(QQ, ("z",), {(1,): 1, (2,): 1}, 6)
    g = f.substitute({"z": LaurentElement(QQ, ("x", "y"), {(-1, 2): 1}, 6)})
    assert type(g) is LaurentElement
    assert (g.coeffs, g.trunc, g.floors) == ({(-1, 2): 1, (-2, 4): 1}, 6, (None, None))


def test_substitute_monomial_image_under_negative_powers():
    # an image z known below 6 is z + O(z^6), so z^-3 goes to
    # z^-3 (1 + O(z^5))^-3 = z^-3 + O(z^2): f is kept below 2 only, the
    # truncation of the product rule; a bare z known below 3 under z^-1
    # leaves z^-1 + O(z)
    f = lz({(-3,): 2, (-1,): 1, (0,): 5, (2,): 1}, trunc=6)
    assert f.substitute({"z": LaurentElement.var(QQ, ("z",), "z", 6)}) == f.truncate(2)
    assert lz({(-1,): 1}, trunc=6).substitute(
        {"z": LaurentElement.var(QQ, ("z",), "z", 3)}) == lz({(-1,): 1}, trunc=1)
    # an unbound variable is exact: f comes back whole, over the targets
    w = LaurentElement.var(QQ, ("z", "w"), "w", 6)
    assert f.substitute({"w": w}) == lz({(-3, 0): 2, (-1, 0): 1, (0, 0): 5, (2, 0): 1},
                                        vars=("z", "w"), trunc=6)


Z7 = Ring.integers_mod(7)
INVERSE_RINGS = {
    "QQ": (QQ, st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 3)]),
           _small_q),
    "Z7": (Z7, st.integers(1, 6), st.integers(1, 6)),
    "QQ[s]": (QS, st.sampled_from([{(0,): Fraction(1)}, {(0,): Fraction(-3, 2)}]),
              _poly_s),
}


@given(data=st.data(), ring=st.sampled_from(sorted(INVERSE_RINGS)))
@settings(max_examples=80, deadline=None)
def test_comp_inverse_is_two_sided(data, ring):
    R, unit, values = INVERSE_RINGS[ring]
    t = data.draw(st.integers(2, 10))
    coeffs = {(1,): data.draw(unit)}
    for k in range(2, t):
        if data.draw(st.booleans()):
            coeffs[(k,)] = data.draw(values)
    f = PowerSeries(R, ("z",), coeffs, t)
    g = f.comp_inverse()
    z = PowerSeries.var(R, ("z",), "z", t)
    assert g.trunc == t
    assert f.substitute({"z": g}) == z
    assert g.substitute({"z": f}) == z


_NON_UNITS = {"QQ": st.just(0), "Z7": st.just(0), "QQ[s]": st.sampled_from(
    [{}, {(1,): Fraction(1)}, {(0,): Fraction(1), (1,): Fraction(1)}])}
# (ring, unit constant terms, nonzero values, non-unit constant terms)
INVERT_RINGS = {
    **{name: (*INVERSE_RINGS[name], non_unit) for name, non_unit in _NON_UNITS.items()},
    "ZZ": (ZZ, st.sampled_from([1, -1]), st.integers(-3, 3).filter(bool),
           st.sampled_from([0, 2, -3])),
    "Z6": (Z6, st.sampled_from([1, 5]), st.integers(1, 5), st.sampled_from([0, 2, 3, 4])),
}


@given(data=st.data(), ring=st.sampled_from(sorted(INVERT_RINGS)),
       arity=st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_invert_unit_is_two_sided(data, ring, arity):
    R, unit, values, non_unit = INVERT_RINGS[ring]
    vars = ("z", "w")[:arity]
    t = data.draw(st.integers(1, 8))
    exps = st.tuples(*[st.integers(0, t)] * arity).filter(any)
    coeffs = data.draw(st.dictionaries(exps, values, max_size=6))
    one = PowerSeries.one(R, vars, t)
    f = PowerSeries(R, vars, {**coeffs, (0,) * arity: data.draw(unit)}, t)
    g = f.invert_unit()
    assert g.trunc == t
    assert f * g == one
    assert g * f == one
    bad = PowerSeries(R, vars, {**coeffs, (0,) * arity: data.draw(non_unit)}, t)
    with pytest.raises(NotInvertibleError):
        bad.invert_unit()
    # over the zero ring every series is zero, and zero is a unit
    Z1 = Ring.integers_mod(1)
    zero = PowerSeries.zero(Z1, vars, t)
    assert zero.invert_unit() == zero


# -- int_power: the graded recurrence against the binomial loop ---------------

_unit_q = st.sampled_from([1, -1, 2, Fraction(-1, 3)])
_unit_z = st.sampled_from([1, -1])
_small_z = st.integers(-3, 3).filter(bool)
QDE = Ring.parampoly(QQ, ["d", "e"])
ZS = Ring.parampoly(ZZ, ["s"])
# coefficients with the elliptic law's kind of denominators, powers of 2
_dyadic_q = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                      st.sampled_from([1, 2, 4, 8])).map(QQ.from_fraction)
# (ring, unit leading coefficients, nonzero values)
GRADED_RINGS = {
    "QQ": (QQ, _unit_q, _small_q.map(QQ.from_fraction)),
    "QQ[s]": (QS, _unit_q.map(lambda q: {(0,): q}),
              _poly_s.map(lambda p: {e: QQ.from_fraction(c) for e, c in p.items()})),
    "QQ[d,e]": (QDE, _unit_q.map(lambda q: {(0, 0): q}),
                st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                _dyadic_q, min_size=1, max_size=3)),
    "ZZ": (ZZ, _unit_z, _small_z),
    "ZZ[s]": (ZS, _unit_z.map(lambda c: {(0,): c}),
              st.dictionaries(st.tuples(st.integers(0, 2)), _small_z, min_size=1,
                              max_size=3)),
    "Z6": (Z6, st.sampled_from([1, 5]), st.integers(1, 5)),
    "Z7": (Z7, st.integers(1, 6), st.integers(1, 6)),
}


def _same_power(got, want):
    assert (got.coeffs, got.trunc, got.floors) == \
        (want.coeffs, want.trunc, want.floors)


class _Scripted:
    """A stand-in for ``st.data()`` in an explicit example: each draw
    returns the next scripted value."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@given(data=st.data(), ring=st.sampled_from(sorted(GRADED_RINGS)),
       n=st.integers(-6, 10), arity=st.sampled_from([1, 2]))
# x + 3x^-1 y^3 at t = 4 over Z/6, n = -4: every cell below x = -4 is
# C(-4, k) 3^k = 0, so no floor is reported (draws: t, lead, one term, its
# dy, dx and value, the two inner floor draws, floors None)
@example(data=_Scripted(4, 1, 1, 3, -2, 3, 0, 0, None), ring="Z6", n=-4, arity=2)
@settings(max_examples=300, deadline=None)
def test_graded_power_matches_binomial_loop(data, ring, n, arity):
    # an exact base c*x*(1 + h) with leading monomial x: every term of h has
    # nonnegative total degree, and its y-free terms positive x-degree
    R, lead, values = GRADED_RINGS[ring]
    t = data.draw(st.integers(2, 8))
    coeffs = {(1, 0): data.draw(lead)}
    for _ in range(data.draw(st.integers(0, 6))):
        dy = data.draw(st.integers(0, 5)) if arity == 2 else 0
        dx = data.draw(st.integers(1 if dy == 0 else -dy, t))
        coeffs[(1 + dx, dy)] = data.draw(values)
    floors = data.draw(st.sampled_from(
        [None, (-3 * t, -3 * t), (-t - 3, None), (-2, None),
         (data.draw(st.integers(-3 * t, 2)), data.draw(st.integers(-2 * t, 0)))]))
    if arity == 1:
        coeffs = {e[:1]: c for e, c in coeffs.items()}
        floors = floors and floors[:1]
    f = LaurentElement(R, ("x", "y")[:arity], coeffs, t)
    got = f.int_power(n, floors=floors)
    _same_power(got, binomial_power(f, n, floors=floors))
    _assert_canonical_series(got)


@pytest.mark.parametrize("coeffs,scaled", [
    # h = x/2 + 3y/4 + xy/8: D = 8 clears every cell
    ({(1, 0): 1, (2, 0): Fraction(1, 2), (1, 1): Fraction(3, 4),
      (2, 1): Fraction(1, 8)}, True),
    # h has the cell y/(2x) of total degree 0, which x -> Dx, y -> Dy leaves
    # alone: no D clears it, and the recurrence runs on the fractions
    ({(1, 0): 1, (0, 1): Fraction(1, 2), (2, 0): Fraction(1, 4)}, False),
    # integral: D = 1
    ({(1, 0): 1, (2, 0): 3, (1, 1): -2}, False),
])
def test_graded_power_clears_denominators(monkeypatch, coeffs, scaled):
    seen = []
    real = series.scale_by_degree

    def spy(R, cells, D, shift=0):
        seen.append(D)
        return real(R, cells, D, shift)

    monkeypatch.setattr(series, "scale_by_degree", spy)
    f = LaurentElement(QQ, ("x", "y"), coeffs, 9)
    for n, floors in [(-3, None), (-1, (-4, -6)), (2, None), (5, (0, 1))]:
        got = f.int_power(n, floors=floors)
        _same_power(got, binomial_power(f, n, floors=floors))
        _assert_canonical_series(got)
    assert seen == ([8] * 4 if scaled else [])


def test_elliptic_power_recurrence_runs_on_integers(monkeypatch):
    # the elliptic law's cells carry powers of 2 in their denominators; the
    # recurrence sees them cleared, so every value it multiplies or returns
    # is an int
    law = standard_law("elliptic", trunc=12)
    assert any(type(x) is Fraction for c in law.F.coeffs.values() for x in c.values())
    values = []
    real = series._unit_power

    def spy(R, parts, n, cut, kmax=None):
        g = real(R, parts, n, cut, kmax)
        values.extend(x for m in parts + g for c in m.values() for x in c.values())
        return g

    monkeypatch.setattr(series, "_unit_power", spy)
    for n in (-3, -1, 2):
        law.power(n)
        law.power(n, twisted=True)
    law.power(-2, floors=(-36, -36))
    assert values and all(type(x) is int for x in values)


def _geometric(R, trunc):
    return LaurentElement(R, ("z", "w"), {(1, 0): R.one(), (0, 1): R.one()}, trunc)


@pytest.mark.parametrize("ring", [QQ, ZZ, Z6], ids=["QQ", "ZZ", "Z6"])
def test_int_power_takes_graded_recurrence(monkeypatch, ring):
    calls = []
    real = series._graded_power

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(series, "_graded_power", counting)
    f = _geometric(ring, 10)
    g = f.int_power(-1)
    # (z + w)^-1 = sum_k (-1)^k w^k z^(-1-k), cut at z >= -trunc
    assert g.floors == (-10, None) and g.trunc == 8
    assert g.coeffs == {(-1 - k, k): ring.from_int((-1) ** k) for k in range(10)}
    for n in (-3, 2, 5):
        _same_power(f.int_power(n), binomial_power(f, n))
    # one-variable bases as well
    lz({(-1,): 1, (0,): 2}, trunc=10, ring=ring).int_power(-2)
    assert calls == [-1, -3, 2, 5, -2]


@pytest.mark.parametrize("ring", [ZZ, Z7], ids=["ZZ", "Z7"])
def test_int_power_keeps_cells_above_a_high_y_floor(ring):
    # the y floor 13 lies more than t_rel = 11 above n * 0, where the
    # binomial loop's deep-cut mode loses every cell (see binomial_oracle)
    g = _geometric(ring, 12).int_power(-1, floors=(-20, 13))
    assert g.floors == (-20, 13)
    assert g.coeffs == {(-1 - j, j): ring.from_int((-1) ** j) for j in range(13, 20)}


def _assert_power_refused(f, exc, match, cases):
    # n = 0, and n = 1 without floors, return at once; every other power
    # is Miller's recurrence, which refuses f and names its shape
    assert f.int_power(0) == LaurentElement.one(f.ring, f.vars, f.trunc)
    assert f.int_power(1) is f
    for n, floors in cases:
        with pytest.raises(exc, match=match):
            f.int_power(n, floors=floors)


def test_int_power_refuses_a_floored_base():
    # z + w + z^-5 clipped at z >= -4: its leading term z is not certified
    f = lz({(1, 0): 1, (0, 1): 1, (-5, 0): 1}, vars=("z", "w"), trunc=10, floors=(-4, None))
    assert f.floors == (-4, None)
    _assert_power_refused(f, ValueError, r"floored base \(floors \(-4, None\)\)",
                          ((-1, None), (1, (1, None)), (1, (2, None)),
                           (2, None), (3, None)))


def test_int_power_refuses_a_non_unit_leading_coefficient():
    # 2z + w over ZZ: the leading coefficient 2 has no inverse
    f = LaurentElement(ZZ, ("z", "w"), {(1, 0): 2, (0, 1): 1}, 10)
    _assert_power_refused(f, NotInvertibleError, "leading coefficient 2 is not a unit",
                          ((-1, None), (1, (2, None)), (2, None), (2, (2, None)),
                           (2, (-3, None)), (3, None)))


def test_certified_reads_only_certified_cells():
    f = LaurentElement(QQ, ("z", "w"), {(1, 0): 1, (0, 1): 3}, 6, floors=(-2, None))
    assert f.certified((0, 1)) == 3
    # a certified zero is returned, not raised
    assert f.certified((3, -1)) == 0
    for e in ((-3, 0), (4, 2), (0, 6)):
        with pytest.raises(WindowMiss, match=re.escape(str(e))):
            f.certified(e)


@pytest.mark.parametrize("coeffs,vars,match", [
    ({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, ("x", "y", "z"), "3 variables"),
    # z + w/z: the leading term is z, and w/z has total degree 0 < 1
    ({(1, 0): 1, (-1, 1): 1}, ("z", "w"), "lower total degree"),
], ids=["three-variables", "negative-total-degree"])
def test_int_power_rejects_shapes_without_recurrence(coeffs, vars, match):
    f = lz(coeffs, vars=vars, trunc=8)
    for n in (-1, 2):
        with pytest.raises(ValueError, match=match):
            f.int_power(n)


def test_int_power_without_dominant_floor_raises():
    # (1 + w/z)^-1 has cells of total degree 0 at every depth in z: without
    # a floor on z the power is infinite (the binomial loop never returns)
    code = ("from fglcalc.ring import Ring\n"
            "from fglcalc.series import LaurentElement\n"
            "f = LaurentElement(Ring.rationals(), ('z', 'w'), {(1, 0): 1, (0, 1): 1}, 8)\n"
            "try:\n"
            "    f.int_power(-1, floors=(None, None))\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError:") and "floor" in proc.stdout


# -- canonical form of rational raw values ------------------------------------
#
# A QQ raw value is an int when it is integral and a Fraction with
# denominator > 1 otherwise: never a float, a bool or a Fraction with
# denominator 1.  The same holds for every coefficient of a QQ[s] value.

def _assert_canonical(R, c):
    for x in (c.values() if R.kind == "parampoly" else [c]):
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), c


def _assert_canonical_series(f):
    for c in f.coeffs.values():
        _assert_canonical(f.ring, c)


_canon_q = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(QQ.from_fraction)
# ring, canonical values, and the constant of a Fraction
CANONICAL_RINGS = {
    "QQ": (QQ, _canon_q, QQ.from_fraction),
    "QQ[s]": (QS, st.dictionaries(st.tuples(st.integers(0, 2)), _canon_q.filter(bool),
                                  max_size=3),
              lambda q: {(0,): QQ.from_fraction(q)} if q else {}),
}


@given(data=st.data(), ring=st.sampled_from(sorted(CANONICAL_RINGS)),
       n=st.integers(-6, 6).filter(bool), q=st.fractions(max_denominator=6))
@settings(max_examples=200, deadline=None)
def test_rational_ring_ops_keep_canonical_form(data, ring, n, q):
    R, values, constant = CANONICAL_RINGS[ring]
    a, b = data.draw(values), data.draw(values)
    out = [R.add(a, b), R.mul(a, b), R.neg(a), R.sub(a, b), R.divide_by_int(a, n),
           constant(q), R.from_int(n), R.one(), R.zero()]
    for x in (a, b, constant(q)):
        inv = R.try_invert(x)
        if inv is not NOT_INVERTIBLE:
            out.append(inv)
    if ring == "QQ":
        # a Fraction with denominator 1 handed in is canonicalised on the way out
        out += [R.add(Fraction(q), Fraction(q)), R.mul(Fraction(q), Fraction(n))]
    for c in out:
        _assert_canonical(R, c)


@given(data=st.data(), ring=st.sampled_from(sorted(CANONICAL_RINGS)),
       n=st.integers(-4, 5))
@settings(max_examples=60, deadline=None)
def test_series_results_keep_canonical_form(data, ring, n):
    R, values, _ = CANONICAL_RINGS[ring]
    nonzero = values.filter(bool)
    t = data.draw(st.integers(2, 7))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))

    def series(exps, size):
        return PowerSeries(R, ("z", "w"), data.draw(st.dictionaries(exps, nonzero,
                                                                    max_size=size)), t)

    f, g, img = series(exps, 6), series(exps, 6), series(exps.filter(any), 4)
    out = [f * g, f + g, f - g, f.substitute({"z": img, "w": img})]
    # an exact base c*x*(1 + h), as in test_graded_power_matches_binomial_loop,
    # raised by int_power and by the binomial loop
    lead = data.draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
    coeffs = {(1, 0): lead if ring == "QQ" else {(0,): lead}}
    for _ in range(data.draw(st.integers(0, 5))):
        dy = data.draw(st.integers(0, 4))
        dx = data.draw(st.integers(1 if dy == 0 else -dy, t))
        coeffs[(1 + dx, dy)] = data.draw(nonzero)
    base = LaurentElement(R, ("x", "y"), coeffs, t)
    out += [base * base, base.int_power(n), binomial_power(base, n)]
    for h in out:
        _assert_canonical_series(h)


@pytest.mark.parametrize("kind,params", [
    ("additive", {}), ("multiplicative", {}), ("one_parameter", {}), ("elliptic", {}),
    ("p_typical", {"p": 2, "h": 1}), ("p_typical", {"p": 3, "h": 1})])
def test_law_companions_keep_canonical_form(kind, params):
    law = standard_law(kind, trunc=12, **params)
    for f in (law.F, law.iota, law.pF, law.log, law.exp, law.G,
              law.power(-2), law.power(3), law.power(-1, twisted=True)):
        _assert_canonical_series(f)
    if law.ring.kind == "rationals":
        # Heisenberg states: shift images and the reduced rows of the quotient
        A = HeisenbergAlgebra(law, W=3)
        states = [A.shift(n, {mono: 1}) for mono in A.basis_monomials() for n in range(4)]
        states += ShiftQuotient(A).pivots.values()
        for s in states:
            for c in s.values():
                _assert_canonical(QQ, c)
