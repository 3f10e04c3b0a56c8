from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fglcalc.ring import NOT_INVERTIBLE, Ring, sparse_add, sparse_mul

QQ = Ring.rationals()
ZZ = Ring.integers()
Z7 = Ring.integers_mod(7)
Z6 = Ring.integers_mod(6)
ZS = Ring.parampoly(ZZ, ["s"])
QDE = Ring.parampoly(QQ, ["d", "e"])


def test_add_rationals():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_mul_parampoly():
    s = ZS.param("s")
    assert ZS.mul(s, ZS.add(s, ZS.one())) == {(2,): 1, (1,): 1}


def test_mul_mod():
    assert Z7.mul(3, 5) == 1


def test_try_invert_rational():
    assert QQ.try_invert(Fraction(2, 3)) == Fraction(3, 2)


def test_try_invert_integer_nonunit():
    assert ZZ.try_invert(2) is NOT_INVERTIBLE
    assert ZZ.try_invert(-1) == -1


def test_divide_by_int_mod_m_multiplies_by_the_inverse():
    assert Z7.divide_by_int(3, 2) == 5
    assert Z7.divide_by_int(3, 9) == 5
    with pytest.raises(ValueError, match="3 not invertible mod 6"):
        Z6.divide_by_int(1, 3)
    with pytest.raises(ZeroDivisionError):
        Z7.divide_by_int(1, 0)


def test_reprs_name_the_ring():
    assert repr(NOT_INVERTIBLE) == "NotInvertible"
    assert (repr(QQ), repr(ZZ), repr(Z7)) == ("Ring(rationals)", "Ring(integers)", "Ring(mod 7)")
    assert repr(QDE) == "Ring(Ring(rationals)[d,e])"


def test_try_invert_mod_nonunit():
    assert Z6.try_invert(3) is NOT_INVERTIBLE
    assert Z6.try_invert(5) == 5


def test_try_invert_parampoly():
    s = ZS.param("s")
    assert ZS.try_invert(s) is NOT_INVERTIBLE
    assert ZS.try_invert(ZS.from_int(-1)) == ZS.from_int(-1)
    half = {(0, 0): Fraction(1, 2)}
    assert QDE.mul(QDE.try_invert(half), half) == QDE.one()


def test_text_forms():
    assert QQ.to_text(Fraction(5, 6)) == "5/6"
    assert Z7.to_text(3) == "3 mod 7"
    assert ZS.to_text(ZS.add(ZS.mul(ZS.param("s"), ZS.param("s")), ZS.param("s"))) == "s^2+s"


rings_and_strats = [
    (QQ, st.fractions(max_denominator=50)),
    (ZZ, st.integers(-50, 50)),
    (Z7, st.integers(0, 6)),
    (Z6, st.integers(0, 5)),
]


@pytest.mark.parametrize("ring,strat", rings_and_strats)
@given(data=st.data())
def test_ring_axioms(ring, strat, data):
    a = ring.from_fraction(data.draw(strat)) if ring.kind == "rationals" else data.draw(strat)
    b = data.draw(strat)
    c = data.draw(strat)
    if ring.kind == "rationals":
        b, c = Fraction(b), Fraction(c)
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))


def parampoly_values(ring=ZS, coeffs=st.integers(-5, 5)):
    """Polynomials of ``ring`` with canonical base values drawn from
    ``coeffs``: zero, a single term, the constant one, or several terms."""
    exps = st.tuples(*[st.integers(0, 3)] * len(ring.params))
    nonzero = coeffs.filter(bool)
    return st.one_of(st.builds(dict), st.builds(ring.one),
                     st.dictionaries(exps, nonzero, min_size=1, max_size=1),
                     st.dictionaries(exps, nonzero, min_size=2, max_size=5))


@given(a=parampoly_values(), b=parampoly_values(), c=parampoly_values())
def test_parampoly_axioms(a, b, c):
    assert ZS.add(ZS.add(a, b), c) == ZS.add(a, ZS.add(b, c))
    assert ZS.mul(a, b) == ZS.mul(b, a)
    assert ZS.mul(a, ZS.add(b, c)) == ZS.add(ZS.mul(a, b), ZS.mul(a, c))


KERNEL_RINGS = {
    "QQ[d,e]": (QDE, st.fractions(min_value=-3, max_value=3,
                                  max_denominator=3).map(QQ.from_fraction)),
    "ZZ[s]": (ZS, st.integers(-5, 5)),
}


def _assert_canonical(R, a):
    # the same form tests/test_series.py checks: no Fraction with
    # denominator 1, and no zero term
    for c in a.values():
        assert c and (type(c) is int or (type(c) is Fraction and c.denominator > 1)), a


@given(data=st.data(), ring=st.sampled_from(sorted(KERNEL_RINGS)))
@settings(max_examples=300, deadline=None)
def test_parampoly_kernel_matches_sparse_loop(data, ring):
    # ParamPoly.mul/add work on the dicts directly; the generic sparse loop
    # over the base ring is the reference
    R, coeffs = KERNEL_RINGS[ring]
    a, b = data.draw(parampoly_values(R, coeffs)), data.draw(parampoly_values(R, coeffs))
    a0, b0 = dict(a), dict(b)
    cases = [(R.mul(a, b), sparse_mul(R.base, a, b)),
             (R.add(a, b), sparse_add(R.base, dict(a), b.items()))]
    for got, want in cases:
        assert got == want
        _assert_canonical(R, got)
        # a fresh dict: filling it in leaves both operands as they were
        got[(7,) * len(R.params)] = R.base.one()
        assert a == a0 and b == b0


@pytest.mark.parametrize("ring,vals", [
    (QQ, [Fraction(3, 4), Fraction(-2)]),
    (Z7, [1, 2, 3, 4, 5, 6]),
    (ZS, [{(0,): -1}]),
])
def test_invert_roundtrip(ring, vals):
    for v in vals:
        inv = ring.try_invert(v)
        assert inv is not NOT_INVERTIBLE
        assert ring.mul(v, inv) == ring.one()


@pytest.mark.parametrize("ring", [QQ, ZZ, Z7, Z6, ZS, QDE])
def test_canonical_zero_is_falsy(ring):
    # the sparse kernel prunes zero sums with a plain truth test
    z = ring.zero()
    assert not z and ring.is_zero(z)
    assert ring.sub(ring.one(), ring.one()) == z
    assert not ring.is_zero(ring.one())


@pytest.mark.parametrize("make,msg", [
    (lambda: Ring.integers_mod(0), "modulus must be a positive integer"),
    (lambda: Ring.parampoly(Z6, ["s"]), "parampoly base must be rationals or integers"),
    (lambda: Ring.parampoly(QQ, []), "parampoly needs at least one parameter"),
])
def test_constructor_validation(make, msg):
    with pytest.raises(ValueError, match=msg):
        make()
