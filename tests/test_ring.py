from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fglcalc.ring import NOT_INVERTIBLE, Ring, RingElement, RingMismatch, arith

QQ = Ring.rationals()
ZZ = Ring.integers()
Z7 = Ring.integers_mod(7)
Z6 = Ring.integers_mod(6)
ZS = Ring.parampoly(ZZ, ["s"])
QDE = Ring.parampoly(QQ, ["d", "e"])


def q(a, b=1):
    return RingElement(QQ, Fraction(a, b))


def test_add_rationals():
    assert arith("add", q(1, 2), q(1, 3)) == q(5, 6)


def test_mul_parampoly():
    s = RingElement(ZS, ZS.param("s"))
    one = RingElement(ZS, ZS.one())
    assert arith("mul", s, s + one) == RingElement(ZS, {(2,): 1, (1,): 1})


def test_mul_mod():
    a = RingElement(Z7, 3)
    b = RingElement(Z7, 5)
    assert arith("mul", a, b) == RingElement(Z7, 1)


def test_cross_ring_is_error():
    with pytest.raises(RingMismatch):
        arith("add", q(1), RingElement(ZZ, 1))


def test_try_invert_rational():
    assert q(2, 3).try_invert() == q(3, 2)


def test_try_invert_integer_nonunit():
    assert RingElement(ZZ, 2).try_invert() is NOT_INVERTIBLE
    assert RingElement(ZZ, -1).try_invert() == RingElement(ZZ, -1)


def test_try_invert_mod_nonunit():
    assert RingElement(Z6, 3).try_invert() is NOT_INVERTIBLE
    assert RingElement(Z6, 5).try_invert() == RingElement(Z6, 5)


def test_try_invert_parampoly():
    s = ZS.param("s")
    assert ZS.try_invert(s) is NOT_INVERTIBLE
    assert ZS.try_invert(ZS.from_int(-1)) == ZS.from_int(-1)
    half = QDE.from_fraction(Fraction(1, 2))
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


@st.composite
def parampoly_values(draw):
    n = draw(st.integers(0, 3))
    out = {}
    for _ in range(n):
        e = (draw(st.integers(0, 3)),)
        c = draw(st.integers(-5, 5))
        if c:
            out[e] = c
    return out


@given(a=parampoly_values(), b=parampoly_values(), c=parampoly_values())
def test_parampoly_axioms(a, b, c):
    assert ZS.add(ZS.add(a, b), c) == ZS.add(a, ZS.add(b, c))
    assert ZS.mul(a, b) == ZS.mul(b, a)
    assert ZS.mul(a, ZS.add(b, c)) == ZS.add(ZS.mul(a, b), ZS.mul(a, c))


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
    assert Ring(ring.kind, ring.modulus, ring.base, ring.params) == ring


@pytest.mark.parametrize("make,msg", [
    (lambda: Ring("bogus"), "unknown ring kind"),
    (lambda: Ring.integers_mod(0), "modulus must be a positive integer"),
    (lambda: Ring.parampoly(Z6, ["s"]), "parampoly base must be rationals or integers"),
    (lambda: Ring.parampoly(QQ, []), "parampoly needs at least one parameter"),
])
def test_constructor_validation(make, msg):
    with pytest.raises(ValueError, match=msg):
        make()
