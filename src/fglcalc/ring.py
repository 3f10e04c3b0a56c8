"""Exact coefficient rings: rationals, integers, integers mod m, parameter polynomials.

Each kind is its own subclass of Ring (Rationals, Integers, IntegersMod,
ParamPoly), so every arithmetic decision is made once, by method lookup.
Every ring value is kept in canonical form so that equality is structural:
a rational is an int when integral and a reduced Fraction otherwise (never
a Fraction with denominator 1), residues lie in [0, m), polynomial dicts
have zero terms pruned.  In that form the zero of every kind is falsy (0, 0,
{}), which is what ``is_zero`` and the sparse kernel at the end of this
module test.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from operator import add as _plus


class _NotInvertible:
    """Marker value returned by try_invert for non-units."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotInvertible"


NOT_INVERTIBLE = _NotInvertible()


class Ring:
    """A commutative unital ring with exact arithmetic on raw values.

    ``Ring(kind, ...)`` returns the per-kind subclass: Rationals, Integers,
    IntegersMod or ParamPoly.  Each provides zero, from_int, add, neg, mul,
    try_invert (b with a*b = 1, or NOT_INVERTIBLE; never raises for
    non-units), divide_by_int (exact division by a nonzero integer; raises if
    not divisible), denominator (the least positive integer D with D*a
    integral: 1 outside QQ and QQ[params]), to_text (canonical
    decimal-free text, e.g. '5/6', 's^2+s', '3 mod 7') and lift (the ring
    the power recurrence runs in for this one: ZZ for Z/m, else itself).

    Values are raw (an int, a Fraction or a dict), never wrapped: series
    code, parsing and printing all call these methods on them directly.
    """

    KINDS = ("rationals", "integers", "mod", "parampoly")
    contains_rationals = False

    def __new__(cls, kind, modulus=None, base=None, params=()):
        if kind not in cls.KINDS:
            raise ValueError(f"unknown ring kind {kind!r}")
        return super().__new__(_CLASSES[kind])

    def __init__(self, kind, modulus=None, base=None, params=()):
        self.kind = kind
        self.modulus = modulus
        self.base = base
        self.params = tuple(params)
        if kind == "mod" and (modulus is None or modulus < 1):
            raise ValueError("modulus must be a positive integer")
        if kind == "parampoly":
            if base is None or base.kind not in ("rationals", "integers"):
                raise ValueError("parampoly base must be rationals or integers")
            if not self.params:
                raise ValueError("parampoly needs at least one parameter")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rationals():
        return Ring("rationals")

    @staticmethod
    def integers():
        return Ring("integers")

    @staticmethod
    def integers_mod(m):
        return Ring("mod", modulus=m)

    @staticmethod
    def parampoly(base, params):
        return Ring("parampoly", base=base, params=params)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.modulus == other.modulus
            and self.params == other.params
            and (self.base == other.base)
        )

    def __repr__(self):
        return f"Ring({self.kind})"

    # -- raw arithmetic shared by every kind ---------------------------------

    def zero(self):
        return self._ZERO

    def one(self):
        return self.from_int(1)

    def param(self, name):
        """The raw value of a single parameter variable."""
        if name not in self.params:
            raise ValueError(f"{name!r} is not a parameter of {self!r}")
        exp = tuple(1 if p == name else 0 for p in self.params)
        return {exp: self.base.one()}

    def is_zero(self, a):
        return not a

    def denominator(self, a):
        return 1

    @property
    def lift(self):
        return self

    def eq(self, a, b):
        return a == b

    def sub(self, a, b):
        return self.add(a, self.neg(b))


class _Numbers(Ring):
    """Arithmetic shared by the rings whose raw values are Python numbers."""

    _ZERO = 0

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def to_text(self, a):
        return str(a)


def _canonical(q):
    """A rational in canonical form: the int itself when q is integral."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


class Rationals(_Numbers):
    """QQ; a raw value is an int when it is integral and a Fraction with
    denominator > 1 otherwise.

    Integral values are the common case (the built-in laws, their powers
    and the Heisenberg states are almost all integral), and int arithmetic
    is several times cheaper than Fraction arithmetic.  ``3 == Fraction(3)``
    and the two hash and print alike, so the form changes no comparison or
    text.  Every result is canonicalised.  Division goes through Fraction
    (or ``//`` when an int divides exactly), because ``1 / a`` or ``a / n``
    on ints would give a float.
    """

    contains_rationals = True

    def from_fraction(self, q):
        return q if type(q) is int else _canonical(Fraction(q))

    def add(self, a, b):
        c = a + b
        if type(c) is Fraction and c.denominator == 1:
            return c.numerator
        return c

    def mul(self, a, b):
        c = a * b
        if type(c) is Fraction and c.denominator == 1:
            return c.numerator
        return c

    def denominator(self, a):
        return 1 if type(a) is int else a.denominator

    def try_invert(self, a):
        return NOT_INVERTIBLE if a == 0 else _canonical(Fraction(1, a))

    def divide_by_int(self, a, n):
        if type(a) is int and not a % n:
            return a // n
        return _canonical(Fraction(a, n))


class Integers(_Numbers):
    """ZZ; raw values are ints."""

    def try_invert(self, a):
        return a if a in (1, -1) else NOT_INVERTIBLE

    def divide_by_int(self, a, n):
        q, r = divmod(a, n)
        if r:
            raise ValueError(f"{a} not divisible by {n}")
        return q


class IntegersMod(Ring):
    """Z/m; raw values are ints in [0, m)."""

    _ZERO = 0

    def __repr__(self):
        return f"Ring(mod {self.modulus})"

    @property
    def lift(self):
        # the power recurrence divides by every k, which Z/m cannot always
        # do; residues are ints, so it runs over ZZ and from_int reduces
        return Ring.integers()

    def from_int(self, n):
        return n % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def try_invert(self, a):
        if self.modulus == 1:
            return 0
        if gcd(a, self.modulus) != 1:
            return NOT_INVERTIBLE
        return pow(a, -1, self.modulus)

    def divide_by_int(self, a, n):
        if n == 0:
            raise ZeroDivisionError
        inv = self.try_invert(n % self.modulus)
        if inv is NOT_INVERTIBLE:
            raise ValueError(f"{n} not invertible mod {self.modulus}")
        return (a * inv) % self.modulus

    def to_text(self, a):
        return f"{a} mod {self.modulus}"


class ParamPoly(Ring):
    """base[params]; raw values are dicts {exponent tuple: base raw value}
    with no zero values, so the zero polynomial is {}.

    Series coefficients over a parameter ring are small polynomials, most
    products have a single-term operand, and ``mul`` and ``add`` are the
    innermost operations of every series kernel, so both work on the dicts
    directly rather than through ``sparse_mul``/``sparse_add``, with the
    base arithmetic inlined (the base is QQ or ZZ).  The base is an
    integral domain and e -> e1 + e is injective, so a single nonzero term
    times a polynomial needs no pruning.  Every result is a new dict.
    """

    def __repr__(self):
        return f"Ring({self.base!r}[{','.join(self.params)}])"

    @property
    def contains_rationals(self):
        return self.base.contains_rationals

    def zero(self):
        # a fresh dict: a shared one would be corrupted by any caller that
        # filled in the zero it was handed
        return {}

    def _const(self, c):
        return {(0,) * len(self.params): c} if c else {}

    def from_int(self, n):
        return self._const(self.base.from_int(n))

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        get = out.get
        for e, c in b.items():
            s = get(e)
            if s is None:
                out[e] = c
            else:
                c = s + c
                if c:
                    out[e] = _canonical(c)
                else:
                    del out[e]
        return out

    def neg(self, a):
        return {e: self.base.neg(c) for e, c in a.items()}

    def denominator(self, a):
        return lcm(*map(self.base.denominator, a.values()))

    def mul(self, a, b):
        if not a or not b:
            return {}
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            (e1, c1), = a.items()
            if any(e1):
                if c1 == 1:
                    return {tuple(map(_plus, e1, e2)): c2 for e2, c2 in b.items()}
                return {tuple(map(_plus, e1, e2)): _canonical(c1 * c2)
                        for e2, c2 in b.items()}
            if c1 == 1:
                return dict(b)
            return {e2: _canonical(c1 * c2) for e2, c2 in b.items()}
        out = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(_plus, e1, e2))
                s = get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return {e: _canonical(c) for e, c in out.items() if c}

    def try_invert(self, a):
        # units of base[params] are the unit constants of the base
        if len(a) != 1:
            return NOT_INVERTIBLE
        (e, c), = a.items()
        if any(e):
            return NOT_INVERTIBLE
        inv = self.base.try_invert(c)
        if inv is NOT_INVERTIBLE:
            return NOT_INVERTIBLE
        return {e: inv}

    def divide_by_int(self, a, n):
        if n == 0:
            raise ZeroDivisionError
        return {e: self.base.divide_by_int(c, n) for e, c in a.items()}

    def to_text(self, a):
        if not a:
            return "0"
        terms = []
        for e in sorted(a, reverse=True):
            c = a[e]
            mono = "*".join(
                p if k == 1 else f"{p}^{k}"
                for p, k in zip(self.params, e)
                if k
            )
            cs = self.base.to_text(c)
            if mono:
                if cs == "1":
                    terms.append(mono)
                elif cs == "-1":
                    terms.append("-" + mono)
                else:
                    terms.append(f"{cs}*{mono}")
            else:
                terms.append(cs)
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out


_CLASSES = {"rationals": Rationals, "integers": Integers, "mod": IntegersMod,
            "parampoly": ParamPoly}


# -- the sparse kernel -----------------------------------------------------
#
# Sparse maps {exponent tuple: raw value} over any coefficient ring whose
# canonical zero is falsy (every Ring kind, and vertex.StateSpace) and whose
# values are never mutated in place.


def sparse_add(R, out, terms):
    """Add the (exponent, value) pairs of ``terms`` into ``out`` in place,
    dropping every sum that becomes zero; returns ``out``."""
    add = R.add
    get = out.get
    for e, c in terms:
        s = get(e)
        if s is not None:
            c = add(s, c)
        if c:
            out[e] = c
        elif s is not None:
            del out[e]
    return out


def sparse_mul(R, a, b, cut=None, out=None):
    """Accumulate the product of sparse maps ``a`` and ``b`` into ``out`` (a
    new dict by default): c1*c2 lands on e1+e2, zero sums are dropped, and
    pairs of total degree >= ``cut`` are skipped when a cut is given."""
    out = {} if out is None else out
    mul = R.mul
    bt = [(e2, c2, sum(e2)) for e2, c2 in b.items()]
    for e1, c1 in a.items():
        room = inf if cut is None else cut - sum(e1)
        sparse_add(R, out, ((tuple(map(_plus, e1, e2)), mul(c1, c2))
                            for e2, c2, t2 in bt if t2 < room))
    return out

