"""Formal group laws at finite truncation.

A law is a two-variable truncated power series F(z,w) = z + w + O(zw)
that is commutative and associative; the object caches the inverse
iota, the invariant differential coefficient p_F, the logarithm and
exponential (over rings containing the rationals), and the unit factor
G with F(z, iota(w)) = G(z,w) * (z - w).  Over a ring containing the
rationals, associativity of F of w-degree >= 2 is certified as
F = exp(log(z) + log(w)) from one-variable powers (``separable_sum``),
and the p_typical laws are built the same way; the one-sided
substitution F(z, F(w,v)) is the check over other rings and for
w-degree <= 1, and locates the first failing monomial of a rejected law
(``FormalGroupLaw.validate``).  Laurent powers of F(z,w) and
F(z, iota w) are computed on demand by ``power`` and kept in the law's
power table; a twisted power is G^n times the closed-form expansion of
(z - w)^n, and ``power_slices`` gives the low w-slices of a negative power
of F(z,w) without forming the rest of it.  The table has one depth rule
(``FormalGroupLaw._served``): an entry serves every request it covers, cut
to it, and a deeper request replaces it.
"""

from __future__ import annotations

from .ring import Ring, sparse_add
from .series import (CappedSlices, LaurentElement, PowerSeries, comb_any,
                     common_denominator, scale_by_degree, separable_sum,
                     solve_by_degree)


class AxiomViolation(Exception):
    def __init__(self, axiom, monomial=None):
        self.axiom = axiom
        self.monomial = monomial
        super().__init__(f"group-law axiom {axiom!r} fails"
                         + (f" at monomial {monomial}" if monomial else ""))


class NeedsRationals(Exception):
    pass


class IntegralityFailure(Exception):
    pass


class DivisionFailure(Exception):
    pass


Z, W, V = "z", "w", "v"


def _first_difference(a, b):
    keys = set(a.coeffs) | set(b.coeffs)
    bad = [e for e in sorted(keys) if not a.ring.eq(a.coefficient(e), b.coefficient(e))]
    return bad[0] if bad else None


class FormalGroupLaw:
    """A validated formal group law with eagerly computed companions."""

    def __init__(self, F, name="custom", params=None):
        if F.vars != (Z, W):
            F = F.rename((Z, W))
        self.ring = F.ring
        self.F = F
        self.trunc = F.trunc
        self.name = name
        self.params = dict(params or {})
        self.validate()
        self.iota = self._solve_inverse()
        self.G = self._g_factor()
        self._powers = {}

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check unitality, commutativity and associativity coefficient by
        coefficient below the truncation t, raising AxiomViolation at the
        first failing monomial; builds p_F, ``log`` and ``exp`` on the way.

        Over a ring containing the rationals, and for F of w-degree >= 2,
        associativity is certified as F = E(L(z) + L(w)) with L = ``log``
        and E = ``exp`` (``separable_sum``, from one-variable powers of L).
        The certificate is exact on every cell below t.  Write q = 1/p_F =
        F_w(., 0).  If F = E(Lz + Lw) mod t, both sides of associativity
        are E(Lz + Lw + Lv) mod t.  Conversely, d/dv at v = 0 of
        associativity gives q(F(z,w)) = F_w(z,w) q(w) mod t - 1, so
        d/dw [L(F) - L(z) - L(w)] = 0 mod t - 1; the w^0 cells of that
        difference vanish by unitality, and a Q-algebra has no torsion, so
        L(F) = L(z) + L(w) mod t and F = E(Lz + Lw) mod t (Hazewinkel,
        Formal Groups and Applications, 1978).

        The one-sided substitution (``_first_associativity_failure``) keeps
        three roles: it is the check over rings without the rationals; it is
        the check for F of w-degree <= 1, where F(z, F(w,v)) needs only the
        first image power and costs less than the separable sum; and it
        locates the first failing monomial whenever the certificate fails.
        A failed certificate never ends in acceptance: where the
        substitution finds no monomial, AxiomViolation names none.
        """
        F, R = self.F, self.ring
        # unitality F(z,0) = z
        if not R.eq(F.coefficient((1, 0)), R.one()):
            raise AxiomViolation("unitality", (1, 0))
        if not R.eq(F.coefficient((0, 1)), R.one()):
            raise AxiomViolation("unitality", (0, 1))
        for (i, j), c in F.coeffs.items():
            if j == 0 and not (i == 1 and R.eq(c, R.one())):
                raise AxiomViolation("unitality", (i, j))
            if i == 0 and not (j == 1 and R.eq(c, R.one())):
                raise AxiomViolation("unitality", (i, j))
        # commutativity F(z,w) = F(w,z)
        for (i, j), c in F.coeffs.items():
            if not R.eq(F.coefficient((j, i)), c):
                raise AxiomViolation("commutativity", (i, j))
        # p_F, and over a ring containing the rationals the logarithm
        # L = integral of p_F and the exponential E = L^-1
        self.pF = self._invariant_differential()
        self.log = self.exp = None
        if R.contains_rationals:
            self.log = self.pF.integrate(Z)
            self.exp = self.log.comp_inverse()
        if R.contains_rationals and max((j for _, j in F.coeffs), default=0) >= 2:
            if separable_sum(self.exp, self.log, self.trunc) == F.coeffs:
                return
            raise AxiomViolation("associativity", self._first_associativity_failure())
        bad = self._first_associativity_failure()
        if bad is not None:
            raise AxiomViolation("associativity", bad)

    def _first_associativity_failure(self):
        """The first monomial, in sorted order, where F(z, F(w,v)) and
        F(F(z,w), v) differ below the truncation, or None.

        Associativity is checked one-sidedly: only F(z, F(w,v)) is computed;
        once F is commutative, F(F(z,w), v) is the same series with its
        exponents permuted, and the two are compared in sorted monomial
        order as a two-sided check would compare them.

        Both sides are computed for F~(z,w) = F(Dz, Dw)/D, D the lcm of the
        denominators of F's cells, whose cell e is D^(tot(e)-1) F_e: an
        integral law, since every cell has total degree >= 1 and the
        degree-1 cells are 1.  F~(z, F~(w,v)) = F(Dz, F(Dw, Dv))/D, so its
        cell e is D^(tot(e)-1) times that of F(z, F(w,v)), and likewise on
        the permuted side: the two sides differ at exactly the monomials
        where they differ for F, and the first one reported is the same.
        """
        F, R = self.F, self.ring
        # F is commutative, so the right side is F(v, F(z,w)): the left
        # side with (z,w,v) read as (v,z,w), i.e. exponents (a,b,c) moved
        # to (b,c,a)
        tvars = (Z, W, V)
        D = common_denominator(R, F.coeffs.values())
        if D > 1:
            # unitality leaves every cell of total degree >= 1, so the
            # rescaled law is integral
            F = PowerSeries(R, F.vars, scale_by_degree(R, F.coeffs, D, -1),
                            F.trunc, _clean=True)
        lhs = F.substitute({W: F.rename((W, V)).extend(tvars)})
        rhs = PowerSeries(R, tvars, {(b, c, a): x for (a, b, c), x in lhs.coeffs.items()},
                          lhs.trunc, _clean=True)
        return _first_difference(lhs, rhs)

    # -- companions --------------------------------------------------------

    def _solve_inverse(self):
        """iota with F(z, iota(z)) = 0, found degree by degree.

        iota_1 = -1, and in each degree d >= 2 the coefficient sum_{i,j}
        F_ij [z^(d-i)] iota^j of F(z, iota) must vanish; iota_d enters it
        only through F_01 = 1 (``solve_by_degree``).
        """
        R, t = self.ring, self.trunc
        iota = solve_by_degree(R, [(i, j, c) for (i, j), c in self.F.coeffs.items()],
                               R.neg(R.one()), R.one(), t)
        return PowerSeries(R, (Z,), {(d,): c for d, c in iota.items()}, t)

    def _invariant_differential(self):
        # p_F(z) = F^{0,1}(z, 0)^{-1}
        f01 = self.F.derivative(W)
        row = {}
        for (i, j), c in f01.coeffs.items():
            if j == 0:
                row[(i,)] = c
        base = PowerSeries(self.ring, (Z,), row, f01.trunc, _clean=True)
        return base.invert_unit()

    def _g_factor(self):
        # F(z, iota(w)) = G(z,w) * (z - w), solved by the coefficient recursion
        R, t = self.ring, self.trunc
        iw = self.iota.rename((W,)).extend((Z, W))
        a = self.F.substitute({W: iw})
        gt = t - 1
        g = {}
        for j in range(0, gt):
            for i in range(gt - j - 1, -1, -1):
                val = a.coefficient((i + 1, j))
                if j >= 1:
                    val = R.add(val, g.get((i + 1, j - 1), R.zero()))
                if not R.is_zero(val):
                    g[(i, j)] = val
        G = PowerSeries(R, (Z, W), g, gt, _clean=True)
        zmw = PowerSeries(R, (Z, W), {(1, 0): R.one(), (0, 1): R.neg(R.one())}, t)
        if _first_difference((G * zmw).truncate(gt), a.truncate(gt)) is not None:
            raise DivisionFailure("F(z, iota w) is not divisible by (z - w)")
        if not R.eq(G.constant_term(), R.one()):
            raise DivisionFailure("G(0,0) != 1")
        return G

    # -- operations --------------------------------------------------------

    def partial_derivative(self, m, n):
        """F^{m,n} = d^{m+n} F / dz^m dw^n, without factorial normalization."""
        out = self.F
        for _ in range(m):
            out = out.derivative(Z)
        for _ in range(n):
            out = out.derivative(W)
        return out

    def logarithm(self):
        if self.log is None:
            raise NeedsRationals("the logarithm needs rational coefficients")
        return self.log

    def exponential(self):
        if self.exp is None:
            raise NeedsRationals("the exponential needs rational coefficients")
        return self.exp

    def f_z_iota_w(self, zname=Z, wname=W):
        """F(z, iota(w)) as an exact LaurentElement in (zname, wname)."""
        iw = self.iota.rename((wname,)).extend((zname, wname))
        return self.F.rename((zname, wname)).substitute({wname: iw}).as_laurent()

    def as_laurent(self):
        """F(z, w) as a plain LaurentElement, sharing F's coefficient dict."""
        return self.F.as_laurent()

    def power(self, n, *, twisted=False, dominant=0, floors=None, trunc=None):
        """F(z, w)^n, or F(z, iota w)^n when twisted.

        A twisted expansion has (z, w)[dominant] dominant; F(z, w)^n is
        z-dominant, and ``dominant=1`` without ``twisted`` raises ValueError:
        F is symmetric, so the w-dominant expansion of F(z,w)^n is
        ``power(n).rename(("w", "z"))``.  Exponents and ``floors``
        (as ``LaurentElement.int_power`` takes them, default -N on both
        variables for n < 0, N the law's truncation) are in (z, w) order.
        With ``trunc`` below the power's natural truncation N - 1 + n, and n
        not 0 or 1, the power is certified below total degree ``trunc``
        only, and equals the full power truncated at ``trunc`` (a negative
        power keeps the floors (-N, -N) of the full one).  F(z,w)^n is
        ``int_power`` of F, cut first to max(2, trunc - n + 1) so that the
        recurrence runs on fewer cells.  A twisted power, n != 0, is G^n *
        i(z - w)^n (``times_line_power``): G^n is the law's entry
        ``g_power(n)``, read below trunc - n, and the expansion of (z - w)^n
        in the dominant variable is a closed-form binomial line.  The entry
        is kept in the law's power table under (twisted, dominant, n, floors)
        by the table's one depth rule (``_served``); the stored coefficient
        dict must not be mutated.  A caller that needs other variable names
        reads the entry through ``rename``, a view sharing that dict.
        """
        if dominant and not twisted:
            raise ValueError('the w-dominant F(z,w)^n is power(n).rename(("w", "z"))')
        natural = self.trunc if n == 0 else self.trunc - 1 + n
        t = natural if n in (0, 1) or trunc is None else min(trunc, natural)
        return self._served((twisted, dominant, n, floors), t,
                            lambda: self._build_power(n, twisted, dominant, floors, t))

    def _build_power(self, n, twisted, dominant, floors, t):
        """``power(n, ...)`` computed afresh, certified below total degree t."""
        N = self.trunc
        if n == 0:
            return LaurentElement.one(self.ring, (Z, W), N)
        if floors is None:
            floors = (-N, -N) if n < 0 else (None, None)
        if twisted:
            # G has valuation 0 and i(z - w)^n total degree n
            g = times_line_power(self.g_power(n, max(1, t - n)), n, dominant, floors)
        elif n == 1:
            return self.as_laurent()
        else:
            # the base has valuation 1, so F^n is certified below its
            # truncation - 1 + n
            base = self.power(1).truncate(max(2, t - n + 1))
            g = base.int_power(n, floors=floors)
        # n >= t: the power has no cell below total degree t
        return g.truncate(t) if g.trunc > t else g

    def g_power(self, n, trunc=None):
        """G^n, certified below total degree ``trunc`` (default, and at
        most, G's own N - 1).  G is a unit power series, so one entry per n,
        kept in the law's power table under ("G", n), serves both dominants
        and every floor; it is ``int_power`` of G cut at ``trunc``."""
        tg = self.G.trunc if trunc is None else min(trunc, self.G.trunc)
        return self._served(("G", n), tg, lambda: self.G.truncate(tg).int_power(n))

    def power_slices(self, n, cap):
        """(S_0, ..., S_cap): the w^j slices, j <= cap, of the z-dominant
        F(z,w)^n, n < 0.  S_j holds the power's cells of w-exponent j: one
        variable z, the power's truncation N - 1 + n minus j and no floor,
        as F(0,w) = w leaves no cell below z^(n - j).  The recurrence stops
        at w-degree cap (``LaurentElement.power_slices``), so the cells of
        higher w-degree are never formed, and reading a slice above cap
        raises WindowMiss.  The slices are one entry per n in the law's
        power table, ("w_slices", n), served as its first cap + 1 slices;
        they never stand for the full power."""
        return self._served(("w_slices", n), cap + 1,
                            lambda: self.power(1).power_slices(n, cap))

    def _served(self, key, depth, build):
        """The power table's one rule, for powers, G's powers and slices.

        An entry is certified to a depth: a power's truncation, or its
        number of slices.  A request to ``depth`` that the entry under
        ``key`` covers is served from it, cut to exactly that depth, so a
        request reads the same whatever the table held before; a deeper
        request is computed afresh by ``build`` and replaces the entry,
        which is never widened.
        """
        entry = self._powers.get(key)
        if entry is None or _depth(entry) < depth:
            entry = self._powers[key] = build()
        if _depth(entry) == depth:
            return entry
        if type(entry) is CappedSlices:
            return CappedSlices(entry[:depth])
        return entry.truncate(depth)

    def __repr__(self):
        return f"<FormalGroupLaw {self.name} over {self.ring!r} at N={self.trunc}>"


def _depth(entry):
    # a power is certified below its truncation, slices to their count
    return len(entry) if type(entry) is CappedSlices else entry.trunc


def times_line_power(g, n, dominant, floors):
    """g * i(z - w)^n over (z, w), n != 0, for an exact power series g in
    (z, w), with (z, w)[dominant] dominant: the element certified below
    g's truncation + n, clipped at ``floors`` as ``LaurentElement.int_power``
    clips F(z, iota w)^n.

    With x the dominant variable and y the other, i(z - w)^n is the
    binomial line sum_k C(n, k) x^(n-k) (-y)^k, times (-1)^n when w
    dominates ((z - w)^n = (-1)^n (w - z)^n); it is exact, of total degree
    n, and finite for n > 0.  Each cell of g meets the terms k with x^(n-k)
    reaching the x floor (every k <= n when n > 0), so every certified cell
    is a finite sum.  The product runs fraction-free: with D the lcm of the
    denominators of g's cells, cell e of g is scaled by D^tot(e), the
    binomials are integers, and each output cell, whose summands all come
    from cells of g of total degree tot - n, is divided by D^(tot - n) once.
    For n < 0 the x floor is required and always reported (the line has
    cells below every floor); the y floor, and for n > 0 the x floor, is
    reported where it removes a cell.
    """
    d = dominant
    if n < 0 and floors[d] is None:
        raise ValueError("a negative power of a base with a term of its "
                         "leading term's total degree needs a floor on the "
                         "dominant variable")
    R, tg, cells = g.ring, g.trunc, g.coeffs
    D = common_denominator(R, cells.values())
    if D > 1:
        cells = scale_by_degree(R, cells, D)
    sign = (-1) ** n if d else 1
    # term k of the line sits at (n - k, k) when z dominates, (k, n - k)
    # when w does
    (i0, j0), (di, dj) = ((n, 0), (-1, 1)) if d == 0 else ((0, n), (1, -1))
    mul = R.mul
    line = []
    out = {}
    for e, c in cells.items():
        top = n if n > 0 else e[d] + n - floors[d]
        while len(line) <= top:
            k = len(line)
            line.append(R.from_int(sign * (-1) ** k * comb_any(n, k)))
        i, j = e[0] + i0, e[1] + j0
        sparse_add(R, out, (((i + k * di, j + k * dj), mul(c, line[k]))
                            for k in range(top + 1)))
    if D > 1:
        pw = [D ** s for s in range(tg)]
        out = {e: R.divide_by_int(c, pw[e[0] + e[1] - n]) for e, c in out.items()}
    out_floors = [None, None]
    for i in (d, 1 - d):
        f = floors[i]
        if f is None:
            continue
        cut = [e for e in out if e[i] < f]
        for e in cut:
            del out[e]
        if cut or (i == d and n < 0):
            out_floors[i] = f
    return LaurentElement(R, (Z, W), out, tg + n, floors=tuple(out_floors), _clean=True)


def fgl_new(F, name="custom"):
    return FormalGroupLaw(F, name=name)


def fgl_inverse(law):
    return law.iota


def invariant_differential(law):
    return law.pF


def logarithm(law):
    return law.logarithm()


def exponential(law):
    return law.exponential()


def partial_derivative(law, m, n):
    return law.partial_derivative(m, n)


def g_factor(law):
    return law.G


def _phi_p(ring, p, h, trunc):
    q = p ** h
    coeffs = {(1,): ring.one()}
    n = 1
    while q ** n < trunc:
        coeffs[(q ** n,)] = ring.try_invert(ring.from_int(p ** n))
        n += 1
    return PowerSeries(ring, (Z,), coeffs, trunc)


def standard_law(kind, trunc=12, **params):
    """Built-in laws: additive, multiplicative, one_parameter, elliptic,
    p_typical(p, h) for integers p >= 2 and h >= 1 (ValueError otherwise)."""
    QQ = Ring.rationals()
    if kind == "additive":
        F = PowerSeries(QQ, (Z, W), {(1, 0): 1, (0, 1): 1}, trunc)
        return FormalGroupLaw(F, name="additive")
    if kind == "multiplicative":
        F = PowerSeries(QQ, (Z, W), {(1, 0): 1, (0, 1): 1, (1, 1): 1}, trunc)
        return FormalGroupLaw(F, name="multiplicative")
    if kind == "one_parameter":
        R = Ring.parampoly(QQ, ["s"])
        s = R.param("s")
        F = PowerSeries(R, (Z, W), {(1, 0): R.one(), (0, 1): R.one(), (1, 1): s}, trunc)
        return FormalGroupLaw(F, name="one_parameter")
    if kind == "elliptic":
        R = Ring.parampoly(QQ, ["d", "e"])
        d, e = R.param("d"), R.param("e")
        zz = PowerSeries.var(R, (Z, W), Z, trunc)
        ww = PowerSeries.var(R, (Z, W), W, trunc)

        def S_of(v):
            return PowerSeries(R, (Z, W), {
                (0, 0): R.one(),
                (2, 0) if v == Z else (0, 2): R.neg(R.add(d, d)),
                (4, 0) if v == Z else (0, 4): e,
            }, trunc)

        num = zz * S_of(W).sqrt() + ww * S_of(Z).sqrt()
        den = PowerSeries(R, (Z, W), {(0, 0): R.one(), (2, 2): R.neg(e)}, trunc)
        F = num * den.invert_unit()
        return FormalGroupLaw(F.truncate(trunc), name="elliptic")
    if kind == "p_typical":
        p = params.get("p", 2)
        h = params.get("h", 1)
        # _phi_p needs q = p^h > 1 to end
        if type(p) is not int or type(h) is not int or p < 2 or h < 1:
            raise ValueError("p_typical needs integers p >= 2 and h >= 1, "
                             f"got p={p!r}, h={h!r}")
        # F = expp(phi(z) + phi(w)), from one-variable powers of phi
        phi = _phi_p(QQ, p, h, trunc)
        F = PowerSeries(QQ, (Z, W), separable_sum(phi.comp_inverse(), phi, trunc),
                        trunc, _clean=True)
        law = FormalGroupLaw(F, name=f"p_typical({p},{h})", params={"p": p, "h": h})
        for e, c in F.coeffs.items():
            if c.denominator != 1:
                raise IntegralityFailure(
                    f"coefficient of z^{e[0]} w^{e[1]} is {c}, not an integer")
        return law
    raise ValueError(f"unknown law kind {kind!r}")
