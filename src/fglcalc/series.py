"""Truncated multivariate series arithmetic.

Two element kinds, and a window:

  LaurentElement   -- integer exponent vectors with a variable *ordering* that
                      records the iterated Laurent ring the element lives in
                      (first variable dominates, i.e. vars (z, w) means the
                      ring of series meromorphic in z inside series in w),
                      truncated by total degree N (terms of total degree >= N
                      are unknown, not zero).  Besides the truncation, each
                      variable may carry a finite reliability floor:
                      coefficients with an exponent below the floor were cut
                      off and are unknown.  Its ``substitute`` serves every
                      series and refuses a floored self, a floored image,
                      and a negative exponent in two or more variables.
  PowerSeries      -- the nonnegative case: a LaurentElement whose exponents
                      are all >= 0 and whose floors are all None.  It adds
                      what law construction needs (a floor-free product,
                      inverses, square roots, primitives).
  BilateralWindow  -- a finite coefficient box standing for a bilateral series,
                      which stores the region it is certified on.

Both say where they are certified with one region (``_Region``): per-variable
lows and highs, a greatest certified total degree and whether the lows bound
the support.  A series derives its region from its floors and truncation; a
window stores its own, the region of its box.  Every sum, comparison and
window view certifies the meet of its operands' regions, and every product,
``*`` of two series or of a window and a series and the residue contraction,
the region of one product rule (``_Region._product``).

All coefficients are raw ring values owned by a Ring (see ring.py).
"""

from __future__ import annotations

from math import comb, inf, lcm

from .ring import NOT_INVERTIBLE, sparse_add, sparse_mul


class OrderingMismatch(Exception):
    pass


class NonConvergentProduct(Exception):
    pass


class NotInvertibleError(Exception):
    pass


class IllegalSubstitution(Exception):
    pass


class DiagonalDivergence(Exception):
    pass


class WindowMiss(Exception):
    pass


class EmptyWindow(Exception):
    pass


def _tot(e):
    return sum(e)


def _revlex_key(e):
    # leading-term order of the iterated ring: last variable is most
    # significant (series variable at the outermost level)
    return tuple(reversed(e))


class _Region:
    """Where a series or a window is certified: the cells e with lows[i] <=
    e[i] <= highs[i] in every variable i and total degree at most ``top``.

    A series is the region with highs +inf, its floors as lows (-inf where
    it has none) and top trunc - 1.  A window stores its region: its box,
    and a top that is +inf where the box alone bounds it.  A finite low is
    a cut: the cells below it are unknown.  When ``stated``, every low is
    instead a support bound: no cell below it is nonzero (a series without
    floors states its support, as nothing lies below -inf).
    """

    __slots__ = ("lows", "highs", "top", "stated")

    def __init__(self, lows, highs, top, stated):
        self.lows, self.highs, self.top, self.stated = lows, highs, top, stated

    def _contains(self, e):
        return _tot(e) <= self.top and all(
            lo <= x <= hi for x, lo, hi in zip(e, self.lows, self.highs))

    def _empty(self):
        return (any(lo > hi for lo, hi in zip(self.lows, self.highs))
                or sum(self.lows) > self.top)

    def _size(self):
        """The number of cells in a region with finite lows and highs: the
        box is walked in every variable but the last, whose run of cells of
        total degree at most top is counted at once."""
        from itertools import product as iproduct
        *rest, (lo, hi) = self._box()
        return sum(max(0, min(hi, self.top - _tot(e)) - lo + 1)
                   for e in iproduct(*(range(a, b + 1) for a, b in rest)))

    def _box(self):
        return tuple(zip(self.lows, self.highs))

    def _floors(self):
        return tuple(None if lo == -inf else lo for lo in self.lows)

    def _meet(self, other):
        """The cells both regions certify.  A low there still bounds the
        support when both regions state theirs at the same lows."""
        return _Region(tuple(map(max, self.lows, other.lows)),
                       tuple(map(min, self.highs, other.highs)), min(self.top, other.top),
                       self.stated and other.stated and self.lows == other.lows)

    def _least(self, cells):
        """The least total degree of a true cell of a series certified here
        with stored cells ``cells``: a stored cell, a cell above top, or,
        with stated support, a cell above a high."""
        least = min(min(map(sum, cells), default=inf), self.top + 1)
        if self.stated:
            s = sum(self.lows)
            least = min([least] + [hi + 1 + s - lo for lo, hi in zip(self.lows, self.highs)
                                   if hi < inf])
        return least

    def _product(self, other, a, b):
        """The region of x * y, for x certified here with stored cells a and
        y certified on ``other`` with stored cells b: the one product rule.

        A product cell is certified when no unknown cell of one factor meets
        a stored cell of the other there, taking every unknown cell of a
        factor to have total degree at least its least true total
        (``_least``).  So a cut low rises by the other factor's largest
        exponent and a high moves by its least one (a factor with no stored
        cells counts as 0), while a stated low stays; the top is min(top_x +
        least_y, top_y + least_x).  An unknown cell of one factor meets one
        of the other below a low only when the two are cut in different
        variables (a cut low of x in z, of y in w): their product lies
        anywhere at total degree least_x + least_y or more, so the top is
        then at most least_x + least_y - 1.  Cut in one variable only, such
        a product lies below the product's low there (above the top when a
        factor has no stored cells).  The product states its support when
        both factors do and no finite low meets a negative exponent of the
        other.
        """
        lows, highs = [-inf] * len(self.lows), [inf] * len(self.lows)
        stated = self.stated and other.stated
        for r, cells in ((self, b), (other, a)):
            for i, (lo, hi) in enumerate(zip(r.lows, r.highs)):
                if lo > -inf:
                    rise = 0 if r.stated else max((e[i] for e in cells), default=0)
                    lows[i] = max(lows[i], lo + rise)
                    stated = stated and min((e[i] for e in cells), default=0) >= 0
                if hi < inf:
                    highs[i] = min(highs[i], hi + min((e[i] for e in cells), default=0))
        least_x, least_y = self._least(a), other._least(b)
        top = min(self.top + least_y, other.top + least_x)
        cuts = [set() if r.stated else {i for i, lo in enumerate(r.lows) if lo > -inf}
                for r in (self, other)]
        if any(i != j for i in cuts[0] for j in cuts[1]):
            top = min(top, least_x + least_y - 1)
        return _Region(tuple(lows), tuple(highs), top, stated)


def require_residue_cell(vars, i, t, floors):
    """Raise WindowMiss unless a residue in vars[i] of a series certified
    below total degree t and at ``floors`` is certified: exponent -1 must lie
    at or above the floor on vars[i], and in one variable the residue is the
    one cell (-1,), which must lie below t."""
    if floors[i] is not None and floors[i] > -1:
        raise WindowMiss(f"exponent -1 of {vars[i]!r} lies below the reliable floor")
    if len(vars) == 1 and -1 >= t:
        raise WindowMiss(f"cell (-1,) of {vars} is not certified "
                         f"(trunc {t}, floors {floors})")


class LaurentElement:
    """An iterated-Laurent element at truncation, with reliability floors.

    ``vars`` is the ordering: ``(z, w)`` is the ring of Laurent series in w
    whose coefficients are Laurent series in z (z dominates, as in the
    expansion with |z| > |w|).  ``floors[i]`` is None when the element
    genuinely has no terms below any bound in variable i; an integer floor
    means coefficients with a smaller exponent were truncated away and are
    unknown.
    """

    __slots__ = ("ring", "vars", "coeffs", "trunc", "floors")

    def __init__(self, ring, vars, coeffs, trunc, floors=None, _clean=False):
        self.ring = ring
        self.vars = tuple(vars)
        self.trunc = trunc
        if floors is None:
            floors = (None,) * len(self.vars)
        self.floors = tuple(floors)
        if _clean:
            self.coeffs = coeffs
        else:
            out = {}
            for e, c in coeffs.items():
                e = tuple(e)
                if _tot(e) >= trunc or ring.is_zero(c):
                    continue
                if any(f is not None and x < f for x, f in zip(e, self.floors)):
                    continue
                out[e] = c
            self.coeffs = out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, vars, trunc):
        return cls(ring, vars, {}, trunc, _clean=True)

    @classmethod
    def const(cls, ring, vars, value, trunc):
        z = (0,) * len(vars)
        c = {} if ring.is_zero(value) else {z: value}
        return cls(ring, vars, c, trunc, _clean=True)

    @classmethod
    def one(cls, ring, vars, trunc):
        return cls.const(ring, vars, ring.one(), trunc)

    @classmethod
    def var(cls, ring, vars, name, trunc, power=1):
        if name not in vars:
            raise ValueError(f"{name!r} not in {vars}")
        e = tuple(power if v == name else 0 for v in vars)
        return cls(ring, vars, {e: ring.one()}, trunc)

    # -- basics ------------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise OrderingMismatch("coefficient rings differ")
        if self.vars != other.vars:
            raise OrderingMismatch(f"variable orderings differ: {self.vars} vs {other.vars}")

    def coefficient(self, e):
        return self.coeffs.get(tuple(e), self.ring.zero())

    def constant_term(self):
        return self.coefficient((0,) * len(self.vars))

    def is_zero(self):
        return not self.coeffs

    def valuation(self):
        """Minimal total degree of the support (trunc if zero)."""
        if not self.coeffs:
            return self.trunc
        return min(_tot(e) for e in self.coeffs)

    def reliable_at(self, e):
        """Whether the coefficient at exponent vector e is certified."""
        if _tot(e) >= self.trunc:
            return False
        for x, f in zip(e, self.floors):
            if f is not None and x < f:
                return False
        return True

    def _region(self):
        n = len(self.floors)
        if self.floors.count(None) == n:
            return _Region((-inf,) * n, (inf,) * n, self.trunc - 1, True)
        return _Region(tuple(-inf if f is None else f for f in self.floors), (inf,) * n,
                       self.trunc - 1, False)

    def certified(self, e):
        """The coefficient at exponent vector e, which must be certified:
        WindowMiss names e when ``reliable_at(e)`` is false."""
        if not self.reliable_at(e):
            raise WindowMiss(f"cell {tuple(e)} of {self.vars} is not certified "
                             f"(trunc {self.trunc}, floors {self.floors})")
        return self.coefficient(e)

    def _certifies(self, lows, top):
        """Whether every cell at or above ``lows`` of total degree at most
        ``top`` is certified: the region's least cell lies on or above the
        floors, and its greatest total below the truncation."""
        return top < self.trunc and all(
            f is None or lo >= f for lo, f in zip(lows, self.floors))

    def _reader(self, lows, top):
        """A cell reader for reads inside the region of ``_certifies``,
        checked once: the stored dict's ``get`` (None for a zero cell) when
        the element certifies the region, else ``certified``, which raises
        WindowMiss at the first uncertified read as a per-cell read does."""
        return self.coeffs.get if self._certifies(lows, top) else self.certified

    def truncate(self, n):
        """Truncate to total degree n (at most the element's own)."""
        n = min(n, self.trunc)
        coeffs = {e: c for e, c in self.coeffs.items() if _tot(e) < n}
        return type(self)(self.ring, self.vars, coeffs, n, floors=self.floors, _clean=True)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElement)
            and self.ring == other.ring
            and self.vars == other.vars
            and self.trunc == other.trunc
            and self.floors == other.floors
            and self.coeffs == other.coeffs
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        R = self.ring
        r = self._region()._meet(other._region())
        out = sparse_add(R, dict(self.coeffs), other.coeffs.items())
        return type(self)(R, self.vars, out, r.top + 1, floors=r._floors())

    def __neg__(self):
        R = self.ring
        return type(self)(R, self.vars, {e: R.neg(c) for e, c in self.coeffs.items()},
                          self.trunc, floors=self.floors, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        R = self.ring
        r = self._region()._product(other._region(), self.coeffs, other.coeffs)
        out = sparse_mul(R, self.coeffs, other.coeffs, cut=r.top + 1)
        return LaurentElement(R, self.vars, out, r.top + 1, floors=r._floors())

    def scale(self, raw):
        R = self.ring
        out = {}
        for e, c in self.coeffs.items():
            s = R.mul(c, raw)
            if not R.is_zero(s):
                out[e] = s
        return type(self)(R, self.vars, out, self.trunc, floors=self.floors, _clean=True)

    # -- integer powers ----------------------------------------------------

    def leading(self):
        """Leading (revlex-minimal) exponent vector and coefficient."""
        if not self.coeffs:
            raise NotInvertibleError("zero element has no leading term")
        e = min(self.coeffs, key=_revlex_key)
        return e, self.coeffs[e]

    def int_power(self, n, floors=None):
        """f^n in the iterated ring given by the ordering self.vars.

        The result is cut at ``floors`` (default: -trunc per variable for
        n < 0, none for n > 0), which become the reliability floors of the
        output.

        Write f = c*m*(1 + h) with c*m the leading term and t_rel = trunc -
        tot(m) >= 1.  For an exact base (no floors) with a unit c and one or
        two variables, (1 + h)^n is computed at total degree below t_rel by
        J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7), graded
        by the last variable y (y = x in one variable).  Split u = 1 + h =
        sum_k u_k y^k by the y-exponent.  u_0 = 1 + p(x) with p of positive
        x-degree; u_0^n and u_0^-1 come from the same recurrence graded by
        the x-degree, and dividing u by u_0 leaves u_0 = 1.  Euler's operator
        y d/dy applied to u*E(g) = n*g*E(u), g = u^n, then gives
            k * g_k = sum_{i=1..k} ((n+1)*i - k) * u_i * g_{k-i}.
        The sum is formed first and divided by k last, one division per
        cell (Knuth's "form the sum, then divide"), so no product of the
        recurrence meets a denominator that the inputs do not carry, and
        over Z every division is exact (``divide_by_int`` raises on a
        remainder).  Over Z/m, whose residues are ints, the recurrence runs
        over Z (the ring's ``lift``) and the result is reduced mod m.
        Over QQ the inputs are first cleared of their denominators
        (fraction-free, in the spirit of Bareiss): with D the lcm of the
        denominators of h's cells, x -> D*x, y -> D*y is a ring automorphism
        over QQ that keeps supports and multiplies cell e by D^tot(e).  When
        the cells of total degree 0 are integral it makes h integral, hence
        (1 + h)^n integral for every integer n, every product an integer
        product and every division by k exact; each result cell is divided
        by D^tot(e) once at the end, so cells, floors and truncation are
        those of the unscaled run.  Products are cut at total degree t_rel
        and never at a floor, so every g_k is finite and exact.  The
        recurrence stops at the last y-degree with a cell of total degree <
        t_rel above the x floor (n < 0), at n * deg_y(u) (n > 0), or once
        deg_y(u) consecutive g_k vanish, and the result is clipped once at
        the floors.  A floor is reported where the clip removed a stored
        cell, and on x for n < 0 whenever h has terms of total degree 0:
        (1 + h)^n then has cells of total degree 0 below every x floor.

        Every power other than n = 0, and n = 1 without ``floors``, takes
        the recurrence, so the base must fit it: a base with floors raises
        ValueError (its leading term is not certified), and one whose c is
        not a unit raises NotInvertibleError.  ValueError also names the
        other shapes the recurrence does not cover: three or more
        variables, h with a term of negative total degree, and n < 0 with a
        term of total degree 0 in h but no floor on x.
        """
        R = self.ring
        if n == 0:
            return LaurentElement.one(R, self.vars, self.trunc)
        if n == 1 and floors is None:
            return self
        m, c = self.leading()
        if any(f is not None for f in self.floors):
            raise ValueError(f"power {n} of a floored base (floors {self.floors}): "
                             "its leading term is not certified")
        cinv = R.try_invert(c)
        if cinv is NOT_INVERTIBLE:
            raise NotInvertibleError(f"power {n} of a base whose leading coefficient "
                                     f"{R.to_text(c)} is not a unit")
        out, t, out_floors = self._exact_power(n, floors, m, c, cinv)
        return LaurentElement(R, self.vars, out, t, floors=out_floors)

    def power_slices(self, n, kmax):
        """(s_0, ..., s_kmax): the y^j slices of the power f^n, n < 0, for an
        exact two-variable base (x, y) whose leading term c * x^a is free of
        y and has a unit c, as ``CappedSlices``.  Slice j holds the power's
        cells of y-exponent j as an exact one-variable element in x: no
        floor, and the power's truncation minus j.  The recurrence, graded
        by y, stops at grade kmax, so the power itself is never formed.  No
        floor is needed: every term of f / (c * x^a) has total degree >= 0,
        so one of y-exponent k has x-exponent >= -k, and slice j has no
        cell below x^(n * a - j).
        """
        R = self.ring
        m, c = self.leading()
        cinv = R.try_invert(c)
        if (n >= 0 or len(m) != 2 or m[1] or cinv is NOT_INVERTIBLE
                or any(f is not None for f in self.floors)):
            raise ValueError("power slices need n < 0 and an exact two-variable "
                             "base with a unit leading term free of y")
        out, t, _ = self._exact_power(n, (None, None), m, c, cinv, kmax)
        rows = [{} for _ in range(kmax + 1)]
        for (i, j), v in out.items():
            rows[j][(i,)] = v
        return CappedSlices(LaurentElement(R, self.vars[:1], row, t - j, _clean=True)
                            for j, row in enumerate(rows))

    def _exact_power(self, n, floors, m, c, cinv, kmax=None):
        """The cells, truncation and floors of ``int_power(n, floors)`` for
        an exact base with leading term c * x^m, c a unit; with ``kmax``,
        the cells of the last variable's grades 0 ... kmax above m's only,
        which need no floor."""
        R = self.ring
        v = _tot(m)
        t_rel = self.trunc - v  # relative precision above the valuation
        if floors is None:
            floors = (None if n >= 0 else -self.trunc,) * len(self.vars)
        work_floors = tuple(
            None if f is None else f - n * mi for f, mi in zip(floors, m))
        # h = f / (c * monomial m) - 1, terms of positive revlex order
        h_coeffs = {}
        for e, ce in self.coeffs.items():
            e2 = tuple(x - y for x, y in zip(e, m))
            if any(e2):
                h_coeffs[e2] = R.mul(ce, cinv)
        coeffs, acc_floors = _graded_power(R, h_coeffs, n, t_rel, work_floors, kmax)
        # shift by n*m and scale by c^n
        cn = c if n >= 0 else cinv
        cpow = R.one()
        for _ in range(abs(n)):
            cpow = R.mul(cpow, cn)
        shift = tuple(n * x for x in m)
        out = {}
        for e, ce in coeffs.items():
            out[tuple(x + y for x, y in zip(e, shift))] = R.mul(ce, cpow)
        out_floors = tuple(None if af is None else af + s
                           for af, s in zip(acc_floors, shift))
        return out, t_rel + n * v, out_floors

    # -- expansion maps ----------------------------------------------------

    def extend(self, new_vars):
        """View in a larger variable list (new variables get exponent 0);
        the element itself when the list is its own."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        idx = [new_vars.index(v) for v in self.vars]
        out = {}
        for e, c in self.coeffs.items():
            e2 = [0] * len(new_vars)
            for j, x in zip(idx, e):
                e2[j] = x
            out[tuple(e2)] = c
        floors = [None] * len(new_vars)
        for j, f in zip(idx, self.floors):
            floors[j] = f
        return type(self)(self.ring, new_vars, out, self.trunc, floors=tuple(floors))

    def rename(self, new_vars):
        """The same element with its variables renamed position by position,
        sharing the coefficient dict."""
        if len(new_vars) != len(self.vars):
            raise ValueError("rename needs the same arity")
        return type(self)(self.ring, new_vars, self.coeffs, self.trunc,
                          floors=self.floors, _clean=True)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings):
        """Substitute series for variables.

        bindings: {name: image}, every image over one target variable list
        and of positive valuation; unbound variables must be target
        variables and are kept.  The result is cut at t = min(self.trunc,
        every image's trunc), and is a PowerSeries exactly when self and
        every image are one.  An unbound variable, and under a positive
        exponent an image that is one monomial with coefficient one, is an
        exact exponent shift.  Every other image gets one table of its
        powers, cut at t.  A negative power k of a bound image, monomial or not, is
        ``image.int_power(k)``: an image is known only below its trunc, so
        its term is certified below min(t + valuation, trunc) of that power
        and above its floors, which join the result's.  Each monomial
        c * x^e starts as {shift: c}, is multiplied by the powers it needs
        and is accumulated into one dict.

        Refused: a self with floors, and a negative exponent in a self of
        two or more variables (ValueError); an image with floors, of
        valuation < 1 or not invertible where a negative power needs it,
        and an unbound variable missing from the targets
        (IllegalSubstitution); images over different variables or rings
        (OrderingMismatch).
        """
        targets = list(bindings.values())
        if not targets:
            return self
        if any(f is not None for f in self.floors):
            raise ValueError("cannot substitute into an element with floors")
        tvars = targets[0].vars
        R = self.ring
        for g in targets:
            if g.vars != tvars or g.ring != R:
                raise OrderingMismatch("inconsistent substitution targets")
            if g.valuation() < 1:
                raise IllegalSubstitution("substituted series must have positive valuation")
            if any(f is not None for f in g.floors):
                raise IllegalSubstitution("substituted series must have no floors")
        t = min(self.trunc, min(g.trunc for g in targets))
        # per variable: the exponent tuple of a monomial image, or the list
        # [None, g, g^2, ...] of any other image's powers
        images = []
        for v in self.vars:
            g = bindings.get(v)
            if g is None:
                if v not in tvars:
                    raise IllegalSubstitution(f"unbound variable {v!r} missing from target")
                images.append(tuple(int(x == v) for x in tvars))
            elif len(g.coeffs) == 1 and R.eq(next(iter(g.coeffs.values())), R.one()):
                images.append(next(iter(g.coeffs)))
            else:
                images.append([None, {e: c for e, c in g.coeffs.items() if _tot(e) < t}])

        out, inverses = {}, {}
        trunc, known = t, _Region((-inf,) * len(tvars), (inf,) * len(tvars), inf, True)
        for e, c in self.coeffs.items():
            shift = [0] * len(tvars)
            factors = []
            for i, k in enumerate(e):
                if not k:
                    continue
                if k < 0 and len(e) > 1:
                    raise ValueError("negative exponents need a univariate element")
                img = images[i]
                if type(img) is tuple and (k > 0 or self.vars[i] not in bindings):
                    for j, x in enumerate(img):
                        shift[j] += k * x
                elif k > 0:
                    while len(img) <= k:
                        img.append(sparse_mul(R, img[-1], img[1], cut=t))
                    factors.append(img[k])
                else:
                    p = inverses.get(k)
                    if p is None:
                        try:
                            p = inverses[k] = bindings[self.vars[i]].int_power(k)
                        except NotInvertibleError as exc:
                            raise IllegalSubstitution(
                                f"negative powers of {self.vars[i]!r} need an "
                                "invertible image") from exc
                    trunc = min(trunc, t + p.valuation())
                    known = known._meet(p._region())
                    factors.append(p.coeffs)
            s = sum(shift)
            if s >= t:
                continue
            term = {tuple(shift): c}
            if not factors:
                sparse_add(R, out, term.items())
                continue
            for f in factors[:-1]:
                term = sparse_mul(R, term, f, cut=t)
            sparse_mul(R, term, factors[-1], cut=t, out=out)
        if all(isinstance(g, PowerSeries) for g in (self, *targets)):
            return PowerSeries(R, tvars, out, t, _clean=True)
        return LaurentElement(R, tvars, out, min(trunc, known.top + 1), floors=known._floors())

    # -- evaluation and extraction -----------------------------------------

    def diagonal_eval(self, out_var=None):
        """f(z, z) for a two-variable element; certifies finiteness."""
        if len(self.vars) != 2:
            raise ValueError("diagonal_eval needs exactly two variables")
        if any(f is not None for f in self.floors):
            # missing coefficients below a floor could pile up on the diagonal
            raise DiagonalDivergence("truncated tails prevent a finite diagonal sum")
        R = self.ring
        name = out_var or self.vars[0]
        out = sparse_add(R, {}, (((i + j,), c) for (i, j), c in self.coeffs.items()))
        return LaurentElement(R, (name,), out, self.trunc, _clean=True)

    def residue_coeff(self, name, factor=None):
        """Coefficient of name^{-1} in self * factor; a LaurentElement in the
        remaining vars.

        ``factor`` is an optional one-variable element p(name).  Exponent
        -1 - k of self pairs with p_k and nothing else, so each term of self
        is read once and the product is never formed.  Truncation, floors,
        cells and ``WindowMiss`` are those of ``(self *
        factor.extend(self.vars)).residue_coeff(name)``: both take the
        region of the one product rule, so the floor on name rises by p's
        largest exponent.
        """
        i = self.vars.index(name)
        R = self.ring
        t, floors, pk = self.trunc, self.floors, None
        if factor is not None:
            if factor.vars != (name,):
                raise ValueError(f"factor must be univariate in {name!r}")
            p = factor.extend(self.vars)
            self._check(p)
            r = self._region()._product(p._region(), self.coeffs, p.coeffs)
            t, floors, pk = r.top + 1, r._floors(), factor.coeffs
        require_residue_cell(self.vars, i, t, floors)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = []
        for e, c in self.coeffs.items():
            if pk is None:
                if e[i] != -1:
                    continue
            else:
                pc = pk.get((-1 - e[i],))
                # a product cell of total degree >= t is dropped by the
                # result's truncation t + 1 in the remaining variables
                if pc is None:
                    continue
                c = R.mul(c, pc)
            terms.append((e[:i] + e[i + 1:], c))
        out = sparse_add(R, {}, terms)
        if not rest:
            return LaurentElement.const(R, (), out.get((), R.zero()), t + 1)
        return LaurentElement(R, rest, out, t + 1, floors=floors[:i] + floors[i + 1:])

    def scalar(self):
        """The value of a zero-variable element."""
        if self.vars:
            raise ValueError("not a scalar element")
        return self.coeffs.get((), self.ring.zero())

    def derivative(self, name):
        i = self.vars.index(name)
        R = self.ring
        out = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            d = R.mul(c, R.from_int(e[i]))
            if R.is_zero(d):
                continue
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = d
        floors = tuple(
            (f - 1 if j == i and f is not None else f)
            for j, f in enumerate(self.floors))
        return type(self)(R, self.vars, out, self.trunc - 1, floors=floors)

    def __repr__(self):
        terms = []
        for e in sorted(self.coeffs, key=lambda e: (_tot(e), e)):
            mono = "*".join(f"{v}^{k}" for v, k in zip(self.vars, e) if k) or "1"
            terms.append(f"({self.ring.to_text(self.coeffs[e])})*{mono}")
        body = " + ".join(terms[:12]) or "0"
        if len(terms) > 12:
            body += f" + [{len(terms) - 12} more]"
        return f"<{body} | trunc {self.trunc}, floors {self.floors}>"


class PowerSeries(LaurentElement):
    """A LaurentElement with nonnegative exponents and no floors: a
    truncated power series over an exact ring."""

    __slots__ = ()

    def __init__(self, ring, vars, coeffs, trunc, floors=None, _clean=False):
        if floors is not None and any(f is not None for f in floors):
            raise ValueError(f"a PowerSeries has no floors, got {tuple(floors)}")
        if not _clean:
            for e in coeffs:
                if min(e, default=0) < 0:
                    raise ValueError(f"negative exponent {tuple(e)} in PowerSeries")
        super().__init__(ring, vars, coeffs, trunc, _clean=_clean)

    def __mul__(self, other):
        """The floor-free product of two power series; any other operand
        takes the LaurentElement product, floors and all."""
        if not isinstance(other, PowerSeries):
            return LaurentElement.__mul__(self, other)
        self._check(other)
        R = self.ring
        t = self._region()._product(other._region(), self.coeffs, other.coeffs).top + 1
        out = sparse_mul(R, self.coeffs, other.coeffs, cut=t)
        return PowerSeries(R, self.vars, out, t, _clean=True)

    def integrate(self, name):
        """Termwise primitive with zero constant term; needs divisibility by n."""
        i = self.vars.index(name)
        R = self.ring
        out = {}
        for e, c in self.coeffs.items():
            e2 = e[:i] + (e[i] + 1,) + e[i + 1:]
            out[e2] = R.divide_by_int(c, e[i] + 1)
        return PowerSeries(R, self.vars, out, self.trunc + 1, _clean=False)

    # -- inversion, composition --------------------------------------------

    def invert_unit(self):
        """Inverse of a series with invertible constant term: the power
        f^-1 of ``LaurentElement.int_power``, Miller's recurrence, at f's
        truncation.  Over the zero ring the zero series is its own inverse."""
        if self.ring.try_invert(self.constant_term()) is NOT_INVERTIBLE:
            raise NotInvertibleError("constant term is not a unit")
        if not self.coeffs:
            return self
        g = self.int_power(-1)
        return PowerSeries(self.ring, self.vars, g.coeffs, g.trunc, _clean=True)

    def comp_inverse(self):
        """Compositional inverse g with f(g) = g(f) = id, found degree by
        degree: g_1 = 1 / f'(0), and in each degree d >= 2 the coefficient
        sum_k f_k [z^d] g^k of f(g) must vanish (``solve_by_degree``)."""
        if len(self.vars) != 1:
            raise ValueError("comp_inverse needs a univariate series")
        R = self.ring
        if not R.is_zero(self.constant_term()):
            raise IllegalSubstitution("comp_inverse needs f(0) = 0")
        c1inv = R.try_invert(self.coefficient((1,)))
        if c1inv is NOT_INVERTIBLE:
            raise NotInvertibleError("f'(0) is not a unit")
        g = solve_by_degree(R, [(0, k, c) for (k,), c in self.coeffs.items()],
                            c1inv, c1inv, self.trunc)
        return PowerSeries(R, self.vars, {(d,): c for d, c in g.items()}, self.trunc)

    def sqrt(self):
        """Square root with constant term 1; needs 2 invertible."""
        R = self.ring
        if not R.eq(self.constant_term(), R.one()):
            raise NotInvertibleError("sqrt needs constant term 1")
        two_inv = R.try_invert(R.from_int(2))
        if two_inv is NOT_INVERTIBLE:
            raise NotInvertibleError("sqrt needs 2 invertible in the ring")
        t = self.trunc
        g = PowerSeries.one(R, self.vars, t)
        # Newton: g <- g - (g^2 - f) / (2g); here 1/(2g) via invert_unit
        while True:
            r = (g * g).truncate(t) - self
            if r.is_zero():
                break
            half = (g + g).invert_unit()
            g = g - (r * half).truncate(t)
        return g

    # -- conversions -------------------------------------------------------

    def as_laurent(self):
        """The same element as a plain LaurentElement, sharing the
        coefficient dict."""
        return LaurentElement(self.ring, self.vars, self.coeffs, self.trunc, _clean=True)


class CappedSlices(tuple):
    """The slices s_0, ..., s_cap of a power by its last variable.  Only
    these grades were computed, so indexing any other grade raises
    WindowMiss rather than reading a slice that is not there."""

    __slots__ = ()

    def __getitem__(self, j):
        if type(j) is int and not 0 <= j < len(self):
            raise WindowMiss(f"slice {j} lies outside the computed grades "
                             f"0..{len(self) - 1}")
        return tuple.__getitem__(self, j)


def _unit_power(R, parts, n, cut, kmax=None):
    """The graded pieces g_0, g_1, ... of u^n for u = sum_i u_i, u_0 = 1.

    ``parts[i]`` is u_i, a sparse map over exponents of grade i, and
    ``parts[0]`` is the single cell 1 (so g_0 = 1 too); products are cut
    at total degree ``cut``.  g_k follows from the recurrence in
    ``LaurentElement.int_power``: the sum k * g_k is formed with integer
    scalars and divided by k once per cell, so over an integral u every
    product is integral and only the quotient can have a denominator.
    Stops after g_kmax, or once as many consecutive g_k vanish as u has
    grades, since every later g_k then vanishes too.
    """
    top = len(parts) - 1
    g = [parts[0]]
    k = empty = 0
    while empty < top and (kmax is None or k < kmax):
        k += 1
        kgk = {}
        for i in range(1, min(k, top) + 1):
            coef = (n + 1) * i - k
            if coef and parts[i] and g[k - i]:
                s = R.from_int(coef)
                sparse_mul(R, {e: R.mul(c, s) for e, c in parts[i].items()},
                           g[k - i], cut=cut, out=kgk)
        gk = {e: R.divide_by_int(c, k) for e, c in kgk.items()}
        g.append(gk)
        empty = 0 if gk else empty + 1
    return g


def common_denominator(R, values):
    """The lcm of the denominators of ``values``."""
    return lcm(*map(R.denominator, values))


def scale_by_degree(R, coeffs, D, shift=0):
    """{e: c * D^(tot(e) + shift)}: the cells of D^shift * f(D*x, D*y, ...)
    for the cells of f; every tot(e) + shift must be >= 0."""
    s = R.from_int(D)
    pw = [R.one()]
    out = {}
    for e, c in coeffs.items():
        t = _tot(e) + shift
        while len(pw) <= t:
            pw.append(R.mul(pw[-1], s))
        out[e] = R.mul(c, pw[t])
    return out


def _graded_power(R, h, n, t_rel, work_floors, kcap=None):
    """(1 + h)^n for an exact one- or two-variable h whose terms have total
    degree >= 0, cut at total degree t_rel and clipped at ``work_floors``;
    returns the cells and the floors (see ``LaurentElement.int_power``).
    With ``kcap`` (n < 0, no floors) the recurrence stops at the last
    variable's grade kcap; each grade k is finite without a floor, since a
    term of grade k has x-exponent >= -k."""
    arity = len(work_floors)
    if arity > 2:
        raise ValueError(f"no power recurrence in {arity} variables")
    if any(_tot(e) < 0 for e in h):
        raise ValueError("the base has a term of lower total degree "
                         "than its leading term")
    # for n < 0, terms of total degree 0 leave cells of total degree 0 at
    # every depth in x, so the x floor always cuts something
    tail = n < 0 and any(_tot(e) == 0 for e in h)
    if tail and work_floors[0] is None and kcap is None:
        raise ValueError("a negative power of a base with a term of "
                         "its leading term's total degree needs a floor on "
                         "the dominant variable")
    W = R.lift
    # clear denominators: with D the lcm of the denominators of h's cells,
    # x -> D*x, y -> D*y maps h to an integral h~ when the cells of total
    # degree 0 (which it leaves alone) are integral, so (1 + h~)^n is
    # integral and the recurrence below runs on integers
    D = common_denominator(W, h.values())
    if D > 1 and any(W.denominator(c) > 1 for e, c in h.items() if not _tot(e)):
        D = 1
    if D > 1:
        h = scale_by_degree(W, h, D)
    one = {(0,) * arity: W.one()}
    top = max((e[-1] for e in h), default=0)
    parts = [{} for _ in range(top + 1)]
    for e, c in h.items():
        parts[e[-1]][e] = c
    p0, parts[0] = parts[0], one
    if kcap is not None:
        kmax = kcap
    elif n > 0:
        kmax = n * top
    elif tail:
        # the last y-degree with a cell of total < t_rel above the x floor
        kmax = max(0, t_rel - 1 - work_floors[0])
    else:
        kmax = None  # every factor raises the total degree
    if p0:
        # u_0 = 1 + p(x): u^n = u_0^n * (u / u_0)^n, where u_0^n and u_0^-1
        # come from the same recurrence graded by the x-degree
        px = [one] + [{}] * (t_rel - 1)
        for e, c in p0.items():
            if e[0] < t_rel:
                px[e[0]] = {e: c}
        inv, u0n = ({e: c for gk in _unit_power(W, px, k, t_rel, kmax=t_rel - 1)
                     for e, c in gk.items()} for k in (-1, n))
        parts[1:] = [sparse_mul(W, inv, u, cut=t_rel) for u in parts[1:]]
    coeffs = {e: c for gk in _unit_power(W, parts, n, t_rel, kmax=kmax)
              for e, c in gk.items()}
    if p0:
        coeffs = sparse_mul(W, u0n, coeffs, cut=t_rel)
    if W is not R:
        coeffs = sparse_add(R, {}, ((e, R.from_int(c)) for e, c in coeffs.items()))
    out_floors = [None] * arity
    for i, f in enumerate(work_floors):
        if f is None:
            continue
        cut = [e for e in coeffs if e[i] < f]
        for e in cut:
            del coeffs[e]
        if cut or (i == 0 and tail):
            out_floors[i] = f
    if D > 1:
        # map back, x -> x/D and y -> y/D: one division per cell
        pw = [D ** t for t in range(t_rel)]
        coeffs = {e: R.divide_by_int(c, pw[_tot(e)]) for e, c in coeffs.items()}
    return coeffs, tuple(out_floors)


def solve_by_degree(R, terms, g1, unit, t):
    """The coefficients {d: g_d}, d < t, of the series g = g1*z + g2*z^2 + ...
    for which sum c * z^i * g^j over the (i, j, c) of ``terms`` vanishes in
    every degree d >= 2, where the (0, 1) term's coefficient is 1 / unit.

    In degree d, g_d enters the sum only through that term, so g_d = -r *
    unit for the degree-d coefficient r of the sum taken with g_d = 0.  The
    powers of g are kept as {degree: coefficient} maps and gain their
    degree-d coefficients as each degree lands: g^k has valuation >= k, so
    [z^d] g^k = sum_{j=1..d-k+1} g_j [z^(d-j)] g^(k-1) needs nothing of
    degree d for k >= 2, and a step costs O(d^2) ring operations (Brent and
    Kung, J. ACM 25, 1978).
    """
    g = {1: g1}
    pows = [{0: R.one()}, g]
    for d in range(2, t):
        pows.append({})
        for k in range(2, d + 1):
            prev = pows[k - 1]
            s = R.zero()
            for j in range(1, d - k + 2):
                a = g.get(j)
                b = prev.get(d - j) if a else None
                if b:
                    s = R.add(s, R.mul(a, b))
            if s:
                pows[k][d] = s
        r = R.zero()
        for i, j, c in terms:
            b = pows[j].get(d - i) if i + j <= d else None
            if b:
                r = R.add(r, R.mul(c, b))
        if r:
            g[d] = R.neg(R.mul(r, unit))
    return g


def separable_sum(E, L, t):
    """The cells {(a, b): c}, a + b < t, of E(L(z) + L(w)) for univariate
    power series E and L with L(0) = 0, both known below t, formed from the
    one-variable powers L^i alone.

    With S = L(z) + L(w), S^k = sum_i C(k, i) L(z)^i L(w)^(k-i), so
        F_ab = sum_i [L^i]_a * B_i[b],  B_i = sum_j C(i+j, i) E_(i+j) L^j.
    L^i has valuation >= i, so a cell needs only i <= a and j <= b, and
    the sum is symmetric in (z, w): the cells with a <= b are formed, from
    i <= (t - 1) // 2 and B_i cut below t - i, and mirrored.  Each product
    is of two one-variable coefficients; no series in two or three
    variables is formed.  Zero sums are dropped (``sparse_add``).
    """
    if t > min(E.trunc, L.trunc):
        raise ValueError(f"E and L are not known below {t}")
    R = L.ring
    if not R.is_zero(L.constant_term()):
        raise ValueError("separable_sum needs L(0) = 0")
    mul = R.mul
    lc = [(k, c) for (k,), c in L.coeffs.items()]
    ec = {k: c for (k,), c in E.coeffs.items()}
    # pows[i] = {a: [L^i]_a}, a < t; L^i vanishes below a = i
    pows = [{0: R.one()}]
    while len(pows) < t and pows[-1]:
        pows.append(sparse_add(R, {}, ((a + k, mul(x, c)) for a, x in pows[-1].items()
                                       for k, c in lc if a + k < t)))
    out = {}
    for i in range(min(len(pows), (t + 1) // 2)):
        bi = {}
        for j in range(min(len(pows), t - i)):
            e = ec.get(i + j)
            if e:
                e = mul(e, R.from_int(comb(i + j, i)))
                sparse_add(R, bi, ((b, mul(e, y)) for b, y in pows[j].items() if b < t - i))
        sparse_add(R, out, (((a, b), mul(x, y)) for a, x in pows[i].items()
                            for b, y in bi.items() if a <= b and a + b < t))
    out.update({(b, a): c for (a, b), c in out.items()})
    return out


def comb_any(n, k):
    """Binomial coefficient C(n, k) for any integer n and k >= 0."""
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    # C(n, k) = (-1)^k C(k - n - 1, k)
    return (-1) ** k * comb(k - n - 1, k)


class BilateralWindow:
    """A finite coefficient box for a bilateral series, certified on one
    ``_Region``: the box's per-variable (lo, hi) intervals, a greatest
    certified total degree ``top`` (``math.inf`` when the box alone bounds
    it) and ``stated``, true when every cell below the box lows is zero, so
    that the lows bound the series' support, as a floor of None does for a
    ``LaurentElement``, instead of merely cutting the view.  Coefficients
    are only stored inside the region.
    """

    __slots__ = ("ring", "vars", "coeffs", "region")

    def __init__(self, ring, vars, coeffs, box, top=inf, stated=False, _clean=False):
        self.ring = ring
        self.vars = tuple(vars)
        lows, highs = zip(*box)
        self.region = _Region(lows, highs, top, stated)
        if _clean:
            self.coeffs = coeffs
        else:
            inside = self.region._contains
            self.coeffs = {tuple(e): c for e, c in coeffs.items()
                           if not ring.is_zero(c) and inside(e)}

    @staticmethod
    def from_laurent(f, box):
        """Window view of a LaurentElement on a requested box: the meet of
        the box with f's region, so the floors clip the box and no cell of
        total degree f.trunc or more is certified."""
        lows, highs = zip(*box)
        r = _Region(lows, highs, inf, False)._meet(f._region())
        return BilateralWindow(f.ring, f.vars, f.coeffs, r._box(), r.top, r.stated)

    def _check(self, other):
        if self.ring != other.ring or self.vars != other.vars:
            raise OrderingMismatch("window mismatch")

    def __add__(self, other):
        self._check(other)
        r = self.region._meet(other.region)
        out = sparse_add(self.ring, dict(self.coeffs), other.coeffs.items())
        return BilateralWindow(self.ring, self.vars, out, r._box(), r.top, r.stated)

    def __neg__(self):
        R, r = self.ring, self.region
        return BilateralWindow(R, self.vars, {e: R.neg(c) for e, c in self.coeffs.items()},
                               r._box(), r.top, r.stated, _clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, g):
        """The one product of a window and a series: g has no floors and is
        known below total degree ``g.trunc`` (``math.inf`` when exact), over
        the window's ring or the scalars of a window of states, on the
        region of ``_Region._product``.
        """
        if isinstance(g, BilateralWindow):
            raise NonConvergentProduct("product of two bilateral series is undefined")
        R = self.ring
        scalars = R.base if R.kind == "state-module" else R
        if g.ring not in (R, scalars) or g.vars != self.vars:
            raise OrderingMismatch("window/factor mismatch")
        if any(f is not None for f in g.floors):
            raise NonConvergentProduct("factor must have certain finite support")
        r = self.region._product(g._region(), self.coeffs, g.coeffs)
        return BilateralWindow(R, self.vars, sparse_mul(R, self.coeffs, g.coeffs),
                               r._box(), r.top, r.stated)

    def is_zero_on_window(self):
        """Whether no cell of the region is nonzero; EmptyWindow when the
        region holds no cell."""
        if self.region._empty():
            raise EmptyWindow(f"no surviving window: {self.region._box()}")
        return not self.coeffs

    def __repr__(self):
        r = self.region
        return (f"<window {self.vars} box {r._box()} top {r.top}"
                f"{', stated' if r.stated else ''} ({len(self.coeffs)} terms)>")
