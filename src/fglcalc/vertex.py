"""Vertex algebras over a formal group law: shift operators, partial field
maps, axiom checkers, and the Lie bracket on the shift quotient.

States are sparse polynomials in creation generators, stored as dicts mapping
a sorted tuple of negative mode indices to an exact rational coefficient (a
raw value of the rationals ring: an int, or a Fraction when not integral).
The field map Y is deliberately partial: it is declared on the vacuum and on
the single-generator state only, and everything downstream either works
inside that domain or raises YUndefined.  See the README for the one place
where this partiality has mathematical consequences (field-level skew
symmetry can fail away from the additive law, and the antisymmetry checker
accounts for that exactly instead of papering over it).
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from itertools import chain

from .calculus import (Report, _compare, _fail, _inverse_expansions, _tower_cell,
                       f_residue, hyperderivative, product_residue)
from .ring import Ring, sparse_add
from .series import BilateralWindow, WindowMiss


class YUndefined(Exception):
    pass


class NeedsField(Exception):
    pass


class MismatchBug(Exception):
    pass


class NotFound(Exception):
    def __init__(self, bound):
        super().__init__(f"no commutativity order found up to {bound}")
        self.bound = bound


# -- states -----------------------------------------------------------------
#
# A state is {monomial: QQ raw value} where a monomial is a sorted tuple of
# negative integers (mode indices of the creation operators applied to the
# vacuum); () is the vacuum monomial.  Scalars go through _QQ, so states keep
# the ring's canonical form (an int whenever the value is integral).

_QQ = Ring.rationals()


def st_add(s1, s2):
    return sparse_add(_QQ, dict(s1), s2.items())


def st_addmul(acc, s, c):
    """acc += c * s in place, dropping every sum that becomes zero; returns
    acc.  c is a raw value of the rationals ring."""
    mul = _QQ.mul
    return sparse_add(_QQ, acc, ((k, mul(v, c)) for k, v in s.items()))


def st_scale(s, c):
    c = _QQ.from_fraction(c)
    if not c:
        return {}
    mul = _QQ.mul
    return {k: mul(v, c) for k, v in s.items()}


def st_neg(s):
    return {k: -v for k, v in s.items()}


def st_sub(s1, s2):
    return st_add(s1, st_neg(s2))


def state_weight(s):
    """Largest weight among the monomials (0 for the zero state)."""
    return max((mono_weight(m) for m in s), default=0)


def mono_weight(m):
    # non-integer labels (the fixture's nilpotent) carry weight zero
    return -sum(i for i in m if isinstance(i, int))


def b_apply(n, s):
    """Mode operator: multiply by the generator (n < 0), n * d/d(gen) (n > 0),
    zero for n = 0."""
    out = {}
    for mono, c in s.items():
        if n < 0:
            st_addmul(out, {tuple(sorted(mono + (n,))): 1}, c)
        elif n > 0:
            cnt = mono.count(-n)
            if cnt:
                lst = list(mono)
                lst.remove(-n)
                st_addmul(out, {tuple(lst): n * cnt}, c)
    return out


def state_to_json(s):
    return [{"mono": list(m), "coeff": str(c)}
            for m, c in sorted(s.items(), key=lambda kv: (mono_weight(kv[0]), kv[0]))]


def state_text(s):
    if not s:
        return "0"
    parts = []
    for m, c in sorted(s.items(), key=lambda kv: (mono_weight(kv[0]), kv[0])):
        mono = "*".join(f"b({i})" if isinstance(i, int) else str(i)
                        for i in m) or "vac"
        parts.append(f"({c})*{mono}")
    return " + ".join(parts)


class StateSpace:
    """The module of states as a ring-like adapter, so that BilateralWindow
    and LaurentElement can hold state coefficients.

    Values are states.  The one product is ``mul(state, c)`` with c a raw
    scalar of the base ring: it is all that a series of states times a
    scalar series (a power of the law, say) asks for, and the module has no
    one and no product of two states.  ``to_text`` also prints a scalar, for
    failure reports that quote a non-state value.
    """

    kind = "state-module"

    def __init__(self, base):
        self.base = base

    def __eq__(self, other):
        return isinstance(other, StateSpace) and self.base == other.base

    def __repr__(self):
        return f"StateSpace({self.base!r})"

    def zero(self):
        return {}

    def is_zero(self, a):
        return not a

    def add(self, a, b):
        return st_add(a, b)

    def neg(self, a):
        return st_neg(a)

    def mul(self, state, c):
        return st_scale(state, c)

    def eq(self, a, b):
        return a == b

    def to_text(self, a):
        if isinstance(a, dict):
            return state_text(a)
        return self.base.to_text(a)


# -- algebras ---------------------------------------------------------------


class VertexFAlgebra:
    """Common interface: a law, a vacuum, a shift operator, a partial Y.

    Subclasses provide shift(n, state), y_defined(a), y_coeff(a, c, k), a
    finite monomial basis up to W and W, the one weight cap of the
    quotient, the bracket and the axiom windows.
    """

    def __init__(self, law):
        self.law = law
        self.ring = law.ring
        self.adapter = StateSpace(law.ring)
        self.vacuum = {(): 1}

    @cached_property
    def quotient(self):
        """The ``ShiftQuotient`` at weight cap W, built on first use."""
        return ShiftQuotient(self)

    def y_field(self, a, c, kmax):
        """{k: coefficient of z^k in Y(a,z)c} for k up to kmax (finite below)."""
        out = {}
        for k in range(self.y_kmin(a, c), kmax + 1):
            v = self.y_coeff(a, c, k)
            if v:
                out[k] = v
        return out


# the creation modes of the Heisenberg algebra at weight cap W are b(-1),
# ..., b(-K) with K = min(MAX_MODE, W)
MAX_MODE = 6


class HeisenbergAlgebra(VertexFAlgebra):
    """Polynomial Fock space on creation modes b(-1), ..., b(-K), K =
    min(MAX_MODE, W).

    The shift operator is determined inductively from S(z) fixing the vacuum
    and the conjugation relation S(z) b(w) = b(F(z,w)) S(z); written in
    components against a monomial state b_m s this gives

        S^(n)(b_m s) = sum_{k<=n} sum_j beta_j(k, m) b_j S^(n-k)(s),

    where beta_j(k, m) is the z^k w^(-m-1) coefficient of the w-dominant
    expansion of F(z,w)^(-j-1).  (The commutator form of the relation is not
    self-consistent at z^0; see the README note on the shift relation.)
    Annihilation insertions b_j with j > weight(s) act as zero, which keeps
    the sum finite.  Y is defined on the span of the vacuum and b(-1)vac,
    with Y(b(-1)vac, z) the generator field sum_n b_n z^(-n-1).
    """

    def __init__(self, law, W=6):
        if law.ring.kind != "rationals":
            raise NeedsField("Heisenberg construction needs rational coefficients")
        if law.trunc < 3 * W:
            raise ValueError(
                f"law truncation {law.trunc} too small for weight cap {W}; "
                f"need at least {3 * W}")
        super().__init__(law)
        self.K = min(MAX_MODE, W)
        self.W = W
        self._smono = {}
        self.generator = {(-1,): 1}
        # precompute the shift images of the weight basis; these rows are the
        # spanning set for the quotient modulus and the per-weight matrices
        for mono in self.basis_monomials():
            for n in range(0, W + 1):
                self._shift_mono(n, mono)

    # -- shift coefficients --------------------------------------------------

    def beta(self, j, k, m):
        """z^k w^(-m-1) coefficient of the w-dominant expansion of F^(-j-1).

        F is symmetric, so this is the z^(-m-1) w^k cell of the z-dominant
        entry in the law's power table."""
        return self.law.power(-j - 1).certified((-m - 1, k))

    # -- basis ---------------------------------------------------------------

    def basis_monomials(self):
        """Monomials of weight <= W with parts at most K, weight-then-lex order."""
        W = self.W
        out = [()]
        seen = {()}
        frontier = [()]
        while frontier:
            nxt = []
            for m in frontier:
                low = m[0] if m else -1
                for j in range(-1, max(low, -self.K) - 1, -1):
                    cand = tuple(sorted(m + (j,)))
                    if mono_weight(cand) <= W and cand not in seen:
                        seen.add(cand)
                        out.append(cand)
                        nxt.append(cand)
            frontier = nxt
        out.sort(key=lambda m: (mono_weight(m), m))
        return out

    # -- shift ---------------------------------------------------------------

    def _shift_mono(self, n, mono):
        key = (n, mono)
        if key in self._smono:
            return self._smono[key]
        if not mono:
            r = {(): 1} if n == 0 else {}
            self._smono[key] = r
            return r
        m = mono[0]
        rest = tuple(mono[1:])
        out = {}
        for k in range(n + 1):
            sub = self._shift_mono(n - k, rest)
            if not sub:
                continue
            for j in range(m - n - 1, state_weight(sub) + 1):
                if j == 0:
                    continue
                c = self.beta(j, k, m)
                if c:
                    st_addmul(out, b_apply(j, sub), c)
        self._smono[key] = out
        return out

    def shift(self, n, s):
        out = {}
        for mono, c in s.items():
            st_addmul(out, self._shift_mono(n, mono), c)
        return out

    def shift_matrix(self, n):
        """Rows {input monomial: output state} of S^(n) on the weight basis."""
        return {mono: self._shift_mono(n, mono) for mono in self.basis_monomials()}

    # -- the partial field map ----------------------------------------------

    def y_defined(self, a):
        return all(m in ((), (-1,)) for m in a)

    def _split(self, a):
        if not self.y_defined(a):
            raise YUndefined(f"Y not declared on {state_text(a)}")
        return a.get((), 0), a.get((-1,), 0)

    def y_kmin(self, a, c):
        self._split(a)
        return -state_weight(c) - 1

    def y_coeff(self, a, c, k):
        """Coefficient of z^k in Y(a,z)c."""
        alpha, beta = self._split(a)
        out = {}
        if alpha and k == 0:
            st_addmul(out, c, alpha)
        if beta:
            st_addmul(out, b_apply(-k - 1, c), beta)
        return out

    def samples(self):
        return [self.vacuum, self.generator]


class TrivialAlgebra(VertexFAlgebra):
    """Axiom-checker fixture: the base ring plus one square-zero nilpotent.

    States are r*vac + s*eps with eps^2 = 0, Y(a,z)b = (S(z)a) * b, and the
    honest shift is the identity (S^(0) = id, higher components zero), making
    every axiom hold with N = M = 0.  It has no monomial basis, so it is
    not a Lie-axiom input.  A subclass whose ``shift`` breaks this is how
    the tests check that the axiom checkers localize a fault.
    """

    EPS = ("e",)
    W = 4

    def __init__(self, law):
        if law.ring.kind != "rationals":
            raise NeedsField("fixture uses exact rational states")
        super().__init__(law)
        self.eps = {self.EPS: 1}

    def mul(self, a, b):
        a0, a1 = a.get((), 0), a.get(self.EPS, 0)
        b0, b1 = b.get((), 0), b.get(self.EPS, 0)
        out = {}
        mul = _QQ.mul
        if a0 and b0:
            out[()] = mul(a0, b0)
        s = _QQ.add(mul(a0, b1), mul(a1, b0))
        if s:
            out[self.EPS] = s
        return out

    def shift(self, n, s):
        return dict(s) if n == 0 else {}

    def y_defined(self, a):
        return True

    def y_kmin(self, a, c):
        return 0

    def y_coeff(self, a, c, k):
        if k < 0:
            return {}
        return self.mul(self.shift(k, a), c)

    def samples(self):
        return [self.vacuum,
                st_add(self.vacuum, self.eps),
                {self.EPS: 2}]


# -- quotient and Lie bracket -------------------------------------------------


class ShiftQuotient:
    """Reduced row form of the span of all S^(n)(V), n >= 1, up to weight W.

    Coordinates are monomials ordered by (weight, lex); reduction against the
    pivot rows yields a canonical representative, so class equality is plain
    dict equality of representatives.
    """

    def __init__(self, A):
        if A.ring.kind != "rationals":
            raise NeedsField("quotient reduction needs a field")
        self.A = A
        rows = []
        for mono in A.basis_monomials():
            st = {mono: 1}
            for n in range(1, A.W + 1):
                img = A.shift(n, st)
                if img:
                    rows.append(img)
        self.pivots = {}
        for row in rows:
            self._insert(row)

    def _lead(self, s):
        return min(s, key=lambda m: (mono_weight(m), m))

    def _insert(self, row):
        row = self.reduce_raw(row)
        if not row:
            return
        lead = self._lead(row)
        row = st_scale(row, _QQ.try_invert(row[lead]))
        # back-substitute into existing pivot rows to keep the form reduced
        for piv, prow in list(self.pivots.items()):
            c = prow.get(lead, 0)
            if c:
                st_addmul(prow, row, -c)
        self.pivots[lead] = row

    def reduce_raw(self, s):
        out = dict(s)
        while out:
            hit = None
            for m in out:
                if m in self.pivots:
                    hit = m
                    break
            if hit is None:
                break
            st_addmul(out, self.pivots[hit], -out[hit])
        return out

    def reduce(self, s):
        return LieClass(self.reduce_raw(s), self)

    def rank(self):
        return len(self.pivots)


class LieClass:
    """A canonical representative in V modulo the shift image span."""

    def __init__(self, rep, quotient):
        self.rep = rep
        self.quotient = quotient

    def is_zero(self):
        return not self.rep

    def __eq__(self, other):
        return isinstance(other, LieClass) and self.rep == other.rep

    def __add__(self, other):
        return self.quotient.reduce(st_add(self.rep, other.rep))

    def __repr__(self):
        return f"LieClass({state_text(self.rep)})"


def quotient_reduce(A, state):
    return A.quotient.reduce(state)


def bracket_raw(A, a, b):
    """Res^F Y(a,z)b: the z^(-1) coefficient of Y(a,z)b * p_F(z)."""
    return _residue_of_field(A.law, A.y_field(a, b, -1))


def lie_bracket(A, a, b):
    return quotient_reduce(A, bracket_raw(A, a, b))


def shifted_bracket_series(A, a, b, mmax):
    """w-coefficients of Res^F_z Y(a, F(z,w))b dz for 0 <= m <= mmax.

    The w^m coefficient realizes [S^(m)a, b] through translation covariance;
    the theorem's descent property says these vanish for m >= 1, and the m=0
    entry is the plain bracket.  It is the sum over k of the z^k coefficient
    of Y(a,z)b times [w^m] Res^F_z F(z,w)^k, each residue one ``f_residue``
    of the law's power.  Only k < 0 contributes: for k >= 0, F(z,w)^k is a
    power series, whose z-residue is exactly zero at every truncation.
    """
    law = A.law
    out = [{} for _ in range(mmax + 1)]
    for k in range(A.y_kmin(a, b), 0):
        yk = A.y_coeff(a, b, k)
        if not yk:
            continue
        res = f_residue(law, law.power(k))
        for m in range(k + 1, mmax + 1):
            r = res.certified((m,))
            if r:
                st_addmul(out[m], yk, r)
    return out


def field_skew_defect(A, a, b):
    """Coefficients of Y(a,z)b - S(z) Y(b, iota(z))a on the z-range up to
    emax = W + 1.

    Returns (defect dict e -> state, emin, emax).  A zero defect on the range
    is the field-level skew symmetry; nonzero entries are reported, not
    hidden, because the bracket antisymmetry argument runs through this
    identity.  iota = -z + O(z^2) has no term of its leading term's total
    degree but that term, so each power iota^k is exact.
    """
    law = A.law
    emax = A.W + 1
    kmin_ab = A.y_kmin(a, b)
    kmin_ba = A.y_kmin(b, a)
    emin = min(kmin_ab, kmin_ba)
    iota = law.iota.as_laurent()
    H = {}
    for k in range(kmin_ba, emax + 1):
        yk = A.y_coeff(b, a, k)
        if not yk:
            continue
        ip = iota.int_power(k)
        for e in range(max(k, emin), emax + 1):
            c = ip.certified((e,))
            if c:
                st_addmul(H.setdefault(e, {}), yk, c)
    defect = {}
    for e in range(emin, emax + 1):
        rhs = {}
        for n in range(0, e - emin + 1):
            hf = H.get(e - n)
            if hf:
                st_addmul(rhs, A.shift(n, hf), 1)
        d = st_sub(A.y_coeff(a, b, e), rhs)
        if d:
            defect[e] = d
    return defect, emin, emax


def _residue_of_field(law, coeffs):
    """Res^F of a z-series given as {exponent: state} (certified below -1):
    the state-valued F-residue, beside ``calculus.f_residue`` for series.
    The term at z^e meets p_F's z^(-1-e) cell, read through ``certified``,
    so a term past p_F's truncation raises WindowMiss."""
    out = {}
    for e, s in coeffs.items():
        if e > -1:
            continue
        c = law.pF.certified((-1 - e,))
        if c:
            st_addmul(out, s, c)
    return out


# descent is checked on the w^m coefficients 1 <= m <= LIE_MMAX
LIE_MMAX = 4


def lie_axiom_check(A):
    """Descent, the proof's Jacobi variant, and antisymmetry of the bracket.

    Antisymmetry [a,b] + [b,a] = 0 is asserted on pairs whose field-level
    skew defect vanishes; on every pair (including defective ones) the exact
    transfer identity class([a,b] + [b,a]) = class(Res^F defect) is checked,
    which is what the skew axiom actually contributes to the theorem.  The
    defective pairs are listed in the report.
    """
    samples = A.samples()
    law = A.law
    name = law.name
    Q = A.quotient

    # descent: [S^(m)a, b] = 0 exactly; [a, S^(m)b] lands in the modulus on
    # pairs satisfying shift conjugation (the second-slot argument moves the
    # shift through Y, which is exactly what a conjugation defect breaks)
    conj_skipped = []
    for i, a in enumerate(samples):
        for j, b in enumerate(samples):
            series = shifted_bracket_series(A, a, b, LIE_MMAX)
            if series[0] != bracket_raw(A, a, b):
                return Report("lie/descent_base", name, {"m": 0},
                              _fail(A.adapter, None, series[0],
                                    bracket_raw(A, a, b)))
            conj_ok = shift_conjugation_defect(A, a, b)
            if not conj_ok:
                conj_skipped.append([i, j])
            for m in range(1, LIE_MMAX + 1):
                if series[m]:
                    return Report("lie/descent", name, {"m": m},
                                  _fail(A.adapter, None, series[m], {}))
                shifted = A.shift(m, b)
                if not conj_ok or not shifted:
                    continue
                if not Q.reduce(bracket_raw(A, a, shifted)).is_zero():
                    return Report("lie/descent_second", name, {"m": m},
                                  _fail(A.adapter, None,
                                        bracket_raw(A, a, shifted), {}))

    # antisymmetry, scoped by the field-level skew defect
    defect_pairs = []
    clean_pairs = 0
    for i, a in enumerate(samples):
        for j, b in enumerate(samples):
            defect, emin, emax = field_skew_defect(A, a, b)
            anti = st_add(bracket_raw(A, a, b), bracket_raw(A, b, a))
            transfer = _residue_of_field(law, defect)
            if Q.reduce(anti) != Q.reduce(transfer):
                return Report("lie/skew_transfer", name, {"pair": [i, j]},
                              _fail(A.adapter, None, anti, transfer))
            if defect:
                defect_pairs.append([i, j])
            else:
                clean_pairs += 1
                if not Q.reduce(anti).is_zero():
                    return Report("lie/antisymmetry", name, {"pair": [i, j]},
                                  _fail(A.adapter, None, anti, {}))

    # Jacobi variant [a,[b,c]] - [b,[a,c]] = -[[b,a],c]
    triples = 0
    for a in samples:
        for b in samples:
            for c in samples:
                ba = bracket_raw(A, b, a)
                if not A.y_defined(ba):
                    raise YUndefined(
                        f"inner bracket {state_text(ba)} outside the Y domain")
                lhs = st_sub(bracket_raw(A, a, bracket_raw(A, b, c)),
                             bracket_raw(A, b, bracket_raw(A, a, c)))
                rhs = st_neg(bracket_raw(A, ba, c))
                if Q.reduce(lhs) != Q.reduce(rhs):
                    return Report("lie/jacobi_variant", name, None,
                                  _fail(A.adapter, None, lhs, rhs))
                triples += 1
    return Report("lie_axioms", name, {"W": A.W, "mmax": LIE_MMAX},
                  details={"triples": triples,
                           "antisymmetry_pairs": clean_pairs,
                           "skew_defect_pairs": defect_pairs,
                           "conjugation_defect_pairs": conj_skipped,
                           "modulus_rank": Q.rank()})


# -- state-valued windows -----------------------------------------------------
#
# Every checker below reduces to finite grids of states: the cell values are
# exact (each one is a finite sum of mode applications), so the windows carry
# max_total=None and certification comes purely from the requested box.


def _op_products(A, a, b, c, jtop, itop):
    """The nonzero cells (i, j) of Y(a,z) Y(b,w) c, the z^i coefficient of
    Y(a,z) applied to the w^j coefficient of Y(b,w)c, for j <= jtop and
    i <= itop(j); with the least i (capped at 0) and the least j.

    Y(b,z) Y(a,w) c is the call with a and b swapped, its keys transposed.
    """
    jlo = A.y_kmin(b, c)
    ilo = 0
    cells = {}
    for j in range(jlo, jtop + 1):
        inner = A.y_coeff(b, c, j)
        if not inner:
            continue
        kmin = A.y_kmin(a, inner)
        ilo = min(ilo, kmin)
        for i in range(kmin, itop(j) + 1):
            v = A.y_coeff(a, inner, i)
            if v:
                cells[(i, j)] = v
    return cells, ilo, jlo


def shift_grid(A, fdict, box, supported=False):
    """S(w) applied to a z-series of states {e: state}: cell (e+0, n).
    ``supported`` states that fdict has no cell below the box's z-low."""
    (zlo, zhi), (wlo, whi) = box
    coeffs = {}
    for e, s in fdict.items():
        for n in range(max(0, wlo), whi + 1):
            if not (zlo <= e <= zhi):
                continue
            v = A.shift(n, s)
            if v:
                coeffs[(e, n)] = v
    return BilateralWindow(A.adapter, ("z", "w"), coeffs,
                           [(zlo, zhi), (max(0, wlo), whi)], supported=supported,
                           _clean=True)


def y_at_group_law_grid(A, a, series, box, tot_cap=None, supported=False):
    """i_{z,w} Y(a, F(z,w)) applied to a w-series of states {n: state}.

    series must hold every w-coefficient with index <= box w-top.  Cell
    (i,j) collects y_coeff(a, series[n], k) * [F^k]_(i, j-n) over the finite
    range n <= j, k <= i+j-n; the z-dominant power table certifies each
    lookup or raises WindowMiss.  tot_cap skips box cells above that total
    degree and records the cap as the window's max_total, which keeps deep
    box corners from demanding power cells beyond the truncation.
    ``supported`` states that the box lows bound the support.
    """
    (zlo, zhi), (wlo, whi) = box
    coeffs = {}
    for n, s in series.items():
        if n > whi or not s:
            continue
        kmin = A.y_kmin(a, s)
        ktop = zhi + whi - n if tot_cap is None else tot_cap - n
        for k in range(kmin, ktop + 1):
            yk = A.y_coeff(a, s, k)
            if not yk:
                continue
            # default floors of a negative power reach -trunc; deeper box
            # lows ask for the floor explicitly
            deep = k < 0 and zlo < -A.law.trunc
            g = A.law.power(k, floors=(zlo, None) if deep else None)
            for i in range(zlo, zhi + 1):
                for j in range(max(wlo, n), whi + 1):
                    if i + j - n < k:
                        continue
                    if tot_cap is not None and i + j > tot_cap:
                        continue
                    cf = g.certified((i, j - n))
                    if cf:
                        st_addmul(coeffs.setdefault((i, j), {}), yk, cf)
    coeffs = {e: v for e, v in coeffs.items() if v}
    return BilateralWindow(A.adapter, ("z", "w"), coeffs, box, tot_cap, supported,
                           _clean=True)


SHIFT_CONJUGATION_BOX = ((-8, 4), (0, 4))


def shift_conjugation_defect(A, a, b):
    """Window discrepancy of S(w) Y(a,z)b against i_{z,w} Y(a,F(z,w)) S(w)b
    on SHIFT_CONJUGATION_BOX.

    Returns whether the two agree.  This is the meromorphicity identity that
    the bracket's second-argument descent and the c = vacuum associativity
    route rely on; it can genuinely fail for the partial generator field away
    from the additive law, so callers scope their conclusions by it.
    """
    box = SHIFT_CONJUGATION_BOX
    lhs = shift_grid(A, A.y_field(a, b, box[0][1]), box)
    series = {n: A.shift(n, b) for n in range(0, box[1][1] + 1)}
    rhs = y_at_group_law_grid(A, a, series, box)
    return lhs.agrees_with(rhs)[0]


def _escaped_lowest_part(diff, box):
    """First cell of the lowest total-degree diagonal when that diagonal sits
    strictly inside the box top, else None.

    Both grids feeding ``diff`` capture every true cell componentwise below
    the box highs, so contributions to any box cell come from stored cells
    only.  If the lowest diagonal stays strictly inside the top edges, the
    extreme coefficient of F^N times that diagonal lands at a box cell for
    every N up to the remaining headroom, and for larger N the support has
    merely been pushed past the top edge.  Either way no F^N multiple can
    vanish on the box, so a window "pass" would be an artifact.  A diagonal
    touching the top edge is the genuinely bilateral situation (delta-like
    discrepancies enter the box from outside) and window semantics stand.
    """
    if not diff.coeffs:
        return None
    d = min(i + j for (i, j) in diff.coeffs)
    p = [cell for cell in diff.coeffs if sum(cell) == d]
    (_, zhi), (_, whi) = diff.reliable
    if max(i for i, _ in p) < zhi and max(j for _, j in p) < whi:
        return min(p)
    return None


def _w_route_grid(A, inner, c, box):
    """Y(Y(a,z)b, w)c from the inner field {e: a_e b}: the w-dominant route.

    Uses the creation consequence Y(x,w)vac = S(w)x when c is a vacuum
    multiple; otherwise applies Y directly and raises YUndefined if an inner
    coefficient leaves the partial domain.  The box lows must bound the
    support: the z-low lies at or below every inner exponent, and the w-low
    at or below every nonzero cell of each Y(s, w)c; the window states it.
    """
    (zlo, zhi), (wlo, whi) = box
    if all(m == () for m in c):
        scale = c.get((), 0)
        return shift_grid(A, {e: st_scale(s, scale) for e, s in inner.items()},
                          box, supported=True)
    coeffs = {}
    for e, s in inner.items():
        if not A.y_defined(s):
            raise YUndefined(
                f"coefficient {state_text(s)} of the inner field is outside "
                "the Y domain and c is not a vacuum multiple")
        for j in range(max(wlo, A.y_kmin(s, c)), whi + 1):
            v = A.y_coeff(s, c, j)
            if v:
                coeffs[(e, j)] = v
    return BilateralWindow(A.adapter, ("z", "w"), coeffs, box, supported=True,
                           _clean=True)


# highs of the weak-associativity comparison box, whose cells reach total
# degree sum(top), so the law must be certified below sum(top) + 1; highs of
# the weak-commutativity box; and the largest power of F(z, w) or of
# F(z, iota w) that their annihilation order searches try
WEAK_ASSOCIATIVITY_TOP = (4, 4)
WEAK_COMMUTATIVITY_TOP = (4, 4)
MAX_ORDER = 8


def weak_associativity_order(A, a, b, c):
    """Minimal N with F(z,w)^N (Y(Y(a,z)b,w)c) = F^N i_{z,w}Y(a,F(z,w))Y(b,w)c.

    The left side needs Y on the coefficients of Y(a,z)b; when c is a
    multiple of the vacuum the creation consequence Y(x,w)vac = S(w)x is used
    instead, which stays inside the partial domain.  The comparison box has
    highs WEAK_ASSOCIATIVITY_TOP and its lows are derived from the true
    support bounds of both routes (total degree for the group-law route),
    which both windows state, so the F^N factor keeps the box whole.
    Returns (N, None) on success and (None, first_bad_cell) when no
    N <= MAX_ORDER works.
    """
    top = WEAK_ASSOCIATIVITY_TOP
    inner = A.y_field(a, b, top[0])
    rhs = _group_route_grid(A, a, b, c, top,
                            zlo=min(min(inner, default=0), A.y_kmin(a, b)))
    box = rhs.reliable
    diff = _w_route_grid(A, inner, c, box) - rhs
    bad = _escaped_lowest_part(diff, box)
    if bad is not None:
        return None, bad
    return _annihilation_order(diff, A.law.power)


def _annihilation_order(diff, power):
    """(N, None) for the least N <= MAX_ORDER with power(N) * diff zero on
    the window, else (None, the least cell of diff).  power(N) is a scalar
    element with no floors."""
    for N in range(0, MAX_ORDER + 1):
        prod = diff if N == 0 else diff.mul_laurent(power(N))
        if prod.is_zero_on_window():
            return N, None
    return None, min(diff.coeffs)


def axiom_check(A, which):
    """One of the four defining axioms, certified on finite windows of the
    algebra's samples, up to z^(W + 1) and F^MAX_ORDER for weak
    associativity."""
    samples = A.samples()
    law = A.law
    name = law.name
    kmax = A.W + 1

    if which == "vacuum_creation":
        for a in samples:
            fld = A.y_field(a, A.vacuum, kmax)
            for e, s in fld.items():
                if e < 0 and s:
                    return Report("axiom/vacuum_creation", name, {"kmax": kmax},
                                  _fail(A.adapter, ("z", e), s, {}))
            if fld.get(0, {}) != a:
                return Report("axiom/vacuum_creation", name, {"kmax": kmax},
                              _fail(A.adapter, ("z", 0), fld.get(0, {}), a))
            for k in range(A.y_kmin(A.vacuum, a), kmax + 1):
                want = a if k == 0 else {}
                if A.y_coeff(A.vacuum, a, k) != want:
                    return Report("axiom/vacuum_creation", name, {"kmax": kmax},
                                  _fail(A.adapter, ("id", k),
                                        A.y_coeff(A.vacuum, a, k), want))
        return Report("axiom/vacuum_creation", name, {"kmax": kmax},
                      details={"samples": len(samples)})

    if which == "translation_covariance":
        for s in samples:
            if A.shift(0, s) != s:
                return Report("axiom/translation_covariance", name, {"part": "S(0)"},
                              _fail(A.adapter, None, A.shift(0, s), s))
        for n in range(1, kmax + 1):
            if A.shift(n, A.vacuum):
                return Report("axiom/translation_covariance", name,
                              {"part": "vacuum", "n": n},
                              _fail(A.adapter, None, A.shift(n, A.vacuum), {}))
        # the shift group law, matrix-exactly on the sample states
        for s in samples:
            for p in range(0, kmax + 1):
                for q in range(0, kmax + 1 - p):
                    got = A.shift(p, A.shift(q, s))
                    want = {}
                    for n in range(0, p + q + 1):
                        cf = law.power(n).certified((p, q))
                        if cf:
                            st_addmul(want, A.shift(n, s), cf)
                    if got != want:
                        return Report("axiom/translation_covariance", name,
                                      {"part": "group_law", "exps": [p, q]},
                                      _fail(A.adapter, (p, q), got, want))
        # covariance Y(S(w)a, z)b against the group-law substitution; falls
        # back to the creation consequence Y(a,z)vac = S(z)a when shifted
        # samples leave the Y domain
        full = 0
        consequence = 0
        box = ((-kmax - 2, 3), (0, 3))
        for a in samples:
            shifted = {n: A.shift(n, a) for n in range(0, box[1][1] + 1)}
            if all(A.y_defined(s) or not s for s in shifted.values()):
                for b in samples:
                    coeffs = {}
                    for n, sa in shifted.items():
                        if not sa:
                            continue
                        for i in range(max(box[0][0], A.y_kmin(sa, b)),
                                       box[0][1] + 1):
                            v = A.y_coeff(sa, b, i)
                            if v:
                                coeffs[(i, n)] = v
                    lhs = BilateralWindow(A.adapter, ("z", "w"), coeffs, box,
                                          _clean=True)
                    rhs = y_at_group_law_grid(A, a, {0: b}, box)
                    rep = _compare("axiom/translation_covariance", name, lhs, rhs,
                                   {"part": "covariance"})
                    if not rep.ok:
                        return rep
                    full += 1
            else:
                fld = A.y_field(a, A.vacuum, kmax)
                for n in range(0, kmax + 1):
                    if fld.get(n, {}) != A.shift(n, a):
                        return Report("axiom/translation_covariance", name,
                                      {"part": "creation_consequence", "n": n},
                                      _fail(A.adapter, ("w", n), fld.get(n, {}),
                                            A.shift(n, a)))
                consequence += 1
        return Report("axiom/translation_covariance", name, {"kmax": kmax},
                      details={"full_pairs": full,
                               "creation_consequence_samples": consequence})

    if which == "weak_associativity":
        worst = 0
        for a in samples:
            if not A.y_defined(a):
                continue
            for b in samples:
                for c in samples:
                    try:
                        N, bad = weak_associativity_order(A, a, b, c)
                    except YUndefined:
                        continue
                    if N is None:
                        return Report("axiom/weak_associativity", name,
                                      {"Nmax": MAX_ORDER},
                                      _fail(A.adapter, bad, "nonzero", {}))
                    worst = max(worst, N)
        return Report("axiom/weak_associativity", name, {"Nmax": MAX_ORDER},
                      details={"minimal_N": worst})

    if which == "skew_symmetry":
        defects = []
        for i, a in enumerate(samples):
            for j, b in enumerate(samples):
                d, emin, emax = field_skew_defect(A, a, b)
                if d:
                    defects.append({"pair": [i, j],
                                    "first_exponent": min(d)})
        if defects:
            return Report("axiom/skew_symmetry", name, {"kmax": kmax},
                          {"fail": {"defect_pairs": defects}})
        return Report("axiom/skew_symmetry", name, {"kmax": kmax},
                      details={"pairs": len(samples) ** 2})

    raise ValueError(f"unknown axiom {which!r}")


def weak_commutativity_order(A, a, b, c):
    """Minimal M <= MAX_ORDER such that F(z, iota w)^M kills the ordering
    discrepancy of Y(a,z)Y(b,w)c on a box with highs WEAK_COMMUTATIVITY_TOP.
    Both grids are complete down to the box lows, and state it."""
    zhi, whi = WEAK_COMMUTATIVITY_TOP
    g1c, zlo1, wlo1 = _op_products(A, a, b, c, whi, lambda j: zhi)
    g2t, wlo2, zlo2 = _op_products(A, b, a, c, zhi, lambda i: whi)
    box = ((min(zlo1, zlo2), zhi), (min(wlo1, wlo2), whi))
    g1 = BilateralWindow(A.adapter, ("z", "w"), g1c, box, supported=True, _clean=True)
    g2 = BilateralWindow(A.adapter, ("z", "w"), {(i, j): v for (j, i), v in g2t.items()},
                         box, supported=True, _clean=True)
    diff = g1 - g2
    if _escaped_lowest_part(diff, box) is None:
        M, _ = _annihilation_order(diff, partial(A.law.power, twisted=True))
        if M is not None:
            return M
    raise NotFound(MAX_ORDER)


# -- meromorphicity -----------------------------------------------------------


class MeromorphicityPair:
    """The common Laurent series F^N i_{z,w}Y(a,F(z,w))Y(b,w)c with its
    coherence checks.

    checks entries are Reports; a value of None means the check needed a Y
    value outside the partial domain and was skipped (recorded, not hidden).
    """

    def __init__(self, p, N, law, checks):
        self.p = p
        self.N = N
        self.law = law
        self.checks = checks

    @property
    def ok(self):
        return all(r is None or r.ok for r in self.checks.values())

    def to_json(self):
        """The law, N and the check reports; the window p is not serialized."""
        return {
            "law": self.law,
            "N": self.N,
            "checks": {k: (None if r is None else r.to_json())
                       for k, r in self.checks.items()},
        }


def _group_route_grid(A, a, b, c, top, tot_cap=None, zlo=None):
    """i_{z,w} Y(a, F(z,w)) Y(b,w)c on a box sized so the lows are true
    support bounds (total degree min over the series, spread to the w-top),
    its z-low taken down to ``zlo`` when that is lower; the window states
    them."""
    zhi, whi = top
    series = A.y_field(b, c, whi)
    min_tot = min((n + A.y_kmin(a, s) for n, s in series.items()), default=-1)
    wlo = min(0, min(series, default=0))
    lo = min_tot - whi if zlo is None else min(min_tot - whi, zlo)
    return y_at_group_law_grid(A, a, series, ((lo, zhi), (wlo, whi)),
                               tot_cap=tot_cap, supported=True)


# highs of the operator_product comparison box of meromorphicity_pair
MEROMORPHICITY_TOP = (3, 3)


def meromorphicity_pair(A, a, b, c):
    """p_{a,b,c} = F^N times the group-law route, with its coherence checks.

    N is the weak commutativity order (the annihilation order of the
    ordering discrepancy, which is what makes the fraction p / F^N well
    defined).  Three checks are run:

      n_independence     p_{N+1} agrees with p_N * F on the box;
      w_dominant         F^N Y(Y(a,z)b,w)c reproduces p (the other
                         expansion); skipped (None) when the inner states
                         leave the Y domain and c is not a vacuum multiple;
      operator_product   the substitution z -> F(v, iota w) divided by v^N
                         reproduces Y(a,v)Y(b,w)c cell by cell.

    MEROMORPHICITY_TOP bounds the comparison box of the operator_product
    check; the p grid itself is computed on a wider box so every
    substitution cell is a certified finite sum.
    """
    N = weak_commutativity_order(A, a, b, c)
    law = A.law
    name = law.name
    vhi, whi = MEROMORPHICITY_TOP
    kbc = A.y_kmin(b, c)
    # substitution cells (u, j2) need p cells with w <= whi and
    # z <= u + N + whi - j, so size the p grid accordingly
    ztop = vhi + N + whi - min(0, kbc)
    g = _group_route_grid(A, a, b, c, (ztop, whi))
    box = g.reliable
    p = g if N == 0 else g.mul_laurent(law.power(N))
    checks = {}

    p_up = g.mul_laurent(law.power(N + 1))
    p_mul = p.mul_laurent(law.power(1))
    checks["n_independence"] = _compare("meromorphicity/n_independence", name,
                                        p_up, p_mul, {"N": N}, {"N": N})

    try:
        inner = A.y_field(a, b, box[0][1])
        lhs = _w_route_grid(A, inner, c, box)
        lhsN = lhs if N == 0 else lhs.mul_laurent(law.power(N))
        checks["w_dominant"] = _compare("meromorphicity/w_dominant", name,
                                        lhsN, p, {"N": N}, {"N": N})
    except YUndefined:
        checks["w_dominant"] = None

    checks["operator_product"] = _substituted_p_check(A, a, b, c, p, N)
    return MeromorphicityPair(p, N, name, checks)


def _substituted_p_check(A, a, b, c, p, N):
    """i_{v,w} p(F(v, iota w), w) * v^{-N} against Y(a,v)Y(b,w)c.

    Since F(F(v, iota w), w) = v, this is the statement that the fraction
    p / F^N recovers the operator product in the v-dominant expansion.  Each
    output cell is a finite sum: the substituted power F(v, iota w)^i has
    nonnegative w-exponents and total degree at least i.
    """
    law = A.law
    R = A.ring
    name = law.name
    vhi, whi = MEROMORPHICITY_TOP
    kbc = A.y_kmin(b, c)
    vlo = min(e[0] for e in p.coeffs) - N if p.coeffs else -N
    cmp_box = ((vlo, vhi), (kbc, whi))
    cells, _, _ = _op_products(A, a, b, c, whi, lambda j: vhi)
    direct = BilateralWindow(A.adapter, ("z", "w"), cells, cmp_box)

    coeffs = {}
    mt = p.max_total
    for (i, j), pij in p.coeffs.items():
        P = law.power(i, twisted=True)
        for u in range(vlo, vhi + 1):
            e1 = u + N
            for j2 in range(max(kbc, j), whi + 1):
                e = (e1, j2 - j)
                if e1 + (j2 - j) < i:
                    continue
                cf = P.certified(e)
                if R.is_zero(cf):
                    continue
                st_addmul(coeffs.setdefault((u, j2), {}), pij, cf)
    coeffs = {e: v for e, v in coeffs.items() if v}
    # same variable labels as the direct grid (v plays the role of z there)
    sub = BilateralWindow(A.adapter, ("z", "w"), coeffs, cmp_box,
                          max_total=None if mt is None else mt - N)
    return _compare("meromorphicity/operator_product", name, sub, direct,
                    {"N": N}, {"N": N})


# -- the three-term delta Jacobi identity for Y -------------------------------


def jacobi_identity_check(A, a, b, c, B=4):
    """The three-term F-delta Jacobi identity for Y on the box [-B, B]^3.

    In variables (z0, z1, z2):

        i_{z1,z0} z2^{-1} d_F(F(z1,i z0)/z2) Y(Y(a,z0)b, z2)c
          = i_{z1,z2} z0^{-1} d_F(F(z1,i z2)/z0) Y(a,z1)Y(b,z2)c
          - i_{z2,z1} z0^{-1} d_F(F(z1,i z2)/z0) Y(b,z2)Y(a,z1)c.

    The right side is contracted directly against the Y products.  The
    iterated composition on the left is not defined for a partial Y, so the
    left side is given its meaning through the meromorphic kernel: with
    phi(z0,z1,z2) = p_{a,b,c}(z0,z2) / z1^N the left term is the delta tower
    applied to phi, which is what the identity's proof reduces it to.  Every
    output cell is a certified finite sum: each Y product or kernel cell is
    contracted against one delta-tower cell, the ``calculus._tower_cell``
    sum that the scalar ``f_jacobi_delta_check`` uses too; each distinct
    (out-exponent, cell, ordering) is summed once.  The powers of
    F(z, iota w) are certified below top + 1 and no deeper, top the largest
    total degree of a cell the loops read; a bound too low raises
    ``WindowMiss`` in ``certified`` rather than passing.  The kernel must
    be componentwise bounded below in z0 for the contraction to terminate,
    and a violation is reported as a failure of meromorphicity.
    """
    law = A.law
    name = law.name
    cap = 3 * B + 1
    da, db = _inverse_expansions(law)
    delta = da - db

    g1, _, _ = _op_products(A, a, b, c, B, lambda j: cap - j)
    g2t, _, _ = _op_products(A, b, a, c, B, lambda j: cap - j)
    # the right side subtracts the second ordering's cells
    g2 = {(j1, j2): st_neg(v) for (j2, j1), v in g2t.items()}
    N = weak_commutativity_order(A, a, b, c)
    # kernel cells above this total cannot reach the output box: the delta
    # tower only holds cells of total degree -1 and up
    cap_p = 3 * B + N + 1
    # the w-top of the kernel grid must reach every cell of total <= cap_p,
    # which needs the kernel's global z-low; that low is exactly what
    # meromorphicity asserts, so find it by widening until it stabilizes
    wtop = cap_p + 2
    zmin = None
    p = None
    for _ in range(5):
        g = _group_route_grid(A, a, b, c, (B, wtop), tot_cap=cap_p - N)
        p = g if N == 0 else g.mul_laurent(law.power(N))
        low = min((e[0] for e in p.coeffs
                   if sum(e) <= cap_p), default=0)
        if low == zmin and cap_p - min(low, 0) + 2 <= wtop:
            break
        zmin = low
        wtop = max(wtop, cap_p - min(low, 0) + 2)
    else:
        return Report("vertex/jacobi", name, [[-B, B]] * 3,
                      {"fail": {"reason":
                                "kernel z-support not bounded below",
                                "z_min_seen": zmin}})
    if p.max_total is not None and p.max_total < cap_p:
        raise WindowMiss(
            f"kernel certified only to total {p.max_total}, need {cap_p}")

    # the largest total degree of a power cell the loops below read: every
    # e_k <= B, the right side reads (e1 - j1, e2 - j2) with e2 >= j2 (g1)
    # or e1 >= j1 (g2), the left side (e1 + N, e0 - i) with e0 >= i
    top = 2 * B - min(chain((j1 + j2 for j1, j2 in g1 if j2 <= B),
                            (j1 + j2 for j1, j2 in g2 if j1 <= B),
                            (i - N for i, j in p.coeffs if i <= B and i + j <= cap_p)),
                      default=0)
    # u^n is replaced by a power of F(z, iota w) in either dominance
    # ordering, certified below total degree top + 1 and no deeper
    powers = [cache(partial(law.power, twisted=True, dominant=d, trunc=top + 1))
              for d in (0, 1)]

    @cache
    def tower_cell(m, cell, dominant):
        return _tower_cell(delta, powers[dominant], m, cell)

    def add_tower_cell(acc, state, m, cell, dominant=0):
        r = tower_cell(m, cell, dominant)
        if r:
            st_addmul(acc, state, r)

    cells = 0
    for e0 in range(-B, B + 1):
        for e1 in range(-B, B + 1):
            for e2 in range(-B, B + 1):
                rhs = {}
                for (j1, j2), v in g1.items():
                    if e2 >= j2:
                        add_tower_cell(rhs, v, e0, (e1 - j1, e2 - j2))
                for (j1, j2), v in g2.items():
                    if e1 >= j1:
                        add_tower_cell(rhs, v, e0, (e1 - j1, e2 - j2), 1)
                lhs = {}
                for (i, j), pij in p.coeffs.items():
                    if e0 >= i and i + j <= cap_p:
                        add_tower_cell(lhs, pij, e2 - j, (e1 + N, e0 - i))
                if lhs != rhs:
                    return Report("vertex/jacobi", name, [[-B, B]] * 3,
                                  _fail(A.adapter, (e0, e1, e2), lhs, rhs))
                cells += 1
    return Report("vertex/jacobi", name, [[-B, B]] * 3,
                  details={"cells": cells, "N": N})


# -- the cocycle ---------------------------------------------------------------


def heisenberg_cocycle(law, f, g):
    """Central-extension cocycle on Laurent polynomials: Res^F (S_1 f) g.

    Computed both as the F-residue of the first hyperderivative of f times g
    and as the classical residue of f' g; the two agree because S_1 f times
    the invariant differential is f'(z) dz, so a disagreement means a bug,
    not a mathematical failure.
    """
    if len(f.vars) != 1 or len(g.vars) != 1:
        raise ValueError("cocycle arguments must be univariate")

    fz = f.rename(("z",))
    gz = g.rename(("z",))
    s1 = hyperderivative(law, fz, 1)
    lhs = product_residue(s1, gz, law.pF.rename(("z",)).as_laurent())
    rhs = fz.derivative("z").residue_coeff("z", gz).scalar()
    if not law.ring.eq(lhs, rhs):
        raise MismatchBug(
            f"cocycle routes disagree: {law.ring.to_text(lhs)} vs "
            f"{law.ring.to_text(rhs)}")
    return lhs
