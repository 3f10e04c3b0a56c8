"""Group-law calculus: deformed binomial coefficients, delta distributions,
twisted residues, and hyperderivatives.

Everything here is certified on finite windows: a check passes only when the
identity holds coefficient-exactly on a non-empty reliable region, and the
report records that region.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import product
from math import inf

from .fgl import times_line_power
from .ring import sparse_add, sparse_mul
from .series import BilateralWindow, LaurentElement, WindowMiss, require_residue_cell


class NonConvergentSubstitution(Exception):
    pass


class Report:
    """Outcome of one identity check on one law.  Two reports are equal when
    all their fields are."""

    def __init__(self, identity, law, window, status="pass", details=None):
        self.identity = identity
        self.law = law
        self.window = window
        self.status = status
        self.details = {} if details is None else details

    def __eq__(self, other):
        return isinstance(other, Report) and vars(self) == vars(other)

    @property
    def ok(self):
        return self.status == "pass"

    def to_json(self):
        d = {
            "identity": self.identity,
            "law": self.law,
            "window": self.window,
            "status": self.status,
        }
        if self.details:
            d["details"] = self.details
        return d


def _fail(ring, monomial, lhs, rhs):
    return {"fail": {
        "monomial": list(monomial) if isinstance(monomial, tuple) else monomial,
        "lhs": ring.to_text(lhs),
        "rhs": ring.to_text(rhs),
    }}


def _compare(identity, name, lhs, rhs, window=None, details=None):
    """The Report of lhs = rhs, compared cell by cell where both certify.

    Both sides are compared on the meet of their certified regions.  For
    two BilateralWindows (EmptyWindow when the meet is empty) a pass reports
    the surviving box with ``details``, by default the number of cells
    compared (``window_size``); a fail reports ``window``, by default the
    surviving box.  For two LaurentElements both outcomes report ``window``;
    a pair whose certified regions do not meet certifies nothing and fails
    with "no certified cells", and a cell where both sides are certified
    zero counts as certified.  The fail status names the least differing
    exponent with both sides' coefficients there.
    """
    R = lhs.ring
    meet = lhs._region()._meet(rhs._region())
    if isinstance(lhs, BilateralWindow):
        ok, bad, box = lhs.agrees_with(rhs)
        surv = [list(r) for r in box]
        if ok:
            if details is None:
                details = {"window_size": meet._size()}
            return Report(identity, name, surv, details=details)
        if window is None:
            window = surv
    else:
        if meet._empty():
            return Report(identity, name, window,
                          {"fail": {"reason": "no certified cells"}})
        bad = next((e for e in sorted(set(lhs.coeffs) | set(rhs.coeffs))
                    if meet._contains(e)
                    and not R.eq(lhs.coefficient(e), rhs.coefficient(e))), None)
        if bad is None:
            return Report(identity, name, window, details=details or {})
    zero = R.zero()
    return Report(identity, name, window,
                  _fail(R, bad, lhs.coeffs.get(bad, zero), rhs.coeffs.get(bad, zero)))


# -- F-binomial coefficients ----------------------------------------------


class FBinomialTable:
    """Coefficients of the two-variable expansions F(z,w)^n, n in [-nmax, nmax].

    entry(n, i, j) is the coefficient of z^i w^j in the expansion where z
    dominates; entries outside the certified region raise WindowMiss.
    ``override`` maps (n, i, j) to a corrupted value for fault testing; it
    is folded into copies of the slices it touches, never into the law's
    power table.
    """

    def __init__(self, law, nmax=4, override=None):
        self.law = law
        self.nmax = nmax
        self.slices = {n: law.power(n) for n in range(-nmax, nmax + 1)}
        for (n, i, j), v in (override or {}).items():
            s = self.slices[n]
            self.slices[n] = LaurentElement(s.ring, s.vars, {**s.coeffs, (i, j): v},
                                            s.trunc, floors=s.floors, _clean=True)

    def entry(self, n, i, j):
        return self.slices[n].certified((i, j))


def f_binomial(law, n):
    """The (i,j) -> coefficient map of the z-dominant expansion of F^n."""
    return dict(law.power(n).coeffs)


def _row_spans(s, rows):
    """[(lo, hi)] for j < rows: the z-exponents i whose cell (i, j) slice s
    certifies, from its z floor up to trunc - 1 - j (empty below its w
    floor)."""
    zf, wf = s.floors
    lo = -inf if zf is None else zf
    return [(lo, s.trunc - 1 - j) if wf is None or j >= wf else (inf, -inf)
            for j in range(rows)]


def f_binomial_identities(law, nmax=3, smax=4, override=None):
    """Vanishing, Kronecker j=0 column, symmetry, and convolution checks.

    The j=0 column is tested against the Kronecker delta in n (the natural
    reading; see the package docs for the index-naming caveat).  `override`
    injects corrupted entries for fault testing.  A symmetry pair is checked
    when its transposed cell is certified too.  A convolution cell is
    checked when every entry of its sum is certified: each row of the sum is
    a run of z-exponents, which must lie in that row's certified span
    (``_row_spans``, one per slice and row); the cells are then read
    directly.
    """
    table = FBinomialTable(law, nmax=2 * nmax, override=override)
    R = law.ring
    name = law.name
    checked = 0

    for n in range(-nmax, nmax + 1):
        s = table.slices[n]
        for (i, j), v in s.coeffs.items():
            if (j < 0 or i + j < n) and not R.is_zero(v):
                return Report("f_binomial/vanishing", name, f"|n|<={nmax}",
                              _fail(R, (n, i, j), v, R.zero()))
        # j = 0 column: delta in n
        for i in range(max(-6, s.floors[0] if s.floors[0] is not None else -6), 7):
            if not s.reliable_at((i, 0)):
                continue
            want = R.one() if i == n else R.zero()
            got = table.entry(n, i, 0)
            if not R.eq(got, want):
                return Report("f_binomial/kronecker", name, f"|n|<={nmax}",
                              _fail(R, (n, i, 0), got, want))
            checked += 1
        if n >= 0:
            for (i, j), v in s.coeffs.items():
                if not s.reliable_at((j, i)):
                    continue
                w = s.coefficient((j, i))
                if not R.eq(v, w):
                    return Report("f_binomial/symmetry", name, f"0<=n<={nmax}",
                                  _fail(R, (n, i, j), v, w))
                checked += 1

    # convolution: entry(m+n, r, s) = sum over i+k=r, j+l=s
    spans = {n: _row_spans(table.slices[n], smax + 1) for n in range(-nmax, nmax + 1)}
    for m in range(-nmax, nmax + 1):
        xs = table.slices[m]
        for n in range(-nmax, nmax + 1):
            ys = table.slices[n]
            for s in range(0, smax + 1):
                for r in range(m + n - s, m + n + smax + 1):
                    try:
                        lhs = table.entry(m + n, r, s)
                    except WindowMiss:
                        continue
                    rhs = R.zero()
                    for j in range(0, s + 1):
                        ell = s - j
                        # x runs over (i, j) and y over (r - i, ell) for
                        # m - j <= i <= hi; a miss on either skips the cell
                        hi = r - n + ell
                        (xlo, xhi), (ylo, yhi) = spans[m][j], spans[n][ell]
                        if not (xlo <= m - j and hi <= xhi
                                and ylo <= r - hi and r - m + j <= yhi):
                            break
                        for i in range(m - j, hi + 1):
                            # canonical zeros are falsy, and so is a miss
                            x = xs.coeffs.get((i, j))
                            if x:
                                y = ys.coeffs.get((r - i, ell))
                                if y:
                                    rhs = R.add(rhs, R.mul(x, y))
                    else:
                        if not R.eq(lhs, rhs):
                            return Report("f_binomial/convolution", name,
                                          f"|m|,|n|<={nmax}, s<={smax}",
                                          _fail(R, (m + n, r, s), lhs, rhs))
                        checked += 1
    return Report("f_binomial", name, f"|n|<={nmax}, s<={smax}",
                  details={"entries_checked": checked})


# -- F-delta distributions -------------------------------------------------


def _inverse_expansions(law, classical=False):
    """The two expansions of F(z, iota w)^{-1}, or of (z - w)^{-1} when
    classical: z dominant, then w dominant.  Both have exponents in (z, w)
    order; their difference is z^{-1} delta(w/z).  The F powers are
    entries of the law's power table (``law.power``).
    (x - y)^{-1} is the binomial line of the twisted powers with G = 1,
    certified below the law's truncation - 2 and cut at z^-N (w^-N when w
    dominates), as the twisted powers are."""
    if not classical:
        return law.power(-1, twisted=True), law.power(-1, twisted=True, dominant=1)
    N = law.trunc
    one = LaurentElement.one(law.ring, ("z", "w"), N - 1)
    return tuple(times_line_power(one, -1, d, (-N, -N)) for d in (0, 1))


def _delta_window(law, box, classical=False):
    a, b = _inverse_expansions(law, classical)
    full = [box, box]
    return BilateralWindow.from_laurent(a, full) - BilateralWindow.from_laurent(b, full)


def delta_F(law, box=(-6, 6)):
    """z^{-1} delta_F(w/z): difference of the two expansions of F(z, iota w)^{-1},
    as a BilateralWindow over (z, w) on box x box."""
    return _delta_window(law, box)


def delta_support_check(law, f, box=(-6, 6)):
    """Diagonal support: delta * f(z) = delta * f(w), and the two-variable form.

    f is a finite-support LaurentElement in one variable z, or in (z, w) with
    a convergent diagonal.  Its stored terms are all of it, so each factor
    is exact: its truncation is ``math.inf``.
    """
    D = delta_F(law, box=box)
    if len(f.vars) == 1:
        fz, diag = f.extend(("z", "w")), f
    else:
        fz, diag = f, f.diagonal_eval("w")
    fz = LaurentElement(f.ring, fz.vars, fz.coeffs, inf, fz.floors)
    fw = LaurentElement(f.ring, ("z", "w"),
                        {(0, e[0]): c for e, c in diag.coeffs.items()}, inf)
    return _compare("delta/diagonal_support", law.name, D.mul_laurent(fz),
                    D.mul_laurent(fw))


def delta_g_relation_check(law, box=(-6, 6)):
    """delta_F(w/z) = G(z,w)^{-1} * delta_{F_a}(w/z) on the surviving window."""
    D = delta_F(law, box=box)
    Da = _delta_window(law, box, classical=True)
    rhs = Da.mul_laurent(law.g_power(-1))
    return _compare("delta/g_relation", law.name, D, rhs)


def delta_phi_relation_check(law, box=(-6, 6)):
    """delta_F(w/z) * p_F(z) = delta_{F_a}(w/z); valid over any base ring."""
    D = delta_F(law, box=box)
    pf = law.pF.rename(("z",)).extend(("z", "w"))
    lhs = D.mul_laurent(pf.as_laurent())
    rhs = _delta_window(law, box, classical=True)
    return _compare("delta/invariant_factor", law.name, lhs, rhs)


def _tower_cell(delta, power, m, cell):
    """The out^m (cell) coefficient of out^{-1} delta_F(u/out) with u^n
    replaced by power(n): the sum of delta[out^m u^n] * power(n)[cell] over
    -m-1 <= n <= tot(cell), every read through ``certified``.

    delta is the two-variable (out, u) element, the difference of the two
    ``_inverse_expansions``; power(n) has valuation n and exponents in the
    order of ``cell``.  No other n reaches the cell: delta has total degree
    >= -1, and power(n) has no cell of total degree below n.
    """
    R = delta.ring
    r = R.zero()
    for n in range(-m - 1, sum(cell) + 1):
        d = delta.certified((m, n))
        if d:
            c = power(n).certified(cell)
            if c:
                r = R.add(r, R.mul(d, c))
    return r


def _delta_tower(delta, power, base_vars, out_var, B):
    """out^{-1} delta_F(u/out) with u^n replaced by power(n), the given
    expansion of base^n; a window over (z0, z1, z2) on the box [-B, B]^3.

    delta is the difference of the two ``_inverse_expansions``, read by
    position as (out, u), and power(n, trunc=t) is an exact two-variable
    element of valuation n, certified below total degree t at least, with
    exponents and floors in base_vars order.  Each box cell is one
    ``_tower_cell`` sum, so no power above n = 2B is read, and every base
    cell it reads has total degree <= 2B: each power is asked for at
    trunc = 2B + 1 and no deeper.  The box keeps only the cells every read
    certifies: out-exponents at or above the delta's out floor and below
    minus its u floor (out-exponent e0 needs every u^n with n >= -e0-1),
    base exponents at or above the floors of the powers read, and totals up
    to ``max_total``, which a power cuts only when it is certified below
    2B + 1 alone.
    """
    allvars = ("z0", "z1", "z2")
    oi = allvars.index(out_var)
    bi = [allvars.index(v) for v in base_vars]
    lo = [-B, -B, -B]
    hi = [B, B, B]
    if delta.floors[0] is not None:
        lo[oi] = max(lo[oi], delta.floors[0])
    if delta.floors[1] is not None:
        hi[oi] = min(hi[oi], -delta.floors[1] - 1)
    mt = delta.trunc - 1
    powers = {}
    for n in range(-(B + 1), 2 * B + 1):
        if not any((e0, n) in delta.coeffs for e0 in range(lo[oi], hi[oi] + 1)):
            continue
        p = powers[n] = power(n, trunc=2 * B + 1)
        if p.trunc <= 2 * B:
            # the lowest out-exponent that reads power(n) is max(-B, -n-1);
            # cells of higher total degree than this cap would read power(n)
            # beyond its truncation
            mt = min(mt, p.trunc - 1 + max(-B, -n - 1))
        for k, f in zip(bi, p.floors):
            if f is not None:
                lo[k] = max(lo[k], f)
    coeffs = {}
    for e in product(*(range(x, y + 1) for x, y in zip(lo, hi))):
        if sum(e) <= mt:
            c = _tower_cell(delta, powers.__getitem__, e[oi],
                            tuple(e[k] for k in bi))
            if c:
                coeffs[e] = c
    return BilateralWindow(delta.ring, allvars, coeffs, list(zip(lo, hi)),
                           max_total=mt, _clean=True)


def f_jacobi_delta_check(law, B=4):
    """Three-variable delta identities on the box [-B, B]^3.

    Part one: the three-term Jacobi identity for z0^{-1} delta_F applied to
    F(z1, iota z2), in its two expansions, against the z2^{-1} term.  Part
    two: the exchange identity relating the z2-term to the delta of F(z0,z2).
    The four towers contract one delta element against powers with n <= 2B,
    each read from the law's power table no deeper than 2B + 1.  The box
    reads no exponent below -B, so the twisted powers are cut at floors
    (-B, -B), the box lows ``_delta_tower`` clips to.
    """
    a, b = _inverse_expansions(law)
    delta = a - b

    def tower(base_vars, out_var, twisted=True, dominant=0):
        if twisted:
            power = partial(law.power, twisted=True, dominant=dominant, floors=(-B, -B))
        else:
            power = law.power
        return _delta_tower(delta, power, base_vars, out_var, B)

    t1 = tower(("z1", "z2"), "z0")
    t2 = tower(("z1", "z2"), "z0", dominant=1)
    t3 = tower(("z1", "z0"), "z2")
    jacobi = _compare("delta/f_jacobi", law.name, t1 - t2, t3)
    if not jacobi.ok:
        return jacobi

    # exchange: i_{z1,z0} z2^{-1} delta_F(F(z1,iota z0)/z2)
    #         = i_{z2,z0} z1^{-1} delta_F(F(z0,z2)/z1)
    t4 = tower(("z2", "z0"), "z1", twisted=False)
    exchange = _compare("delta/exchange", law.name, t3, t4)
    if not exchange.ok:
        return exchange
    return Report("delta/f_jacobi", law.name,
                  {"jacobi": jacobi.window, "exchange": exchange.window},
                  details=jacobi.details)


# -- F-residues ------------------------------------------------------------


def f_residue(law, f, var="z"):
    """Res^F f: the residue of f * p_F(var) d var, for a LaurentElement f.

    Returns the raw ring value when f is univariate, a LaurentElement in
    the remaining variables otherwise.  This is the package's F-residue of
    series (``vertex._residue_of_field`` is the one of state-valued fields):
    f is contracted against p_F by ``residue_coeff(var, p_F)``, so the term
    of f at var^(-1-k) meets p_F's z^k alone and the product f * p_F is
    never formed; its truncation, floors and certified cells are still the
    ones the product would carry.
    """
    res = f.residue_coeff(var, law.pF.rename((var,)).as_laurent())
    if not res.vars:
        return res.scalar()
    return res


def product_residue(a, b, pf):
    """Res^F (a * b) for one-variable series a and b in z, with p_F given as
    the Laurent element pf: ``f_residue(law, a * b)`` without forming a * b.

    p_F = 1 + O(z) has no negative exponent, so it meets only the cells of
    a * b of total degree < 0.  Only those cells are formed, cut and clipped
    as the product would cut and clip them, and they are contracted once
    against pf.  The certified region is the one product rule applied
    twice: to a * b, then to (a * b) * p_F.  So WindowMiss is raised where
    f_residue raises it, with the same message.

    The second rule reads the cells of a * b only through their least total
    degree.  Leaving out the cells of total >= 0 changes that least only
    when it is >= 0 anyway.  The rule's top is then at least the lower of
    the tops of a * b and of p_F, so at least -1, and cell (-1,) is
    certified either way.
    """
    R, p = a.ring, pf.coeffs
    r = a._region()._product(b._region(), a.coeffs, b.coeffs)
    low = sparse_mul(R, a.coeffs, b.coeffs, cut=min(0, r.top + 1))
    cells = {e: c for e, c in low.items() if e[0] >= r.lows[0]}
    r = r._product(pf._region(), cells, p)
    require_residue_cell(a.vars, 0, r.top + 1, r._floors())
    out = sparse_add(R, {}, (((), R.mul(c, p[(-1 - k,)])) for (k,), c in cells.items()
                             if (-1 - k,) in p))
    return out.get((), R.zero())


# -- F-hyperderivatives ----------------------------------------------------


def _hyper_slices(law, f, nmin, nmax):
    """[S_nmin f, ..., S_nmax f]: the w^n slices, nmin <= n <= nmax, of the
    z-dominant expansion i_{z,w} f(F(z,w)) of a univariate f.

    The expansion is linear in f, and that of a monomial z^e is the power
    F(z,w)^e, cut at t + min(e, 0) for t the lower of f's and the law's
    truncation: what substituting F(z,w) into z^e at truncation t
    certifies, since a negative valuation lowers the truncation of the
    product.  Negative powers are read as their w-slices up to nmax alone
    (``law.power_slices``), each exact in z with the full power's
    truncation minus its w-degree; a nonnegative power is read from the
    law's power table below total degree t, the most any cut keeps of it.
    The sum is cut once at the least of these truncations, so one pass
    over each power multiplies only the cells with w-exponent in [nmin,
    nmax] that survive the cut: slice n has truncation (the cut) - n and
    no floor, since S_n z^e has no cell below z^(e - n).  An f with floors
    is refused (ValueError), as ``substitute`` refuses one: its cells
    below the floor are unknown, and every S_n would read them.
    """
    if f.vars != ("z",):
        raise ValueError("hyperderivative input must be univariate in z")
    if f.floors != (None,):
        raise ValueError("cannot expand an element with floors")
    R = law.ring
    t = min(f.trunc, law.trunc)
    terms, out_t = [], t
    for (e,), c in sorted(f.coeffs.items()):
        if e < 0:
            sl = law.power_slices(e, nmax)
            gt = sl[0].trunc
            cells = [((i, j), v) for j in range(nmin, nmax + 1)
                     for (i,), v in sl[j].coeffs.items()]
        else:
            # a nonnegative power has no floors; only its cells of total
            # degree < t are kept
            g = law.power(e, trunc=t)
            gt = g.trunc
            cells = [(x, v) for x, v in g.coeffs.items() if nmin <= x[1] <= nmax]
        out_t = min(out_t, t + min(e, 0), gt)
        terms.append((c, cells))
    # one running sum over the cells read, split into slices at the end
    out = {}
    for c, cells in terms:
        sparse_add(R, out, (((i, j), R.mul(v, c)) for (i, j), v in cells
                            if i < out_t - j))
    slices = {n: {} for n in range(nmin, nmax + 1)}
    for (i, j), v in out.items():
        slices[j][(i,)] = v
    return [LaurentElement(R, ("z",), sl, out_t - n, _clean=True)
            for n, sl in slices.items()]


def hyperderivative(law, f, n):
    """S_n f: the w^n coefficient of the z-dominant expansion of f(F(z,w))."""
    if n < 0:
        raise ValueError("hyperderivatives need n >= 0")
    return _hyper_slices(law, f, n, n)[0]


def hyperderivatives(law, f, nmax):
    """[S_0 f, ..., S_nmax f] from one pass over the powers of F(z,w)."""
    return _hyper_slices(law, f, 0, nmax)


def hyperderivative_properties(law, nmax=3):
    """Leibniz rule, composition rule, commutation, and the S_1 identities,
    on f = z^3 + z^-1 and g = z^-2 + 2z; nmax is clipped to (trunc - 1) //
    2, as composition reads (nmax, nmax) of F^0 = 1, which is certified
    below total degree trunc."""
    R = law.ring
    nmax = min(nmax, (law.trunc - 1) // 2)
    fs = [
        LaurentElement(R, ("z",), {(3,): R.one(), (-1,): R.one()}, law.trunc),
        LaurentElement(R, ("z",), {(-2,): R.one(), (1,): R.from_int(2)}, law.trunc),
    ]
    name = law.name

    cache = []
    for f in fs:
        sf = hyperderivatives(law, f, 2 * nmax)
        cache.append(sf)
        # S_0 = identity
        rep = _compare("hyper/identity", name, sf[0], f)
        if not rep.ok:
            return rep
        # S_1 f * p_F = f'
        lhs = sf[1] * law.pF.rename(("z",)).as_laurent()
        rep = _compare("hyper/first_derivative", name, lhs, f.derivative("z"))
        if not rep.ok:
            return rep

    # Leibniz
    f, g = fs
    sf, sg = cache
    prod = f * g
    sprod = hyperderivatives(law, prod, nmax)
    for n in range(0, nmax + 1):
        rhs = None
        for i in range(0, n + 1):
            term = sf[i] * sg[n - i]
            rhs = term if rhs is None else rhs + term
        rep = _compare("hyper/leibniz", name, sprod[n], rhs, {"n": n})
        if not rep.ok:
            return rep

    # composition and commutation
    nested = {n: hyperderivatives(law, sf[n], nmax) for n in range(nmax + 1)}
    for m in range(0, nmax + 1):
        for n in range(0, nmax + 1):
            smn = nested[n][m]
            snm = nested[m][n]
            rep = _compare("hyper/commutation", name, smn, snm, {"m": m, "n": n})
            if not rep.ok:
                return rep
            rhs = None
            for k in range(0, m + n + 1):
                term = sf[k].scale(law.power(k).certified((m, n)))
                rhs = term if rhs is None else rhs + term
            rep = _compare("hyper/composition", name, smn, rhs, {"m": m, "n": n})
            if not rep.ok:
                return rep

    is_additive = law.F.coeffs == {(1, 0): R.one(), (0, 1): R.one()}
    if is_additive:
        # repeated S_1 recovers n! S_n; over a ring of characteristic p this
        # kills S_1^p while S_p itself survives
        cur = f
        fact = 1
        for n in range(1, nmax + 1):
            cur = hyperderivative(law, cur, 1)
            fact *= n
            rhs = sf[n].scale(R.from_int(fact))
            rep = _compare("hyper/repeated_s1", name, cur, rhs, {"n": n})
            if not rep.ok:
                return rep
        if R.kind == "mod":
            p = R.modulus
            cur = f
            for _ in range(p):
                cur = hyperderivative(law, cur, 1)
            rep = _compare("hyper/torsion_s1", name, cur,
                           LaurentElement.zero(R, cur.vars, cur.trunc), {"p": p})
            if not rep.ok:
                return rep
            zp = LaurentElement(R, ("z",), {(p,): R.one()}, law.trunc)
            sp = hyperderivative(law, zp, p)
            if not R.eq(sp.coefficient((0,)), R.one()):
                return Report("hyper/torsion_sp", name, {"p": p},
                              _fail(R, (0,), sp.coefficient((0,)), R.one()))
    return Report("hyperderivative", name, {"nmax": nmax})


# the Laurent samples of the residue checks: exponents from -RESIDUE_MAX_POLE
# to RESIDUE_MAX_DEG
RESIDUE_MAX_POLE = 3
RESIDUE_MAX_DEG = 5


def residue_theorems_check(law, nmax=5, samples=20, seed=0):
    """Res^F S_n f = 0 and the hyperderivative by-parts rule on seeded samples."""
    R = law.ring
    rng = random.Random(seed)
    name = law.name
    # F^e has truncation trunc - 1 + e, so S_(n-j) f * S_j g is certified
    # below trunc - 1 - (pole of f) - (pole of g) - n: sample only poles and
    # orders whose residues that certifies
    max_pole = max(0, min(RESIDUE_MAX_POLE, (law.trunc - 1 - nmax) // 2))
    nmax = min(nmax, law.trunc - 1 - 2 * max_pole)

    def sample():
        coeffs = {}
        for _ in range(rng.randint(1, 5)):
            e = rng.randint(-max_pole, RESIDUE_MAX_DEG)
            c = rng.randint(-5, 5)
            if c:
                coeffs[(e,)] = R.from_int(c)
        return LaurentElement(R, ("z",), coeffs, law.trunc)

    pf = law.pF.rename(("z",)).as_laurent()
    for idx in range(samples):
        f = sample()
        g = sample()
        sf = hyperderivatives(law, f, nmax)
        sg = hyperderivatives(law, g, nmax)
        for n in range(1, nmax + 1):
            r = f_residue(law, sf[n])
            if not R.is_zero(r):
                return Report("residue/vanishing", name, {"seed": seed, "sample": idx},
                              _fail(R, ("n", n), r, R.zero()))
            lhs = product_residue(sf[n], g, pf)
            rhs = R.zero()
            for j in range(1, n + 1):
                rhs = R.sub(rhs, product_residue(sf[n - j], sg[j], pf))
            if not R.eq(lhs, rhs):
                return Report("residue/by_parts", name, {"seed": seed, "sample": idx},
                              _fail(R, ("n", n), lhs, rhs))
    return Report("residue_theorems", name, {"seed": seed, "samples": samples,
                                             "nmax": nmax})


def delta_residue_check(law, box=(-6, 6)):
    """Res^F z^{-1} delta_F(w/z) dz = 1 as a series in w.

    The delta is the difference of the two ``_inverse_expansions``, whose
    F-residue in z is one ``f_residue``.  The window is the w-exponents k of
    box that the residue certifies, from the higher of box's low and the
    residue's w floor up to the lower of box's high and its truncation - 1
    (trunc - 2 for the law's trunc); each w^k is read through ``certified``.
    """
    R = law.ring
    a, b = _inverse_expansions(law)
    res = f_residue(law, a - b, "z")
    floor = res.floors[0]
    lo = box[0] if floor is None else max(box[0], floor)
    hi = min(box[1], res.trunc - 1)
    for k in range(lo, hi + 1):
        want = R.one() if k == 0 else R.zero()
        got = res.certified((k,))
        if not R.eq(got, want):
            return Report("residue/delta_unit", law.name, [lo, hi],
                          _fail(R, (k,), got, want))
    return Report("residue/delta_unit", law.name, [lo, hi])


def residue_inversion_check(law, samples=10, seed=1):
    """Res^F f(iota(z)) dz = -Res^F f(z) dz on seeded Laurent samples."""
    R = law.ring
    rng = random.Random(seed)
    for idx in range(samples):
        coeffs = {}
        for _ in range(rng.randint(1, 5)):
            e = rng.randint(-RESIDUE_MAX_POLE, RESIDUE_MAX_DEG)
            c = rng.randint(-5, 5)
            if c:
                coeffs[(e,)] = R.from_int(c)
        f = LaurentElement(R, ("z",), coeffs, law.trunc)
        fi = f.substitute({"z": law.iota})
        lhs = f_residue(law, fi)
        rhs = R.neg(f_residue(law, f))
        if not R.eq(lhs, rhs):
            return Report("residue/inversion", law.name, {"seed": seed, "sample": idx},
                          _fail(R, None, lhs, rhs))
    return Report("residue/inversion", law.name, {"seed": seed, "samples": samples})


def iterated_residue_check(law, triples):
    """The three-term iterated residue identity on monomials x0^a x1^b x2^c.

    Convergence of the substitutions is automatic for monomials; anything
    else is rejected.

    Each double residue reads F(x, iota y)^a times the exact monomial shift
    x^b y^c with exponents at most s = max of the triples, contracted twice
    against p_F of degree d.  A residue in a variable reads the power's
    exponent -1 - k - (shift) for k <= d only, never below -1 - d - s, so
    the powers are expanded to floors -depth with depth = 1 + d + s and no
    deeper.  The two residues read power cells (i, j) with i + b = -1 - k
    and j + c = -1 - l, k, l >= 0, so of total degree a - k - l <= a, as a
    + b + c = -2: each power is asked for below total degree a + 1 and no
    higher.  Were the depth or that bound too small, the product floor
    -depth + s + d would lie above -1, or cell (-1,) of the outer residue
    above its truncation, and the residue would raise ``WindowMiss``; it
    cannot pass silently.
    """
    R = law.ring
    for t in triples:
        if not (isinstance(t, tuple) and len(t) == 3):
            raise NonConvergentSubstitution("only monomial exponent triples supported")
    name = law.name

    deg_pf = max((k for (k,) in law.pF.coeffs), default=0)
    depth = 1 + deg_pf + max((max(t) for t in triples), default=0)

    def double_res(vars, dominant, a, b_exps):
        # F(x, iota y)^a * (vars monomial) with vars[dominant] dominant,
        # residue in the other variable, then in the dominant one; the power
        # is expanded deep enough to survive both p_F factors
        a_pow = law.power(a, twisted=True, dominant=dominant,
                          floors=(-depth, -depth), trunc=a + 1).rename(vars)
        el = a_pow * LaurentElement(R, vars, {b_exps: R.one()}, inf)
        inner = f_residue(law, el, vars[1 - dominant])
        return f_residue(law, inner, vars[dominant])

    for (a, b, c) in triples:
        term1 = double_res(("z1", "z2"), 0, a, (b, c))
        term2 = double_res(("z1", "z2"), 1, a, (b, c))
        term3 = double_res(("z1", "z0"), 0, c, (b, a))
        lhs = R.sub(term1, term2)
        if not R.eq(lhs, term3):
            return Report("residue/iterated", name, {"triple": [a, b, c]},
                          _fail(R, (a, b, c), lhs, term3))
    return Report("residue/iterated", name, {"triples": len(triples)})

