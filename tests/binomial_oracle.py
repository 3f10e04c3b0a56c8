"""The binomial loop sum_k C(n, k) h^k: the reference that the tests compare
``LaurentElement.int_power`` against.

Write f = c*m*(1 + h) with c*m the leading term and t_rel = trunc - tot(m).
``binomial_power`` sums the binomial series of (1 + h)^n at relative
truncation t_rel, term by term, cut at the relative floors, and shifts and
scales the sum back.  It shares no arithmetic with the power recurrence
beyond the series product.

The loop differs from ``int_power`` in known ways, which the comparisons
stay off: its deep-cut mode loses cells when the floor on y lies more than
t_rel above n times the y-exponent of m; it can report a floor where terms
of its sum cancel below it; on a floored base it can certify a cell that
the clipped terms reach (z + w + z^-5 clipped at z >= -4 squares to a
floor of -4, not -3); and it never returns for n < 0 when h has a term of
total degree 0 and x has no floor.
"""

from fglcalc.ring import NOT_INVERTIBLE, sparse_add, sparse_mul
from fglcalc.series import LaurentElement, NotInvertibleError, _tot, comb_any


def binomial_power(f, n, floors=None):
    """f^n by the binomial loop."""
    R = f.ring
    if n == 0:
        return LaurentElement.one(f.ring, f.vars, f.trunc)
    if n == 1 and floors is None:
        return f
    m, c = f.leading()
    cinv = R.try_invert(c)
    if cinv is NOT_INVERTIBLE:
        if n < 0:
            raise NotInvertibleError("leading coefficient is not a unit")
        out = f
        for _ in range(n - 1):
            out = out * f
        return out
    v = _tot(m)
    t_rel = f.trunc - v  # relative precision above the valuation
    if n >= 0:
        if floors is None:
            floors = f.floors  # exact support, no cutting needed
            work_floors = (None,) * len(f.vars)
        else:
            work_floors = tuple(
                None if fl is None else fl - n * mi for fl, mi in zip(floors, m))
    else:
        if floors is None:
            floors = tuple(-f.trunc for _ in f.vars)
        work_floors = tuple(
            None if fl is None else fl - n * mi for fl, mi in zip(floors, m))
    # h = f / (c * monomial m) - 1, terms of positive revlex order
    h_coeffs = {}
    for e, ce in f.coeffs.items():
        e2 = tuple(x - y for x, y in zip(e, m))
        if not any(e2):
            continue
        h_coeffs[e2] = R.mul(ce, cinv)
    acc, min_trunc = _binomial_series(f, h_coeffs, n, t_rel, work_floors)
    coeffs, acc_floors = acc.coeffs, acc.floors
    # shift by n*m and scale by c^n
    cn = c if n >= 0 else cinv
    cpow = R.one()
    for _ in range(abs(n)):
        cpow = R.mul(cpow, cn)
    shift = tuple(n * x for x in m)
    out = {}
    for e, ce in coeffs.items():
        out[tuple(x + y for x, y in zip(e, shift))] = R.mul(ce, cpow)
    out_trunc = min_trunc + n * v
    out_floors = tuple(
        (af + s) if af is not None else (None if sf is None else fl)
        for af, s, sf, fl in zip(acc_floors, shift, f.floors, floors))
    return LaurentElement(R, f.vars, out, out_trunc, floors=out_floors)


def _binomial_series(f, h_coeffs, n, t_rel, work_floors):
    """sum_k C(n, k) h^k at relative truncation t_rel, cut at the
    relative floors; returns the sum and its truncation."""
    R = f.ring
    h = LaurentElement(R, f.vars, h_coeffs, t_rel, _clean=True)
    hv = min(0, h.valuation()) if h.coeffs else 0
    # Deep-cut mode: when the base is exact and every dominated direction
    # of h has nonnegative exponent sums, run the loop with floors one
    # whole truncation order deeper and clip once at the end.  A term
    # dropped that far down can resurface, within the total-degree cap,
    # only strictly below the requested floors, so the kept region stays
    # exact and the per-product pollution rule (which would otherwise
    # ratchet the floors upward every iteration) can be skipped.
    deep = all(fl is None for fl in f.floors) and \
        all(_tot(e) >= 0 for e in h.coeffs)
    if deep:
        for i, fl in enumerate(work_floors):
            if fl is None or all(e[i] >= 0 for e in h.coeffs):
                continue  # this direction is never cut
            if any(_tot(e) - e[i] < 0 for e in h.coeffs):
                deep = False
                break
    if deep:
        cut_floors = tuple(
            None if fl is None else fl - t_rel for fl in work_floors)
    else:
        cut_floors = work_floors
    work_trunc = t_rel
    acc = LaurentElement.const(R, f.vars, R.one(), work_trunc)
    term = acc
    k = 0
    min_trunc = work_trunc
    loop_floors = (None,) * len(f.vars)
    dropped = [False] * len(f.vars)
    # deep mode, per variable: the share of h^k that was cut at that
    # variable's floor (the cut cells and their descendants), kept while
    # the floor is unmarked.  A floor is marked only where a cell of it
    # survives its binomial coefficient: over Z/m, C(n, k) times a cut cell
    # can vanish, and int_power then has no cell there to clip.
    lost = [{} for _ in f.vars]

    def mark(cut, coef):
        for i in range(len(f.vars)):
            if dropped[i]:
                continue
            chain = sparse_mul(R, lost[i], h.coeffs, cut=work_trunc)
            sparse_add(R, chain, ((e, c) for e, c in cut.items()
                                  if _first_cut(e, cut_floors) == i))
            lost[i] = chain
            dropped[i] = any(not R.is_zero(R.mul(c, coef)) for c in chain.values())

    while True:
        k += 1
        coef = R.from_int(comb_any(n, k))
        full = term * h
        term = full.truncate(work_trunc, floors=cut_floors)
        if deep:
            mark({e: c for e, c in full.coeffs.items()
                  if _tot(e) < work_trunc and e not in term.coeffs}, coef)
            term = LaurentElement(R, f.vars, term.coeffs, term.trunc,
                                  _clean=True)
        else:
            loop_floors = LaurentElement._join_floors_add(loop_floors, term.floors)
        if term.is_zero():
            break
        if not R.is_zero(coef):
            acc = acc + term.scale(coef)
            min_trunc = min(min_trunc, t_rel + (k - 1) * hv)
        if n >= 0 and k >= n:
            break
    # the cut shares run on while a cell of them can still count
    while any(lost[i] and not dropped[i] for i in range(len(f.vars))) \
            and (n < 0 or k < n):
        k += 1
        mark({}, R.from_int(comb_any(n, k)))
    if deep:
        acc = acc.truncate(acc.trunc, floors=work_floors)
        final = tuple(
            wf if wf is not None and (dropped[i] or acc.floors[i] is not None)
            else None
            for i, wf in enumerate(work_floors))
        acc = LaurentElement(R, f.vars, acc.coeffs, acc.trunc,
                             floors=final, _clean=True)
    else:
        acc = acc.truncate(acc.trunc, floors=loop_floors)
        acc = LaurentElement(R, f.vars, acc.coeffs, acc.trunc,
                             floors=LaurentElement._join_floors_add(acc.floors, loop_floors))
    return acc, min_trunc


def _first_cut(e, floors):
    # the variable whose floor ``LaurentElement.truncate`` cuts e at
    return next(i for i, fl in enumerate(floors) if fl is not None and e[i] < fl)
