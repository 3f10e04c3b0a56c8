"""The slice-times-power delta tower: the reference that the tests compare
``calculus._delta_tower`` against.

``delta_tower`` forms the difference of the two expansions of
F(out, iota u)^{-1} as one sparse sum, splits it into slices by the
u-exponent n, and multiplies each slice whose out-exponents meet the box by
the whole of power(n), for every n up to trunc + B, with the sparse kernel.
The window then keeps the certified cells.  It shares no code with the
per-cell sum of ``_tower_cell`` beyond the ring and the powers.
"""

from fglcalc.ring import sparse_add, sparse_mul
from fglcalc.series import BilateralWindow


def delta_tower(law, delta, power, base_vars, out_var, B):
    """out^{-1} delta_F(u/out) with u^n replaced by power(n) on [-B, B]^3.

    delta is the pair ``_inverse_expansions(law)`` gives, read by position
    as (out, u); power(n) has its variables named base_vars.
    """
    R = law.ring
    a, b = delta
    diff = sparse_add(R, dict(a.coeffs), ((e, R.neg(c)) for e, c in b.coeffs.items()))
    slices = {}
    for (e0, n), c in diff.items():
        slices.setdefault(n, {})[e0] = c

    allvars = ("z0", "z1", "z2")
    oi = allvars.index(out_var)
    lo = [-B, -B, -B]
    hi = [B, B, B]
    if a.floors[0] is not None:
        lo[oi] = max(lo[oi], a.floors[0])
    if b.floors[1] is not None:
        hi[oi] = min(hi[oi], -b.floors[1] - 1)
    coeffs = {}
    mt = min(a.trunc, b.trunc) - 1
    for n in range(-(B + 1), law.trunc + B + 1):
        sl = {e0: c for e0, c in slices.get(n, {}).items() if lo[oi] <= e0 <= hi[oi]}
        if not sl:
            continue
        p = power(n)
        mt = min(mt, p.trunc - 1 + max(-B, -n - 1))
        for v, f in zip(base_vars, p.floors):
            if f is not None:
                k = allvars.index(v)
                lo[k] = max(lo[k], f)
        out_terms = {tuple(e0 if k == oi else 0 for k in range(3)): c0
                     for e0, c0 in sl.items()}
        sparse_mul(R, out_terms, p.extend(allvars).coeffs, out=coeffs)
    return BilateralWindow(R, allvars, coeffs, list(zip(lo, hi)), mt)
