"""The full hyperderivative expansion: the reference that the tests compare
``calculus.hyperderivatives`` and ``calculus.hyperderivative`` against.

``hyperderivative_expansion`` forms the whole two-variable expansion
i_{z,w} f(F(z,w)) as one sparse sum of the law's powers, every cell of
every power scaled, and ``slice_w`` reads its w^n coefficient.  It shares
no code with the slice route beyond the ring and the power table.
"""

from fglcalc.ring import sparse_add
from fglcalc.series import LaurentElement, WindowMiss


def hyperderivative_expansion(law, f):
    """i_{z,w} f(F(z,w)) for univariate f; the w^n slices are S_n f.

    The expansion of a monomial z^e is the power F(z,w)^e, cut at t +
    min(e, 0) for t the lower of f's and the law's truncation; negative
    powers are expanded three truncation orders deep.
    """
    if f.vars != ("z",):
        raise ValueError("hyperderivative input must be univariate in z")
    R = law.ring
    t = min(f.trunc, law.trunc)
    deep = (-3 * law.trunc,) * 2
    # one running sum, cut once at the least truncation and the joined
    # floors: a cell cut on the way would be cut at the end as well
    out, out_t, floors = {}, t, (None, None)
    for (e,), c in sorted(f.coeffs.items()):
        g = law.power(e, floors=deep if e < 0 else None).truncate(t + min(e, 0))
        out_t = min(out_t, g.trunc)
        floors = _join_floors(floors, g.floors)
        sparse_add(R, out, ((x, R.mul(v, c)) for x, v in g.coeffs.items()))
    return LaurentElement(R, ("z", "w"), out, out_t, floors=floors)


def _join_floors(f1, f2):
    # the higher floor per variable, None where neither element has one
    return tuple(b if a is None else a if b is None else max(a, b) for a, b in zip(f1, f2))


def slice_w(g, n):
    """The w^n coefficient of g in (z, w), an element in z; n must lie at
    or above g's w floor."""
    if g.floors[1] is not None and n < g.floors[1]:
        raise WindowMiss(f"w^{n} slice below the reliable floor")
    return LaurentElement(g.ring, ("z",), {(i,): c for (i, j), c in g.coeffs.items() if j == n},
                          g.trunc - n, floors=g.floors[:1])
