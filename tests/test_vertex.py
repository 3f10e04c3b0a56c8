import re
from fractions import Fraction
from math import inf
from types import SimpleNamespace

from fglcalc import vertex

import pytest
from hypothesis import given, settings, strategies as st

from binomial_oracle import clip
from fglcalc.ring import Ring
from fglcalc.series import LaurentElement, WindowMiss
from fglcalc.fgl import standard_law, times_line_power
from fglcalc.calculus import f_jacobi_delta_check
from fglcalc.vertex import (
    HeisenbergAlgebra,
    NotFound,
    ShiftQuotient,
    TrivialAlgebra,
    _residue_of_field,
    axiom_check,
    b_apply,
    field_skew_defect,
    heisenberg_cocycle,
    jacobi_identity_check,
    lie_axiom_check,
    lie_bracket,
    meromorphicity_pair,
    mono_weight,
    quotient_reduce,
    shifted_bracket_series,
    st_add,
    st_addmul,
    st_neg,
    st_scale,
    st_sub,
    state_to_json,
    state_weight,
    weak_commutativity_order,
    y_at_group_law_grid,
)

QQ = Ring.rationals()

ADD = standard_law("additive", trunc=20)
MUL = standard_law("multiplicative", trunc=20)

HA = HeisenbergAlgebra(ADD, W=6)
HM = HeisenbergAlgebra(MUL, W=6)


class BasedTrivialAlgebra(TrivialAlgebra):
    """The fixture with the monomial basis {vac, eps} that the Lie-axiom
    check and the quotient iterate over."""

    def basis_monomials(self):
        return [(), self.EPS]


class CorruptTrivialAlgebra(BasedTrivialAlgebra):
    """The fixture with its higher shift components acting as the projection
    onto the nilpotent line, which breaks translation covariance and weak
    associativity in a way the checkers must localize."""

    def shift(self, n, s):
        if n == 0:
            return dict(s)
        c = s.get(self.EPS, 0)
        return {self.EPS: c} if c else {}


TRIV = BasedTrivialAlgebra(standard_law("additive", trunc=12))
CORRUPT = CorruptTrivialAlgebra(standard_law("additive", trunc=12))


def vac():
    return {(): Fraction(1)}


def bgen():
    return {(-1,): Fraction(1)}


# -- mode operators and commutators ------------------------------------------


def test_mode_commutators_match_heisenberg_relations():
    # oracle: [b_n, b_m] = n delta_{n,-m} applied as plain operator
    # composition on every basis state of weight <= 6
    basis = HA.basis_monomials()
    for n in range(-6, 7):
        for m in range(-6, 7):
            for mono in basis:
                s = {mono: Fraction(1)}
                comm = st_sub(b_apply(n, b_apply(m, s)),
                              b_apply(m, b_apply(n, s)))
                want = st_scale(s, n) if n == -m else {}
                assert comm == want, (n, m, mono)


def test_mode_operators_on_vacuum():
    assert b_apply(0, vac()) == {}
    assert b_apply(3, vac()) == {}
    assert b_apply(-2, vac()) == {(-2,): Fraction(1)}


# -- state arithmetic -----------------------------------------------------------

_coeff = st.fractions(min_value=-2, max_value=2, max_denominator=3).map(QQ.from_fraction)
_state = st.dictionaries(st.sampled_from([(), (-1,), (-2,), (-1, -1), (-3, -1)]),
                         _coeff.filter(bool), max_size=4)


@given(acc=_state, s=_state, c=_coeff, cancel=st.booleans())
@settings(max_examples=200, deadline=None)
def test_st_addmul_is_add_of_scaled(acc, s, c, cancel):
    if cancel:
        # acc + c*s cancels to the empty state
        acc = st_neg(st_scale(s, c))
    want = st_add(acc, st_scale(s, c))
    out = dict(acc)
    assert st_addmul(out, s, c) is out
    assert out == want
    assert all(out.values())
    if cancel:
        assert out == {}


# -- shift operator ------------------------------------------------------------


@pytest.mark.parametrize("A", [HA, HM], ids=["additive", "multiplicative"])
def test_shift_annihilates_vacuum(A):
    assert A.shift(0, vac()) == vac()
    for n in range(1, 7):
        assert A.shift(n, vac()) == {}


@pytest.mark.parametrize("A", [HA, HM], ids=["additive", "multiplicative"])
def test_shift_group_law_matrix_exact(A):
    # S(z) S(w) = S(F(z,w)) componentwise: S^(i) S^(j) x equals
    # sum_k [F^k]_(i,j) S^(k) x on the weight-W truncation
    F = A.law.as_laurent()
    powers = {k: F.int_power(k) for k in range(0, A.W + 1)}
    for mono in A.basis_monomials():
        x = {mono: Fraction(1)}
        wt = state_weight(x)
        for i in range(0, A.W - wt + 1):
            for j in range(0, A.W - wt - i + 1):
                lhs = A.shift(i, A.shift(j, x))
                rhs = {}
                for k in range(0, i + j + 1):
                    c = powers[k].coefficient((i, j))
                    if c:
                        rhs = st_add(rhs, st_scale(A.shift(k, x), c))
                assert lhs == rhs, (mono, i, j)


def _translation(s):
    # classical translation operator: D b_{-k} = k b_{-k-1}, extended as a
    # derivation over monomials
    out = {}
    for mono, c in s.items():
        for pos, m in enumerate(mono):
            lst = list(mono)
            lst[pos] = m - 1
            out = st_add(out, {tuple(sorted(lst)): c * (-m)})
    return out


def test_additive_shift_is_exponential_of_translation():
    # for the additive law S(z) = exp(z D), so S^(n) = D^n / n!
    fact = 1
    for mono in HA.basis_monomials():
        if mono_weight(mono) > 3:
            continue
        x = {mono: Fraction(1)}
        cur = dict(x)
        fact = 1
        for n in range(0, 4):
            if n:
                cur = _translation(cur)
                fact *= n
            assert HA.shift(n, x) == st_scale(cur, Fraction(1, fact)), (mono, n)


# -- the field map and the creation consequence --------------------------------


@pytest.mark.parametrize("A", [HA, HM], ids=["additive", "multiplicative"])
def test_field_on_vacuum_equals_shift(A):
    # Y(a,z) applied to the vacuum reproduces S(z) a coefficientwise
    for a in (vac(), bgen(), st_add(vac(), st_scale(bgen(), 3))):
        fld = A.y_field(a, vac(), 6)
        want = {}
        for n in range(0, 7):
            v = A.shift(n, a)
            if v:
                want[n] = v
        assert fld == want


def test_generator_field_is_mode_series():
    # Y(b(-1)vac, z) c has z^k coefficient b_{-k-1} c
    c = {(-2, -1): Fraction(1)}
    for k in range(-4, 5):
        assert HA.y_coeff(bgen(), c, k) == b_apply(-k - 1, c)


# -- axiom checkers on the fixture ---------------------------------------------


def test_trivial_algebra_passes_all_axioms():
    for which in ("vacuum_creation", "translation_covariance",
                  "weak_associativity", "skew_symmetry"):
        r = axiom_check(TRIV, which)
        assert r.ok, (which, r.status)
    assert axiom_check(TRIV, "weak_associativity").details["minimal_N"] == 0


def test_corrupted_shift_fails_located():
    r = axiom_check(CORRUPT, "translation_covariance")
    assert not r.ok
    assert r.status["fail"]["monomial"] == [1, 1]
    r = axiom_check(CORRUPT, "weak_associativity")
    assert not r.ok
    assert r.status["fail"]["monomial"] == [1, 1]
    r = axiom_check(CORRUPT, "skew_symmetry")
    assert not r.ok
    assert [1, 1] in [d["pair"] for d in r.status["fail"]["defect_pairs"]]


# -- Heisenberg axioms -----------------------------------------------------------


@pytest.mark.parametrize("A", [HA, HM], ids=["additive", "multiplicative"])
def test_heisenberg_vacuum_creation_and_covariance(A):
    assert axiom_check(A, "vacuum_creation").ok
    assert axiom_check(A, "translation_covariance").ok


def test_heisenberg_weak_associativity_additive():
    r = axiom_check(HA, "weak_associativity")
    assert r.ok
    assert r.details["minimal_N"] == 0


def test_heisenberg_weak_associativity_multiplicative_defect():
    # documented behavior: the naive generator-only Y fails weak
    # associativity away from the additive law, and the checker localizes
    # the first discrepancy cell instead of reporting a bogus N
    r = axiom_check(HM, "weak_associativity")
    assert not r.ok
    assert r.status["fail"]["monomial"] == [-2, 1]


def test_heisenberg_skew_symmetry_by_law():
    assert axiom_check(HA, "skew_symmetry").ok
    r = axiom_check(HM, "skew_symmetry")
    assert not r.ok
    assert {"pair": [1, 1], "first_exponent": -1} in \
        r.status["fail"]["defect_pairs"]


def test_multiplicative_skew_defect_value():
    # frozen from the certified series comparison: the defect of
    # Y(b,z)b against S(z) Y(b, iota z)b starts at z^-1 with -2 vac
    d, emin, emax = field_skew_defect(HM, bgen(), bgen())
    assert sorted(d) == [-1, 0]
    assert d[-1] == {(): Fraction(-2)}
    d_add, _, _ = field_skew_defect(HA, bgen(), bgen())
    assert d_add == {}


# -- commutativity order ---------------------------------------------------------


def test_commutativity_order_generator_pair():
    # [b(z), b(w)] is a single delta-derivative layer, killed by the square
    M_add = weak_commutativity_order(HA, bgen(), bgen(), vac())
    M_mul = weak_commutativity_order(HM, bgen(), bgen(), vac())
    assert M_add == 2
    assert M_mul == 2


def test_commutativity_order_factor_choice_is_unit_independent(monkeypatch):
    # F(z, iota w) = G(z,w) (z - w) with G a unit, so the classical factor
    # (z - w)^M, the twisted powers' binomial line with G = 1, must kill the
    # discrepancy at the same order M
    for A in (HA, HM):
        real = A.law.power
        one = LaurentElement.one(A.ring, ("z", "w"), A.law.trunc - 1)
        lines = []

        def classical(n, twisted=False, **kw):
            if not twisted:
                return real(n, **kw)
            lines.append(n)
            return times_line_power(one, n, 0, (None, None))

        monkeypatch.setattr(A.law, "power", classical)
        assert weak_commutativity_order(A, bgen(), bgen(), vac()) == 2
        assert lines
        monkeypatch.undo()


def test_commutativity_order_not_found_below_the_cap(monkeypatch):
    # the generator pair needs M = 2: with the search capped at 1 it reports
    # that no order was found, naming the cap
    monkeypatch.setattr(vertex, "MAX_ORDER", 1)
    with pytest.raises(NotFound, match="^no commutativity order found up to 1$") as exc:
        weak_commutativity_order(HA, bgen(), bgen(), vac())
    assert exc.value.bound == 1


def test_commutativity_order_trivial_algebra():
    a = st_add(vac(), TRIV.eps)
    assert weak_commutativity_order(TRIV, a, a, vac()) == 0


# -- meromorphicity ---------------------------------------------------------------


def test_meromorphicity_trivial_is_plain_product():
    a = st_add(vac(), TRIV.eps)
    mp = meromorphicity_pair(TRIV, a, a, vac())
    assert mp.N == 0
    assert mp.ok
    # eps^2 = 0, so the only cell is the constant one with value a*a
    assert mp.p.coeffs[(0, 0)] == {(): Fraction(1), ("e",): Fraction(2)}


def test_meromorphicity_additive_vacuum_target():
    # c = vacuum reduces the w-dominant route to shift conjugation, which
    # the additive law satisfies on the nose
    mp = meromorphicity_pair(HA, bgen(), bgen(), vac())
    assert mp.N == 2
    assert mp.ok
    for name in ("n_independence", "w_dominant", "operator_product"):
        assert mp.checks[name].ok, name


def test_meromorphicity_multiplicative_w_dominant_defect():
    # the w-dominant expansion goes through shift conjugation and genuinely
    # fails for the naive multiplicative Y; frozen failure cell
    mp = meromorphicity_pair(HM, bgen(), bgen(), vac())
    assert mp.checks["n_independence"].ok
    assert mp.checks["operator_product"].ok
    r = mp.checks["w_dominant"]
    assert not r.ok
    assert r.status["fail"]["monomial"] == [-2, 3]
    assert r.status["fail"]["rhs"] == "(-2)*vac"


@pytest.mark.parametrize("A", [HA, HM], ids=["additive", "multiplicative"])
def test_meromorphicity_generator_target_overlap(A):
    # c = b(-1)vac: the inner composition leaves the partial Y domain, so
    # the w-dominant route is recorded as skipped while the substitution
    # check certifies agreement of the computable expansions on overlap
    mp = meromorphicity_pair(A, bgen(), bgen(), bgen())
    assert mp.checks["w_dominant"] is None
    assert mp.checks["n_independence"].ok
    assert mp.checks["operator_product"].ok


# -- the group-law grid ------------------------------------------------------------


def group_law_grid_reads(A, a, series, box, tot_cap=None):
    """i_{z,w} Y(a, F(z,w)) on a w-series with every box cell of every power
    read through ``certified``: the per-cell reads that
    ``y_at_group_law_grid`` checks once per read box."""
    (zlo, zhi), (wlo, whi) = box
    coeffs = {}
    for n, s in series.items():
        if n > whi or not s:
            continue
        ktop = zhi + whi - n if tot_cap is None else tot_cap - n
        for k in range(A.y_kmin(a, s), ktop + 1):
            yk = A.y_coeff(a, s, k)
            if not yk:
                continue
            deep = k < 0 and zlo < -A.law.trunc
            g = A.law.power(k, floors=(zlo, None) if deep else None)
            for i in range(zlo, zhi + 1):
                for j in range(max(wlo, n), whi + 1):
                    if i + j - n < k or (tot_cap is not None and i + j > tot_cap):
                        continue
                    cf = g.certified((i, j - n))
                    if cf:
                        st_addmul(coeffs.setdefault((i, j), {}), yk, cf)
    return {e: v for e, v in coeffs.items() if v}


MUL12 = standard_law("multiplicative", trunc=12)


def grid_outcome(run):
    try:
        grid = run()
    except WindowMiss as err:
        return str(err)
    return grid if isinstance(grid, dict) else grid.coeffs


@given(data=st.data(), c=st.sampled_from([vac(), bgen(), {(-1, -1): Fraction(1)}]))
@settings(max_examples=150, deadline=None)
def test_group_law_grid_checks_each_read_box_as_the_per_cell_reads(data, c):
    # over random boxes and random truncations and floors of the powers
    # F^k: checking each read box once and walking the stored cells gives
    # the grid of the per-cell reads, and WindowMiss exactly where they
    # raise; so does a grid widened from one on an inner box
    zlo = data.draw(st.integers(-16, 0), "zlo")
    wlo = data.draw(st.integers(-2, 2), "wlo")
    # the powers read have k >= -3 and cells at z >= k - w: the box reaches them
    box = ((zlo, data.draw(st.integers(max(zlo, -4), 6), "zhi")),
           (wlo, data.draw(st.integers(wlo, wlo + 6), "whi")))
    cap = box[0][1] + box[1][1] + 2
    tot_cap = data.draw(st.none() | st.integers(min(-3, cap), cap), "cap")
    series = HM.y_field(bgen(), c, box[1][1])
    if series and data.draw(st.booleans(), "one term"):
        n = data.draw(st.sampled_from(sorted(series)), "n")
        series = {n: series[n]}
    # F^k is read below total degree ztop - n + 1
    ztop = box[0][1] + box[1][1] if tot_cap is None else min(box[0][1] + box[1][1], tot_cap)
    cut = data.draw(st.booleans(), "cut")
    cuts = {}

    def power(k, floors=None):
        p = MUL12.power(k, floors=floors)
        if cut and (k, floors) not in cuts:
            cuts[k, floors] = (
                data.draw(st.integers(ztop - max(series), ztop - min(series) + 2)
                          | st.just(p.trunc), f"trunc {k}"),
                data.draw(st.tuples(st.none() | st.integers(zlo - 1, zlo + 2),
                                    st.none() | st.integers(-1, 2)), f"floors {k}"))
        return clip(p, *cuts[k, floors]) if cut else p

    law = SimpleNamespace(trunc=MUL12.trunc, power=power)
    A = SimpleNamespace(law=law, adapter=HM.adapter, y_kmin=HM.y_kmin, y_coeff=HM.y_coeff)
    want = grid_outcome(lambda: group_law_grid_reads(A, bgen(), series, box, tot_cap))
    assert grid_outcome(lambda: y_at_group_law_grid(A, bgen(), series, box, tot_cap)) == want
    ilo, jlo = (data.draw(st.integers(lo, hi), "inner low") for lo, hi in box)
    inner = ((ilo, data.draw(st.integers(ilo, box[0][1]))),
             (jlo, data.draw(st.integers(jlo, box[1][1]))))
    try:
        grid = y_at_group_law_grid(A, bgen(), series, inner, tot_cap)
    except WindowMiss:
        return
    assert grid_outcome(lambda: y_at_group_law_grid(A, bgen(), series, box, tot_cap,
                                                    inner=grid)) == want


@pytest.mark.parametrize("case", ["z floor", "w floor", "top", "tot_cap", "inner"])
def test_group_law_grid_at_each_extreme_of_its_read_box(case):
    # the random draws above reach each bound of the read box only in some
    # runs; here each is reached on purpose.  On the box [-2, 3] x [0, 3]
    # over the one term n = 0, every power read is cut one step inside the
    # read box at its least z, its least w or its greatest total, and the
    # per-cell reads raise WindowMiss; a tot_cap below the box's greatest
    # total leaves stored cells above the cap; a grid widened from the inner
    # box [-1, 3] x [0, 3] must sum the row z = -2 just below it
    box, top = ((-2, 3), (0, 3)), 6
    series = {0: HM.y_field(bgen(), vac(), 3)[0]}
    cut = {"z floor": (inf, (-1, None)), "w floor": (inf, (None, 1)),
           "top": (top, (None, None))}.get(case)
    power = MUL12.power if cut is None else (lambda k, floors=None:
                                             clip(MUL12.power(k, floors=floors), *cut))
    A = SimpleNamespace(law=SimpleNamespace(trunc=MUL12.trunc, power=power),
                        adapter=HM.adapter, y_kmin=HM.y_kmin, y_coeff=HM.y_coeff)
    tot_cap = top - 1 if case == "tot_cap" else None
    want = grid_outcome(lambda: group_law_grid_reads(A, bgen(), series, box, tot_cap))
    assert isinstance(want, str) == (cut is not None), want
    inner = None
    if case == "inner":
        inner = y_at_group_law_grid(A, bgen(), series, ((-1, 3), (0, 3)))
        assert any(i == -2 for i, j in want)
    assert grid_outcome(lambda: y_at_group_law_grid(A, bgen(), series, box, tot_cap,
                                                    inner=inner)) == want


# -- the three-term delta Jacobi identity ---------------------------------------


def test_jacobi_identity_trivial():
    a = st_add(vac(), TRIV.eps)
    r = jacobi_identity_check(TRIV, a, a, vac(), B=3)
    assert r.ok
    assert r.details["cells"] == 7 ** 3


def test_jacobi_identity_additive_box4():
    r = jacobi_identity_check(HA, bgen(), bgen(), vac(), B=4)
    assert r.ok
    assert r.details == {"cells": 9 ** 3, "N": 2}


def test_jacobi_identity_multiplicative_box4():
    r = jacobi_identity_check(HM, bgen(), bgen(), vac(), B=4)
    assert r.ok
    assert r.details == {"cells": 9 ** 3, "N": 2}


@pytest.mark.parametrize("kind,params", [("multiplicative", {}), ("additive", {}),
                                         ("p_typical", {"p": 2, "h": 1})])
def test_jacobi_identity_power_depth_is_tight(kind, params, monkeypatch):
    # the check asks for the powers of F(z, iota w) below the largest total
    # degree its loops read, plus one; one degree less, and a read raises
    # WindowMiss instead of passing
    law = standard_law(kind, trunc=18, **params)
    A = HeisenbergAlgebra(law, W=6)
    r = jacobi_identity_check(A, bgen(), bgen(), vac(), B=3)
    assert r.ok and r.details == {"cells": 7 ** 3, "N": 2}
    power = law.power

    def shallower(n, *args, trunc=None, **kw):
        return power(n, *args, trunc=None if trunc is None else trunc - 1, **kw)

    monkeypatch.setattr(law, "power", shallower)
    with pytest.raises(WindowMiss, match=r"cell \(5, 5\) .*\(trunc 10,"):
        jacobi_identity_check(A, bgen(), bgen(), vac(), B=3)


def test_every_region_read_lies_in_its_checked_region(monkeypatch):
    # a reader checked once on a region skips the per-cell check, so every
    # cell it reads must lie in that region: on or above its lows, of total
    # degree at most its top (the delta runs and the powers of the delta
    # towers and of the vertex Jacobi check).  With a or b the vacuum, the
    # Y products hold no cell of large z or w exponent, and the Jacobi
    # lows -B - j1 and -B - j2 are the least cells read
    reader = LaurentElement._reader
    reads = []

    def checked(self, lows, top):
        read = reader(self, lows, top)

        def run(e):
            reads.append(e)
            assert all(x >= lo for x, lo in zip(e, lows)) and sum(e) <= top, (e, lows, top)
            return read(e)
        return run

    monkeypatch.setattr(LaurentElement, "_reader", checked)
    assert f_jacobi_delta_check(standard_law("elliptic", trunc=12), B=4).ok
    for a, b in ((bgen(), bgen()), (vac(), bgen()), (bgen(), vac())):
        assert jacobi_identity_check(HM, a, b, vac(), B=3).ok
    assert len(reads) > 1000


def test_jacobi_kernel_grid_widened_equals_the_grid_built_wide(monkeypatch):
    # the kernel grid at a wider w-top sums only its new rows and columns;
    # the widened grid equals the one built at that w-top, cell for cell
    law = standard_law("multiplicative", trunc=18)
    A = HeisenbergAlgebra(law, W=6)
    route = vertex._group_route_grid
    grids = []

    def recorded(*args, **kw):
        grids.append((args, kw, route(*args, **kw)))
        return grids[-1][2]

    monkeypatch.setattr(vertex, "_group_route_grid", recorded)
    assert jacobi_identity_check(A, bgen(), bgen(), vac(), B=3).ok
    assert [args[4] for args, _, _ in grids] == [(3, 14), (3, 16)]
    args, kw, widened = grids[-1]
    assert kw["inner"] is grids[0][2]
    fresh = route(*args, tot_cap=kw["tot_cap"])
    assert widened.coeffs
    r, q = widened.region, fresh.region
    assert (widened.coeffs, r.lows, r.highs, r.top, r.stated) == \
        (fresh.coeffs, q.lows, q.highs, q.top, q.stated)


# -- cocycle ----------------------------------------------------------------------


def tpoly(law, coeffs):
    R = law.ring
    return LaurentElement(R, ("t",),
                          {(e,): R.from_fraction(Fraction(c))
                           for e, c in coeffs.items()},
                          law.trunc)


@pytest.mark.parametrize("law", [ADD, MUL], ids=["additive", "multiplicative"])
def test_cocycle_pairing_values(law):
    for n in range(1, 7):
        v = heisenberg_cocycle(law, tpoly(law, {n: 1}), tpoly(law, {-n: 1}))
        assert v == Fraction(n)
    assert heisenberg_cocycle(law, tpoly(law, {1: 1}), tpoly(law, {1: 1})) == 0


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4),
       st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=4))
def test_cocycle_antisymmetry(cf, cg):
    f = tpoly(ADD, cf)
    g = tpoly(ADD, cg)
    assert heisenberg_cocycle(ADD, f, g) == -heisenberg_cocycle(ADD, g, f)


# -- quotient and bracket ----------------------------------------------------------


def test_quotient_kills_shift_images():
    assert quotient_reduce(HA, HA.shift(1, bgen())).is_zero()
    assert quotient_reduce(HM, HM.shift(2, bgen())).is_zero()


def test_quotient_vacuum_survives():
    assert quotient_reduce(HA, vac()).rep == vac()


def test_quotient_generator_class_nonzero():
    q = quotient_reduce(HA, bgen())
    assert not q.is_zero()
    assert q.rep == bgen()
    assert repr(q) == "LieClass((1)*b(-1))"
    assert repr(HA.adapter) == "StateSpace(Ring(rationals))"


def test_quotient_reduction_is_order_independent():
    # rebuild the modulus inserting the spanning rows in reverse; the
    # reduced representative must not depend on that order
    A = HA
    rows = []
    for mono in A.basis_monomials():
        s = {mono: Fraction(1)}
        for n in range(1, A.W + 1):
            img = A.shift(n, s)
            if img:
                rows.append(img)
    Q2 = ShiftQuotient.__new__(ShiftQuotient)
    Q2.A, Q2.pivots = A, {}
    for row in reversed(rows):
        Q2._insert(row)
    for mono in A.basis_monomials():
        s = {mono: Fraction(2)}
        assert Q2.reduce_raw(s) == quotient_reduce(A, s).rep


def test_bracket_generator_pair_additive():
    # Res of b(z) b(-1)vac picks b_0 b(-1)vac = 0 for the additive law
    assert lie_bracket(HA, bgen(), bgen()).is_zero()
    assert lie_bracket(HA, bgen(), vac()).is_zero()
    assert lie_bracket(HA, vac(), bgen()).is_zero()


def test_bracket_generator_pair_multiplicative_weighted():
    # away from the additive law the invariant differential weights the
    # residue: [b,b] = p^F_1 * (b_1 b(-1) vac) = -vac here, and the class
    # survives (this is the recorded skew-defect pair)
    q = lie_bracket(HM, bgen(), bgen())
    c1 = MUL.pF.coefficient((1,))
    assert q.rep == {(): Fraction(c1)}


def _classical_bracket(A, a, b):
    # independent oracle for the additive law: the classical vertex algebra
    # residue Res Y(a,z)b = a_(0) b, with Y(alpha vac + beta b(-1)vac, z) =
    # alpha id + beta b(z)
    alpha = a.get((), Fraction(0))
    beta = a.get((-1,), Fraction(0))
    del alpha  # the identity component has no z^-1 coefficient
    return st_scale(b_apply(0, b), beta)


def test_additive_bracket_table_matches_classical_oracle():
    samples = [vac(), bgen(), st_add(vac(), bgen()),
               st_scale(bgen(), Fraction(3, 2))]
    for a in samples:
        for b in samples:
            want = quotient_reduce(HA, _classical_bracket(HA, a, b))
            assert lie_bracket(HA, a, b) == want


@pytest.mark.parametrize("A", [HA, HM], ids=["additive", "multiplicative"])
def test_lie_axiom_check(A):
    r = lie_axiom_check(A)
    assert r.ok, r.status
    assert r.details["triples"] == 8
    if A is HA:
        assert r.details["skew_defect_pairs"] == []
        assert r.details["conjugation_defect_pairs"] == []
    else:
        assert r.details["skew_defect_pairs"] == [[1, 1]]
        assert r.details["conjugation_defect_pairs"] == [[1, 1]]


def test_descent_series_reads_no_power_series_residue():
    # Y(vac,z)b = b sits at z^0, and F(z,w)^0 has no z-residue at any w^m:
    # the series is exactly zero, also for m beyond the law's truncation
    for b in HM.samples():
        assert shifted_bracket_series(HM, HM.vacuum, b, MUL.trunc + 3) == \
            [{}] * (MUL.trunc + 4)


def test_lie_axiom_check_trivial():
    r = lie_axiom_check(TRIV)
    assert r.ok
    assert r.details["skew_defect_pairs"] == []


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
def test_bracket_is_bilinear_additive(a0, a1, b0, b1):
    a = st_add(st_scale(vac(), a0), st_scale(bgen(), a1))
    b = st_add(st_scale(vac(), b0), st_scale(bgen(), b1))
    lhs = lie_bracket(HA, a, b)
    rhs = quotient_reduce(HA, {})
    for ca, sa in ((a0, vac()), (a1, bgen())):
        for cb, sb in ((b0, vac()), (b1, bgen())):
            part = lie_bracket(HA, sa, sb)
            rhs = rhs + quotient_reduce(HA, st_scale(part.rep, Fraction(ca) * cb))
    assert lhs == rhs


def test_residue_of_field_reads_only_certified_p_F_cells():
    # the term at z^e meets p_F's cell -1 - e; p_F = 1/(1 + z) is certified
    # below t = trunc - 1, so e = -t reads its last cell and every deeper
    # term raises instead of meeting a silent 0
    t = MUL.pF.trunc
    assert _residue_of_field(MUL, {-t: bgen(), 0: vac()}) == \
        {(-1,): Fraction((-1) ** (t - 1))}
    for e in (-1 - t, -1 - MUL.trunc):
        with pytest.raises(WindowMiss, match=re.escape(str((-1 - e,)))):
            _residue_of_field(MUL, {e: bgen()})


# -- construction and serialization ------------------------------------------------


def test_reports_serialize():
    r = axiom_check(TRIV, "weak_associativity")
    j = r.to_json()
    assert j["status"] == "pass"
    assert j["identity"] == "axiom/weak_associativity"
    q = lie_bracket(HA, bgen(), bgen())
    assert state_to_json(quotient_reduce(HA, vac()).rep) == [{"mono": [], "coeff": "1"}]
    assert state_to_json(q.rep) == []


def test_meromorphicity_serializes():
    mp = meromorphicity_pair(HA, bgen(), bgen(), vac())
    j = mp.to_json()
    assert j["N"] == 2
    assert set(j["checks"]) == {"n_independence", "w_dominant",
                                "operator_product"}
