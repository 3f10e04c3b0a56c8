from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial, inf

import pytest
from hypothesis import given, settings, strategies as st

from fglcalc.ring import Ring
from fglcalc.series import (BilateralWindow, EmptyWindow, LaurentElement,
                            OrderingMismatch, PowerSeries, WindowMiss, comb_any)
from fglcalc.fgl import FormalGroupLaw, standard_law
from fglcalc.calculus import (
    FBinomialTable,
    Report,
    _compare,
    _delta_tower,
    _tower_cell,
    _inverse_expansions,
    delta_F,
    delta_g_relation_check,
    delta_phi_relation_check,
    delta_residue_check,
    delta_support_check,
    f_binomial,
    f_binomial_identities,
    f_jacobi_delta_check,
    f_residue,
    hyperderivative,
    hyperderivative_properties,
    hyperderivatives,
    iterated_residue_check,
    product_residue,
    residue_inversion_check,
    residue_theorems_check,
)
from fglcalc.cli import ITERATED_TRIPLES
from binomial_oracle import clip, swap_variables
from delta_tower_oracle import delta_tower
from hyperderivative_oracle import hyperderivative_expansion, slice_w

QQ = Ring.rationals()

ADD = standard_law("additive")
MUL = standard_law("multiplicative")
ONEP = standard_law("one_parameter")


def laurent(law, coeffs):
    R = law.ring
    return LaurentElement(R, ("z",),
                          {(e,): R.from_int(c) for e, c in coeffs.items()},
                          law.trunc)


# -- binomial tables -------------------------------------------------------


def test_f_binomial_additive_closed_form():
    # oracle: (z+w)^n expands by the plain binomial theorem, so the entry at
    # (i, j) is C(n, j) precisely when i + j = n
    for n in range(-3, 4):
        tab = f_binomial(ADD, n)
        for (i, j), c in tab.items():
            assert i + j == n
            assert c == Fraction(comb_any(n, j)), (n, i, j)


def test_f_binomial_one_parameter_closed_form():
    # oracle: C(n,j) C(j, i+j-n) s^{i+j-n}
    R = ONEP.ring
    s = R.param("s")
    for n in range(-3, 4):
        tab = FBinomialTable(ONEP, nmax=3)
        sl = tab.slices[n]
        for i in range(max(-6, n - 6), 7):
            for j in range(0, 5):
                if not sl.reliable_at((i, j)):
                    continue
                k = i + j - n
                want = R.zero()
                if k >= 0:
                    want = R.from_int(comb_any(n, j) * comb_any(j, k))
                    for _ in range(k):
                        want = R.mul(want, s)
                assert R.eq(sl.coefficient((i, j)), want), (n, i, j)


def test_f_binomial_vanishing_region():
    for law in (ADD, MUL, ONEP):
        tab = FBinomialTable(law, nmax=3)
        for n, sl in tab.slices.items():
            for (i, j), c in sl.coeffs.items():
                assert j >= 0 and i + j >= n, (law.name, n, i, j)


def test_f_binomial_kronecker_column():
    # the j = 0 column of slice n is the Kronecker delta in n
    for law in (ADD, MUL, ONEP):
        tab = FBinomialTable(law, nmax=3)
        R = law.ring
        for n in range(-3, 4):
            for i in range(-5, 6):
                if not tab.slices[n].reliable_at((i, 0)):
                    continue
                want = R.one() if i == n else R.zero()
                assert R.eq(tab.entry(n, i, 0), want), (law.name, n, i)


def test_f_binomial_identities_pass():
    for law in (ADD, MUL, ONEP):
        rep = f_binomial_identities(law, nmax=2, smax=3)
        assert rep.ok, rep.to_json()
        assert rep.details["entries_checked"] > 100


def test_f_binomial_fault_injection():
    R = MUL.ring
    rep = f_binomial_identities(MUL, nmax=2, smax=2,
                                override={(2, 3, 0): R.from_int(7)})
    assert not rep.ok
    assert rep.status["fail"]["monomial"] == [2, 3, 0]


def per_cell_entries_checked(law, nmax, smax):
    # the reference count of f_binomial_identities on a law that passes:
    # every entry of every convolution sum is read through
    # FBinomialTable.entry, and a miss on any of them skips the cell; a
    # symmetry pair counts when both of its cells are certified
    table = FBinomialTable(law, nmax=2 * nmax)
    checked = 0
    for n in range(-nmax, nmax + 1):
        s = table.slices[n]
        low = -6 if s.floors[0] is None else max(-6, s.floors[0])
        checked += sum(s.reliable_at((i, 0)) for i in range(low, 7))
        if n >= 0:
            checked += sum(s.reliable_at((j, i)) for i, j in s.coeffs)
    for m in range(-nmax, nmax + 1):
        for n in range(-nmax, nmax + 1):
            for s in range(0, smax + 1):
                for r in range(m + n - s, m + n + smax + 1):
                    try:
                        table.entry(m + n, r, s)
                        for j in range(0, s + 1):
                            for i in range(m - j, r - n + s - j + 1):
                                table.entry(m, i, j)
                                table.entry(n, r - i, s - j)
                    except WindowMiss:
                        continue
                    checked += 1
    return checked


def test_f_binomial_convolution_rows_decide_by_their_ends(monkeypatch):
    # truncated slices make whole convolution rows miss, at either end; the
    # row test by certified spans, which the end cells of a row decide,
    # skips exactly the cells a per-cell read skips.
    # F^2 clipped below z = 1 keeps its cell z^2 but not the transposed w^2,
    # a symmetry pair that is skipped, not failed
    law = standard_law("multiplicative", trunc=10)
    full = f_binomial_identities(law, nmax=2, smax=3).details["entries_checked"]
    assert full == per_cell_entries_checked(law, 2, 3)
    power = law.power

    def truncated(n, *args, **kw):
        # three slices cut in total degree, three clipped below in z
        p = power(n, *args, **kw)
        return clip(p, {1: 3, -2: 2, 3: 6}.get(n, p.trunc),
                    {-1: (-2, None), -3: (-4, None), 2: (1, None)}.get(n, (None, None)))

    monkeypatch.setattr(law, "power", truncated)
    rep = f_binomial_identities(law, nmax=2, smax=3)
    assert rep.ok, rep.to_json()
    assert rep.details["entries_checked"] == per_cell_entries_checked(law, 2, 3) < full


def test_f_binomial_table_window_miss():
    tab = FBinomialTable(MUL, nmax=2)
    with pytest.raises(WindowMiss):
        tab.entry(-1, -40, 0)


def test_double_composition_identity():
    # sum_i (m over i,s)(i over j,r) is symmetric in (r, s)
    tab = FBinomialTable(MUL, nmax=8)
    R = MUL.ring
    for m in range(0, 4):
        for r in range(0, 3):
            for s in range(0, 3):
                for j in range(-1, 5):
                    lhs = R.zero()
                    rhs = R.zero()
                    for i in range(m - 3, 2 * m + 1):
                        lhs = R.add(lhs, R.mul(tab.entry(m, i, s),
                                               tab.entry(i, j, r)))
                        rhs = R.add(rhs, R.mul(tab.entry(m, i, r),
                                               tab.entry(i, j, s)))
                    assert R.eq(lhs, rhs), (m, r, s, j)


# -- delta distributions ---------------------------------------------------


def test_delta_additive_displayed_series():
    win = delta_F(ADD, box=(-6, 6))
    R = ADD.ring
    for e0 in range(-6, 7):
        for e1 in range(-6, 7):
            e = (e0, e1)
            if not win.region._contains(e):
                continue
            want = R.one() if e1 == -e0 - 1 else R.zero()
            assert R.eq(win.coeffs.get(e, R.zero()), want), e


def test_delta_one_parameter_displayed_series():
    # z^{-1} delta_{F_s}(w/z) = (1 + s w) sum_n w^n z^{-n-1}
    win = delta_F(ONEP, box=(-6, 6))
    R = ONEP.ring
    s = R.param("s")
    for e0 in range(-6, 7):
        for e1 in range(-6, 7):
            e = (e0, e1)
            if not win.region._contains(e):
                continue
            if e1 == -e0 - 1:
                want = R.one()
            elif e1 == -e0:
                want = s
            else:
                want = R.zero()
            assert R.eq(win.coeffs.get(e, R.zero()), want), e


def test_delta_support_univariate():
    for law in (ADD, MUL, ONEP):
        for coeffs in ({1: 1}, {-1: 1}, {2: 3, -1: 1}):
            rep = delta_support_check(law, laurent(law, coeffs))
            assert rep.ok, (law.name, coeffs, rep.to_json())


def test_delta_support_two_variable():
    # f(z, w) = F(z, iota w) vanishes on the diagonal, so delta * f = 0
    f = MUL.f_z_iota_w()
    rep = delta_support_check(MUL, f)
    assert rep.ok, rep.to_json()
    # the truncation of f is a polynomial, exact with truncation inf, that
    # vanishes on the diagonal too: each total degree of F(w, iota w) = 0
    # vanishes by itself
    D = delta_F(MUL)
    prod = D * LaurentElement(f.ring, f.vars, f.coeffs, inf)
    assert prod.is_zero_on_window()


def test_delta_g_relation():
    for law in (ADD, MUL, ONEP):
        rep = delta_g_relation_check(law)
        assert rep.ok, (law.name, rep.to_json())
        assert rep.details["window_size"] > 0


def test_delta_invariant_factor_relation():
    for law in (ADD, MUL, ONEP):
        rep = delta_phi_relation_check(law)
        assert rep.ok, (law.name, rep.to_json())


def test_delta_relations_elliptic():
    law = standard_law("elliptic")
    assert delta_g_relation_check(law).ok
    assert delta_phi_relation_check(law).ok


def test_f_jacobi_additive():
    law = standard_law("additive", trunc=16)
    rep = f_jacobi_delta_check(law, B=4)
    assert rep.ok, rep.to_json()
    assert rep.window["jacobi"] == [[-4, 4], [-4, 4], [-4, 4]]


def test_f_jacobi_one_parameter():
    law = standard_law("one_parameter", trunc=12)
    rep = f_jacobi_delta_check(law, B=3)
    assert rep.ok, rep.to_json()


@pytest.mark.parametrize("kind", ["multiplicative", "elliptic"])
def test_f_jacobi_computes_each_power_once(kind, monkeypatch):
    # the towers share the twisted powers they have in common through the
    # law's table.  A twisted power is G^n times a binomial line, and G^n
    # is an entry of its own, computed once per n and no deeper than the
    # towers read
    B = 2
    law = standard_law(kind, trunc=8)
    R = law.ring
    before = set(law._powers)
    calls = Counter()
    int_power = LaurentElement.int_power
    truncs = {}

    def counted(self, n, floors=None):
        # the base by its cells, whatever its variable names
        base = tuple(sorted((e, R.to_text(c)) for e, c in self.coeffs.items()))
        calls[base, self.trunc, n, floors] += 1
        out = int_power(self, n, floors)
        truncs[base, self.trunc, n, floors] = out.trunc
        return out

    monkeypatch.setattr(LaurentElement, "int_power", counted)
    rep = f_jacobi_delta_check(law, B=B)
    assert rep.ok, rep.to_json()
    assert rep.window == {"jacobi": [[-2, 2]] * 3, "exchange": [[-2, 2]] * 3}
    assert rep.details == {"window_size": 124}
    assert calls
    assert [k[2:] for k, v in calls.items() if v > 1] == []
    g_keys = {k for k in set(law._powers) - before if k[0] == "G"}
    # no box cell of [-2, 2]^3 reads a power above n = 2B, nor a base cell
    # of total degree above 2B
    assert max(k[2] for k in calls) <= 2 * B
    assert [t for k, t in truncs.items() if k[2] >= 2 and t > 2 * B + 1] == []
    # each G^n came from one int_power call on G cut at its depth: the full
    # G for n = 1, for n = -1 (the delta reads F(z, iota w)^-1 whole) and
    # for the powers the towers read whole, G below 2B + 1 - n (at least 1)
    # where they read F(z, iota w)^n below 2B + 1
    G = law.G

    def g_cells(t):
        return tuple(sorted((e, R.to_text(c)) for e, c in G.truncate(t).coeffs.items()))

    g_calls = Counter(n for (base, t, n, _) in calls.elements() if base == g_cells(t))
    assert sorted(g_calls) == sorted(n for _, n in g_keys)
    assert set(g_calls.values()) == {1}
    for _, n in g_keys:
        uncut = n in (-1, 1) or 2 * B + 1 >= law.trunc - 1 + n
        want = G.trunc if uncut else max(1, 2 * B + 1 - n)
        assert law._powers["G", n].trunc == want, n


@pytest.mark.parametrize("kind,params", [("multiplicative", {}), ("elliptic", {}),
                                         ("p_typical", {"p": 2, "h": 1})])
def test_f_jacobi_power_depth_is_tight(kind, params, monkeypatch):
    # the towers ask for each power below total degree 2B + 1; one degree
    # less, and the towers' max total shrinks the certified window instead
    # of letting an uncertified read pass
    law = standard_law(kind, trunc=12, **params)
    power = law.power

    def shallower(n, *args, trunc=None, **kw):
        return power(n, *args, trunc=None if trunc is None else trunc - 1, **kw)

    def sizes():
        reps = [f_jacobi_delta_check(law, B=B) for B in (2, 3, 4)]
        assert all(rep.ok for rep in reps)
        return [rep.details["window_size"] for rep in reps]

    assert sizes() == [125, 343, 719]
    monkeypatch.setattr(law, "power", shallower)
    assert sizes() == [90, 259, 564]


# the four towers of f_jacobi_delta_check: base variables, out variable,
# twisted, dominant
TOWERS = {"t1": (("z1", "z2"), "z0", True, 0), "t2": (("z1", "z2"), "z0", True, 1),
          "t3": (("z1", "z0"), "z2", True, 0), "t4": (("z2", "z0"), "z1", False, 0)}
TOWER_LAWS = [("additive", {}), ("multiplicative", {}), ("one_parameter", {}),
              ("elliptic", {}), ("p_typical", {"p": 2, "h": 1}),
              ("p_typical", {"p": 3, "h": 1})]


@pytest.mark.parametrize("k", range(len(TOWER_LAWS)),
                         ids=[kind + "".join(f"-{v}" for v in p.values())
                              for kind, p in TOWER_LAWS])
def test_delta_tower_matches_oracle(k):
    # every truncation on each law, with B cycling so that each law meets
    # every B; the windows must agree cell by cell, and on their regions
    kind, params = TOWER_LAWS[k]
    cells = 0
    for i, t in enumerate((4, 5, 6, 7, 8, 9, 12)):
        B = (2, 3, 4)[(i + k) % 3]
        law = standard_law(kind, trunc=t, **params)
        a, b = _inverse_expansions(law)
        for name, (base_vars, out_var, twisted, dominant) in TOWERS.items():
            power = partial(law.power, twisted=twisted, dominant=dominant)
            got = _delta_tower(a - b, power, base_vars, out_var, B)
            want = delta_tower(law, (a, b), lambda n: power(n).rename(base_vars),
                               base_vars, out_var, B)
            r, q = got.region, want.region
            assert (got.coeffs, r.lows, r.highs, r.top, r.stated) == \
                (want.coeffs, q.lows, q.highs, q.top, q.stated), (t, B, name)
            cells += got.region._size()
    assert cells


def tower_cell_reads(delta, power, m, cell):
    """The tower cell with every delta and power read through ``certified``:
    the per-cell reads that ``_tower_cell`` checks once per run."""
    R = delta.ring
    r = R.zero()
    for n in range(-m - 1, sum(cell) + 1):
        d = delta.certified((m, n))
        if d:
            c = power(n).certified(cell)
            if c:
                r = R.add(r, R.mul(d, c))
    return r


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_tower_cell_checks_its_delta_run_as_the_per_cell_reads(data):
    # over random runs (m, -m-1)...(m, tot(cell)) and truncations and floors
    # of delta near the run's ends, and random powers: the run checked by
    # its two ends sums what the per-cell reads sum, and raises WindowMiss
    # exactly where they raise
    def element(vars, zs, ws, floors, trunc):
        cells = st.tuples(st.integers(*zs), st.integers(*ws))
        coeffs = data.draw(st.dictionaries(cells, st.integers(-2, 2), max_size=10))
        return LaurentElement(QQ, vars, {e: Fraction(c) for e, c in coeffs.items()},
                              data.draw(trunc), data.draw(st.tuples(*floors)))

    m = data.draw(st.integers(-4, 4))
    cell = data.draw(st.tuples(*[st.integers(-4, 4)] * 2))
    top = sum(cell)
    delta = element(("out", "u"), (m - 1, m + 1), (-m - 2, max(-m - 2, top + 1)),
                    (st.none() | st.integers(m - 1, m + 1),
                     st.none() | st.integers(-m - 2, -m)),
                    st.integers(m + top - 1, m + top + 2))
    powers = {n: element(("x", "y"), (-4, 5), (-4, 5), [st.none() | st.integers(-5, 5)] * 2,
                         st.integers(-4, 10))
              for n in range(-m - 1, top + 1)}
    got = _outcome(lambda: _tower_cell(delta, lambda n: powers[n].certified, m, cell))
    want = _outcome(lambda: tower_cell_reads(delta, powers.__getitem__, m, cell))
    assert got == want


@pytest.mark.parametrize("kind", ["multiplicative", "elliptic"])
def test_hyperderivative_properties_computes_each_power_once(kind, monkeypatch):
    # F(z,w)^e, e < 0, is cut three truncation orders deep whatever the
    # truncation of the series being expanded, so one power serves them all
    law = standard_law(kind, trunc=10)
    R = law.ring
    calls = Counter()
    int_power = LaurentElement.int_power

    def counted(self, n, floors=None):
        base = tuple(sorted((e, R.to_text(c)) for e, c in self.coeffs.items()))
        calls[base, self.trunc, n, floors] += 1
        return int_power(self, n, floors)

    monkeypatch.setattr(LaurentElement, "int_power", counted)
    rep = hyperderivative_properties(law)
    monkeypatch.undo()
    assert rep.ok, rep.to_json()
    assert [k[2:] for k, v in calls.items() if v > 1] == []
    # each monomial's expansion is the substitution it stands for, on every
    # cell that both certify: the floors differ by design, as the expansion
    # cuts negative powers at -3 * trunc and the substitution at
    # int_power's default -trunc
    Fzw = law.as_laurent()
    for t in (law.trunc - 3, law.trunc, law.trunc + 2):
        for e in range(-4, 7):
            mono = LaurentElement(R, ("z",), {(e,): R.one()}, t)
            got = hyperderivative_expansion(law, mono)
            want = mono.substitute({"z": Fzw})
            assert got.trunc == want.trunc, (e, t)
            cells = [x for x in got.coeffs.keys() | want.coeffs.keys()
                     if got.reliable_at(x) and want.reliable_at(x)]
            assert cells, (e, t)
            for x in cells:
                assert got.coefficient(x) == want.coefficient(x), (e, t, x)
    # a sum of monomials expands to the sum of their scaled expansions,
    # added one by one
    f = LaurentElement(R, ("z",), {(e,): R.from_int(e - 2) for e in range(-4, 7)},
                       law.trunc - 1)
    want = LaurentElement.zero(R, ("z", "w"), f.trunc)
    for (e,), c in f.coeffs.items():
        mono = LaurentElement(R, ("z",), {(e,): R.one()}, f.trunc)
        want = want + hyperderivative_expansion(law, mono).scale(c)
    got = hyperderivative_expansion(law, f)
    assert (got.coeffs, got.trunc, got.floors) == (want.coeffs, want.trunc, want.floors)


HYPER_LAWS = [("additive", {}), ("multiplicative", {}), ("one_parameter", {}),
              ("elliptic", {}), ("p_typical", {"p": 2, "h": 1}),
              ("p_typical", {"p": 3, "h": 1})]


@cache
def hyper_law(k, t):
    kind, params = HYPER_LAWS[k]
    return standard_law(kind, trunc=t, **params)


@given(k=st.integers(0, len(HYPER_LAWS) - 1), t=st.sampled_from([6, 12, 16]),
       nmax=st.sampled_from([0, 3, 10]), ftrunc=st.integers(-3, 3),
       coeffs=st.dictionaries(st.integers(-6, 8), st.integers(-5, 5), max_size=5))
@settings(max_examples=60, deadline=None)
def test_hyperderivative_slices_match_the_expansion(k, t, nmax, ftrunc, coeffs):
    # the slice route equals slicing the full expansion, whose negative
    # powers are cut three truncation orders deep: cells and truncation of
    # every S_n, for both entry points.  S_n carries no floor, and no cell
    # of the expansion's slice n lies below z^(e_min - n), e_min the least
    # exponent of f: the support the floor-free S_n claims
    law = hyper_law(k, t)
    R = law.ring
    f = LaurentElement(R, ("z",), {(e,): R.from_int(c) for e, c in coeffs.items()},
                       t + ftrunc)
    e_min = min((e for (e,) in f.coeffs), default=0)
    g = hyperderivative_expansion(law, f)
    got = hyperderivatives(law, f, nmax)
    assert len(got) == nmax + 1
    for n, sn in enumerate(got):
        want = slice_w(g, n)
        assert (sn.vars, sn.coeffs, sn.trunc, sn.floors) == \
            (want.vars, want.coeffs, want.trunc, (None,)), n
        assert all(i >= e_min - n for (i,) in want.coeffs), n
    one = hyperderivative(law, f, nmax)
    assert (one.coeffs, one.trunc, one.floors) == \
        (got[nmax].coeffs, got[nmax].trunc, got[nmax].floors)


def test_hyper_slices_one_grade_short_raise_window_miss(monkeypatch):
    # were the negative powers capped one w-degree below the slices read,
    # the top slice would be missing: that is a WindowMiss, never a slice
    # read as zero
    law = standard_law("elliptic", trunc=12)
    f = laurent(law, {-2: 1, -1: 3, 2: 1})
    want = hyperderivatives(law, f, 3)
    real = law.power_slices
    monkeypatch.setattr(law, "power_slices",
                        lambda n, cap: real(n, cap - 1))
    for nmax in (1, 3, 6):
        with pytest.raises(WindowMiss):
            hyperderivatives(law, f, nmax)
    with pytest.raises(WindowMiss):
        hyperderivative(law, f, 2)
    monkeypatch.undo()
    assert [(s.coeffs, s.trunc, s.floors) for s in hyperderivatives(law, f, 3)] == \
        [(s.coeffs, s.trunc, s.floors) for s in want]


def test_hyperderivatives_refuse_a_floored_input():
    # f1 = z^-1 cut below z^-2 agrees with f2 = z^-1 + z^-5 wherever f1 is
    # known, yet S_n f2 has a cell at z^(-5 - n): every S_n of f1 would
    # read its unknown cells, so a floored input is refused, as substitute
    # refuses one
    law = MUL
    R = law.ring
    f1 = LaurentElement(R, ("z",), {(-1,): R.one()}, 12, floors=(-2,))
    f2 = laurent(law, {-1: 1, -5: 1})
    s2 = hyperderivatives(law, f2, 2)
    assert all(s2[n].coefficient((-5 - n,)) for n in range(3))
    with pytest.raises(ValueError, match="floors"):
        hyperderivatives(law, f1, 2)
    with pytest.raises(ValueError, match="floors"):
        hyperderivative(law, f1, 1)


# -- residues --------------------------------------------------------------


def test_f_residue_additive_is_classical():
    f = laurent(ADD, {-1: 5, 2: 3, -3: 1})
    assert f_residue(ADD, f) == Fraction(5)


def test_f_residue_delta_unit():
    for law in (ADD, MUL, ONEP, standard_law("elliptic")):
        rep = delta_residue_check(law)
        assert rep.ok, (law.name, rep.to_json())


@pytest.mark.parametrize("trunc", [4, 5, 6, 7])
def test_delta_unit_window_is_what_the_residue_certifies(trunc):
    # a box reaching past the truncation: the window stops at the last
    # certified w-exponent, trunc - 2, and every cell in it is certified
    for kind, params in TOWER_LAWS:
        law = standard_law(kind, trunc=trunc, **params)
        rep = delta_residue_check(law, box=(-9, 9))
        assert rep.ok, (kind, rep.to_json())
        lo, hi = rep.window
        assert (lo, hi) == (-trunc, trunc - 2), kind
        a, b = _inverse_expansions(law)
        res = f_residue(law, a - b, "z")
        assert all(res.reliable_at((k,)) for k in range(lo, hi + 1)), kind
        assert not res.reliable_at((hi + 1,)) and not res.reliable_at((lo - 1,)), kind


def test_residue_inversion():
    for law in (ADD, MUL, ONEP):
        rep = residue_inversion_check(law, samples=8, seed=1)
        assert rep.ok, (law.name, rep.to_json())


def test_residue_theorems_sampled():
    for law in (ADD, MUL):
        rep = residue_theorems_check(law, nmax=4, samples=8, seed=0)
        assert rep.ok, (law.name, rep.to_json())
        assert rep.window["seed"] == 0


def test_residue_theorems_elliptic_by_parts():
    law = standard_law("elliptic")
    rep = residue_theorems_check(law, nmax=2, samples=3, seed=0)
    assert rep.ok, rep.to_json()


def test_iterated_residue_monomials():
    triples = [(a, b, -2 - a - b) for a in range(-3, 2) for b in range(-2, 2)]
    assert iterated_residue_check(ADD, triples).ok
    assert iterated_residue_check(MUL, [(-1, 0, -1), (-2, 1, -1)]).ok


def test_iterated_residue_elliptic():
    law = standard_law("elliptic")
    assert iterated_residue_check(law, [(-2, 1, -1)]).ok


@pytest.mark.parametrize("t", [6, 12, 18])
def test_iterated_residue_depth_follows_p_F(t, monkeypatch):
    # the default triples pass on every built-in law with the twisted powers
    # cut at -(1 + deg p_F + largest shift), and a cut one order shallower
    # raises WindowMiss in the residue instead of passing
    shift = max(max(x) for x in ITERATED_TRIPLES)
    for kind, params in TOWER_LAWS:
        law = standard_law(kind, trunc=t, **params)
        depth = 1 + max(k for (k,) in law.pF.coeffs) + shift
        power, cuts = law.power, set()

        def cut(n, *, floors, lift=0, **kw):
            cuts.add(floors)
            return power(n, floors=tuple(f + lift for f in floors), **kw)

        monkeypatch.setattr(law, "power", cut)
        rep = iterated_residue_check(law, ITERATED_TRIPLES)
        assert rep.ok, rep.to_json()
        assert cuts == {(-depth, -depth)}, kind
        monkeypatch.setattr(law, "power", partial(cut, lift=1))
        with pytest.raises(WindowMiss):
            iterated_residue_check(law, ITERATED_TRIPLES)


@pytest.mark.parametrize("t", [6, 12])
def test_iterated_residue_powers_stop_at_the_cells_read(t, monkeypatch):
    # each twisted power is asked for below total degree a + 1 and agrees
    # with the full power on every cell of total degree <= a, the only ones
    # the two residues read; asked one degree lower, a residue raises
    # WindowMiss instead of passing
    for kind, params in TOWER_LAWS:
        law = standard_law(kind, trunc=t, **params)
        power, reads = law.power, []

        def capped(n, *, trunc, drop=0, **kw):
            got = power(n, trunc=trunc - drop, **kw)
            reads.append((n, trunc, kw, got))
            return got

        monkeypatch.setattr(law, "power", capped)
        rep = iterated_residue_check(law, ITERATED_TRIPLES)
        assert rep.ok, rep.to_json()
        assert {n for n, *_ in reads} == {a for a, _, _ in ITERATED_TRIPLES} | \
            {c for _, _, c in ITERATED_TRIPLES}
        for n, trunc, kw, got in reads:
            assert trunc == n + 1, kind
            full = power(n, **kw)
            assert got.trunc >= n + 1 and got.floors == full.floors, (kind, n)
            assert got.truncate(n + 1).coeffs == full.truncate(n + 1).coeffs, (kind, n)
        monkeypatch.setattr(law, "power", partial(capped, drop=1))
        with pytest.raises(WindowMiss):
            iterated_residue_check(law, ITERATED_TRIPLES)
        monkeypatch.undo()


def _mod4_multiplicative():
    # z + w + 2zw over Z/4: p_F = 1 + 2z, and a product's lowest cell can
    # vanish (2 * 2 = 0)
    Z4 = Ring.integers_mod(4)
    return FormalGroupLaw(PowerSeries(Z4, ("z", "w"), {(1, 0): 1, (0, 1): 1, (1, 1): 2}, 8),
                          name="mod4")


RESIDUE_LAWS = [MUL, ONEP, standard_law("elliptic", trunc=8),
                standard_law("p_typical", trunc=9, p=2, h=1), _mod4_multiplicative()]


def _outcome(read):
    try:
        return read()
    except WindowMiss as exc:
        return "WindowMiss", str(exc)


@given(data=st.data(), k=st.integers(0, len(RESIDUE_LAWS) - 1))
@settings(max_examples=200, deadline=None)
def test_product_residue_is_the_residue_of_the_product(data, k):
    # the contraction forms only the product cells of total degree < 0, yet
    # it must give the residue of the full product, and raise WindowMiss,
    # with the same message, exactly where that residue raises
    law = RESIDUE_LAWS[k]
    R = law.ring

    def series():
        coeffs = data.draw(st.dictionaries(st.integers(-5, 4), st.integers(-3, 3),
                                           max_size=5))
        floor = data.draw(st.one_of(st.none(), st.integers(-14, 0)))
        return LaurentElement(R, ("z",), {(e,): R.from_int(c) for e, c in coeffs.items()},
                              data.draw(st.integers(-2, 12)), floors=(floor,))

    a, b = series(), series()
    pf = law.pF.rename(("z",)).as_laurent()
    assert _outcome(lambda: product_residue(a, b, pf)) == \
        _outcome(lambda: f_residue(law, a * b))


def test_report_equality_compares_every_field():
    rep = Report("x", "law", [1, 2], details={"n": 1})
    assert rep == Report("x", "law", [1, 2], "pass", {"n": 1})
    assert rep != Report("x", "law", [1, 2])
    assert rep != Report("x", "law", [1, 2], "fail", {"n": 1})
    assert rep != rep.to_json()
    assert Report("x", "law", None).details == {}


def test_iterated_residue_rejects_non_monomial():
    with pytest.raises(Exception):
        iterated_residue_check(ADD, [(1, 2)])


def additive_iterated_oracle(a, b, c):
    """Closed form of the iterated identity for the classical case.

    Both double residues of x0^a x1^b x2^c pick out a single binomial term;
    the identity collapses to
    (-1)^(c-1) C(a,-1-c) - (-1)^(a+b-1) C(a,-1-b) = (-1)^(a-1) C(c,-1-a)
    for a+b+c = -2 (the lower binomial indices are often misprinted with the
    opposite sign; see the package docs).
    """
    if a + b + c + 2 != 0:
        raise ValueError("need a+b+c = -2")
    lhs = (-1) ** ((c - 1) % 2) * comb_any(a, -1 - c) \
        - (-1) ** ((a + b - 1) % 2) * comb_any(a, -1 - b)
    rhs = (-1) ** ((a - 1) % 2) * comb_any(c, -1 - a)
    return lhs, rhs


@given(a=st.integers(-5, 3), b=st.integers(-5, 3))
@settings(max_examples=60, deadline=None)
def test_additive_iterated_oracle_closed_form(a, b):
    c = -2 - a - b
    lhs, rhs = additive_iterated_oracle(a, b, c)
    assert lhs == rhs, (a, b, c)


def test_additive_iterated_oracle_matches_computation():
    # the oracle's common value must equal the two sides computed by the
    # residue machinery, not merely agree with itself
    for (a, b, c) in [(-1, -1, 0), (-3, 2, -1), (-2, 1, -1), (0, -2, 0)]:
        lhs, rhs = additive_iterated_oracle(a, b, c)
        assert lhs == rhs
        f12 = ADD.f_z_iota_w().rename(("z1", "z2"))
        p = f12.int_power(a, floors=(-3 * ADD.trunc,) * 2)
        shift = LaurentElement(QQ, ("z1", "z2"), {(b, c): Fraction(1)},
                               p.trunc + b + c + 1)
        term1 = f_residue(ADD, f_residue(ADD, p * shift, "z2"), "z1")
        p2 = swap_variables(f12).rename(("z2", "z1")).int_power(
            a, floors=(-3 * ADD.trunc,) * 2)
        shift2 = LaurentElement(QQ, ("z2", "z1"), {(c, b): Fraction(1)},
                                p2.trunc + b + c + 1)
        term2 = f_residue(ADD, f_residue(ADD, p2 * shift2, "z1"), "z2")
        assert term1 - term2 == Fraction(lhs), (a, b, c)


# -- hyperderivatives ------------------------------------------------------


def test_hyperderivative_additive_monomials():
    # oracle: S_n(z^m) = C(m, n) z^{m-n}, negative m included
    for m in range(-3, 5):
        f = laurent(ADD, {m: 1})
        for n in range(0, 4):
            sn = hyperderivative(ADD, f, n)
            for e, c in sn.coeffs.items():
                if sn.reliable_at(e):
                    want = Fraction(comb_any(m, n)) if e == (m - n,) else 0
                    assert c == want, (m, n, e)
            if sn.reliable_at((m - n,)):
                assert sn.coefficient((m - n,)) == Fraction(comb_any(m, n))


def test_hyperderivative_multiplicative_binomial_rows():
    # S_j(z^m) = sum_i (m over i,j) z^i
    tab = FBinomialTable(MUL, nmax=3)
    R = MUL.ring
    for m in range(-2, 4):
        f = laurent(MUL, {m: 1})
        for j in range(0, 4):
            sj = hyperderivative(MUL, f, j)
            for i in range(-5, 6):
                if not (sj.reliable_at((i,)) and tab.slices[m].reliable_at((i, j))):
                    continue
                assert R.eq(sj.coefficient((i,)), tab.entry(m, i, j)), (m, i, j)


def test_hyperderivative_s0_and_s1():
    for law in (ADD, MUL, ONEP):
        f = laurent(law, {3: 1, -1: 2})
        s = hyperderivatives(law, f, 1)
        R = law.ring
        for e, c in f.coeffs.items():
            assert R.eq(s[0].coefficient(e), c)
        lhs = s[1] * law.pF.rename(("z",)).as_laurent()
        fp = f.derivative("z")
        for e, c in fp.coeffs.items():
            if lhs.reliable_at(e):
                assert R.eq(lhs.coefficient(e), c), (law.name, e)


def test_hyperderivative_properties_pass():
    for law in (ADD, MUL, ONEP):
        rep = hyperderivative_properties(law)
        assert rep.ok, (law.name, rep.to_json())


def test_comparison_without_certified_cells_fails():
    # a certified only below degree 3, b only from z^5 up: no common cell
    a = LaurentElement(QQ, ("z",), {(1,): Fraction(1)}, 3)
    b = LaurentElement(QQ, ("z",), {(1,): Fraction(2), (6,): Fraction(1)}, 10,
                       floors=(5,))
    rep = _compare("hyper/identity", "x", a, b)
    assert not rep.ok
    assert rep.status == {"fail": {"reason": "no certified cells"}}
    # certified zeros count: two zero series on a common region agree
    zero = LaurentElement(QQ, ("z",), {}, 4, floors=(-3,))
    assert _compare("hyper/identity", "x", zero,
                    LaurentElement(QQ, ("z",), {}, 10)).ok
    # one common certified cell is enough to pass, and a mismatch there fails
    c = LaurentElement(QQ, ("z",), {(1,): Fraction(1)}, 10)
    assert _compare("hyper/identity", "x", a, c).ok
    rep = _compare("hyper/identity", "x", a, c.scale(Fraction(2)), {"n": 1})
    assert rep.status["fail"]["monomial"] == [1]


def test_compare_reports_the_least_differing_cell():
    # window pair: the boxes meet in [-1, 2] x [-2, 2]
    a = BilateralWindow(QQ, ("z", "w"), {(1, -2): 1, (-1, 2): 4, (0, 0): 5},
                        [(-2, 2), (-2, 2)])
    box_b = [(-1, 3), (-3, 2)]
    same = BilateralWindow(QQ, ("z", "w"), a.coeffs, box_b)
    rep = _compare("delta/x", "x", a, same)
    assert rep.ok and rep.window == [[-1, 2], [-2, 2]]
    assert rep.details == {"window_size": 20}
    b = BilateralWindow(QQ, ("z", "w"), {(1, -2): 2, (-1, 2): 3, (0, 0): 5}, box_b)
    rep = _compare("delta/x", "x", a, b)
    assert rep.window == [[-1, 2], [-2, 2]]
    assert rep.status == {"fail": {"monomial": [-1, 2], "lhs": "4", "rhs": "3"}}
    assert _compare("delta/x", "x", a, b, {"N": 0}).window == {"N": 0}
    far = BilateralWindow(QQ, ("z", "w"), {}, [(3, 4), (-2, 2)])
    with pytest.raises(EmptyWindow):
        _compare("delta/x", "x", a, far)
    with pytest.raises(OrderingMismatch):
        _compare("delta/x", "x", a, BilateralWindow(QQ, ("w", "z"), a.coeffs, box_b))
    # Laurent pair: (1, -2) comes first in set order, (0, 3) in sorted order
    f = LaurentElement(QQ, ("z", "w"), {(1, -2): 1, (0, 3): 1, (2, 1): 1}, 10)
    g = LaurentElement(QQ, ("z", "w"), {(1, -2): 2, (0, 3): 2, (2, 1): 1}, 10)
    rep = _compare("hyper/x", "x", f, f, {"n": 1})
    assert rep.ok and rep.window == {"n": 1}
    rep = _compare("hyper/x", "x", f, g, {"n": 1})
    assert rep.window == {"n": 1}
    assert rep.status == {"fail": {"monomial": [0, 3], "lhs": "1", "rhs": "2"}}
    low = LaurentElement(QQ, ("z", "w"), {}, 2, floors=(0, 0))
    high = LaurentElement(QQ, ("z", "w"), {}, 10, floors=(1, 1))
    assert _compare("hyper/x", "x", low, high).status == {
        "fail": {"reason": "no certified cells"}}


def test_hyperderivative_repeated_s1_factorials():
    f = laurent(ADD, {4: 1, -2: 1})
    sf = hyperderivatives(ADD, f, 3)
    cur = f
    for n in range(1, 4):
        cur = hyperderivative(ADD, cur, 1)
        scaled = sf[n].scale(Fraction(factorial(n)))
        for e, c in scaled.coeffs.items():
            if cur.reliable_at(e):
                assert cur.coefficient(e) == c, (n, e)


def test_hyperderivative_mod2_torsion():
    Z2 = Ring.integers_mod(2)
    F = PowerSeries(Z2, ("z", "w"), {(1, 0): 1, (0, 1): 1}, 10)
    law = FormalGroupLaw(F, name="additive_mod2")
    f = laurent(law, {2: 1})
    s1s1 = hyperderivative(law, hyperderivative(law, f, 1), 1)
    assert all(c == 0 for e, c in s1s1.coeffs.items() if s1s1.reliable_at(e))
    s2 = hyperderivative(law, f, 2)
    assert s2.coefficient((0,)) == 1
    rep = hyperderivative_properties(law)
    assert rep.ok, rep.to_json()


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_residue_of_hyperderivative_vanishes(data):
    exps = data.draw(st.lists(st.integers(-3, 5), min_size=1, max_size=4,
                              unique=True))
    coeffs = {e: data.draw(st.integers(-4, 4)) for e in exps}
    f = laurent(MUL, coeffs)
    n = data.draw(st.integers(1, 3))
    sn = hyperderivative(MUL, f, n)
    assert f_residue(MUL, sn) == Fraction(0)


def test_report_json_shape():
    rep = delta_g_relation_check(MUL)
    d = rep.to_json()
    assert set(d) >= {"identity", "law", "window", "status"}
    assert d["status"] == "pass"
    bad = f_binomial_identities(MUL, nmax=2, smax=2,
                                override={(1, 1, 0): MUL.ring.from_int(9)})
    d = bad.to_json()
    assert "fail" in d["status"]
    assert {"monomial", "lhs", "rhs"} <= set(d["status"]["fail"])
