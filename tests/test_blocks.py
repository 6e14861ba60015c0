"""Genus-0 blocks: residue machinery, hom/3-point blocks, propagation."""

import hashlib
import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import voablocks.blocks as blocks_module
from voablocks.blocks import (INFINITY, BlockFunctional, IntertwinerError,
                              RationalFunction, SpherePoints,
                              UnderdeterminedCap, block_property_check,
                              global_form_tails, hom_block,
                              identity_hom, propagate_block, propagate_eval,
                              rational_glue, residue_pairing,
                              strong_residue_check, three_point_block,
                              vertex_block)
from voablocks.graded import weight_of
from voablocks.models import (contragredient, fock_module, gamma_twist,
                              heisenberg_model, virasoro_model)
from voablocks.series import TruncSeries

H = heisenberg_model()
VIR = virasoro_model(F(1, 2))

ONE = RationalFunction(poly={0: F(1)})
# 1/(zeta (zeta - 1)) in partial fractions
POLE01 = RationalFunction(poles={0: {1: F(-1)}, 1: {1: F(1)}})


def rand_frac(rng, nonzero=False):
    n = rng.randint(1, 5) if nonzero else rng.randint(-5, 5)
    return F(n, rng.randint(1, 3))


class TestRationalFunction:
    def test_eval_partial_fractions(self):
        for x in (F(2), F(1, 3), F(-5, 7)):
            assert POLE01.eval(x) == 1 / (x * (x - 1))

    def test_expansions(self):
        s0 = POLE01.expand_at(0, 4)
        assert [s0.coeff(k) for k in range(-1, 4)] == [F(-1)] * 5
        s1 = POLE01.expand_at(1, 3)
        assert s1.coeff(-1) == 1 and s1.coeff(0) == -1 and s1.coeff(1) == 1
        si = POLE01.expand_at_infinity(6)
        assert [si.coeff(k) for k in range(6)] == [0, 0, 1, 1, 1, 1]

    def test_eval_at_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            POLE01.eval(0)

    def test_hash_agrees_with_eq(self):
        # a pole key 0 is the point Fraction(0), and the constructor drops
        # zero coefficients and empty pole parts: each pair is equal, hashes
        # equal and is one set element
        a = RationalFunction(poly={1: F(2)}, poles={0: {2: F(3)}})
        a_with_zeros = RationalFunction(poly={0: F(0), 1: F(2)},
                                        poles={0: {1: F(0), 2: F(3)}, F(1): {1: F(0)}})
        for x, y in ((RationalFunction(poles={0: {1: F(1)}}),
                      RationalFunction(poles={F(0): {1: F(1)}})),
                     (a_with_zeros, a)):
            assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        # a glue report is truthy exactly when it passed
        tails = [POLE01.expand_at(0, 4), POLE01.expand_at(1, 4), POLE01.expand_at_infinity(4)]
        t = tails[0]
        bad = TruncSeries(t.var, t.floor, [t.coeffs[0] + 1, *t.coeffs[1:]], t.order)
        for inputs, passed in ((tails, True), ([bad, *tails[1:]], False)):
            rep = rational_glue(*inputs, 1)
            assert rep.passed is passed and bool(rep) is passed


class TestGlue:
    def test_constant(self):
        rep = rational_glue(ONE.expand_at(0, 3), ONE.expand_at(1, 3),
                            ONE.expand_at_infinity(3), 1)
        assert rep.passed and rep.section == ONE

    def test_partial_fraction_oracle(self):
        rep = rational_glue(POLE01.expand_at(0, 4), POLE01.expand_at(1, 4),
                            POLE01.expand_at_infinity(4), 1)
        assert rep.passed and rep.section == POLE01

    def test_perturbed_fails_with_witness(self):
        t = POLE01.expand_at(0, 4)
        bad = TruncSeries(t.var, t.floor, [t.coeffs[0] + 1, *t.coeffs[1:]], t.order)
        rep = rational_glue(bad, POLE01.expand_at(1, 4),
                            POLE01.expand_at_infinity(4), 1)
        assert not rep.passed

    def test_agrees_with_strong_residue_check(self):
        rng = random.Random(30)
        passing = failing = 0
        while passing < 15 or failing < 15:
            z0 = F(rng.randint(1, 4))
            f = RationalFunction(
                poly={0: rand_frac(rng), 1: rand_frac(rng)},
                poles={0: {1: rand_frac(rng)}, z0: {1: rand_frac(rng)}})
            tails = [f.expand_at(0, 4), f.expand_at(z0, 4),
                     f.expand_at_infinity(5)]
            perturb = failing < 15 and (passing >= 15 or rng.random() < 0.5)
            if perturb:
                i = rng.randrange(3)
                t = tails[i]
                k = rng.randrange(len(t.coeffs))
                tails[i] = TruncSeries(t.var, t.floor,
                                       [c + 1 if j == k else c for j, c in enumerate(t.coeffs)],
                                       t.order)
            rep1 = rational_glue(tails[0], tails[1], tails[2], z0)
            rep2 = strong_residue_check({F(0): tails[0], z0: tails[1],
                                         INFINITY: tails[2]})
            assert rep1.passed == rep2.passed
            if rep1.passed:
                assert rep1.section == rep2.section
                passing += 1
            else:
                assert rep1.witness.point == rep2.witness.point
                assert rep1.witness.order == rep2.witness.order
                failing += 1


class TestStrongResidue:
    def test_global_section_roundtrip(self):
        g = RationalFunction(poles={0: {2: F(-1)}})
        rep = strong_residue_check({F(0): g.expand_at(0, 3),
                                    INFINITY: g.expand_at_infinity(5)})
        assert rep.passed and rep.section == g

    def test_points_compare_as_values(self):
        # an int key is the same marked point as its Fraction
        g = RationalFunction(poly={1: F(3)}, poles={0: {2: F(-1), 1: F(1, 2)}})
        at_inf = g.expand_at_infinity(5)
        want = strong_residue_check({F(0): g.expand_at(0, 3), INFINITY: at_inf})
        rep = strong_residue_check({0: g.expand_at(0, 3), INFINITY: at_inf})
        assert rep.passed and rep.section == want.section == g
        assert rep.conditions == want.conditions

    def test_zero_tails(self):
        rep = strong_residue_check({F(0): TruncSeries.zero("t", 3),
                                    INFINITY: TruncSeries.zero("w", 3)})
        assert rep.passed and rep.section == RationalFunction()

    @pytest.mark.parametrize("windows, conditions", [
        ({F(0): (0, 3), INFINITY: (0, 3)}, 5),
        ({F(0): (-2, 2), F(1): (3, 3), F(-1, 2): (-1, 4), INFINITY: (-3, 4)}, 2 + 3 + 4 + 3),
        ({F(2): (0, 0), INFINITY: (1, 1)}, 0),
    ], ids=["two-points", "stored-zeros", "empty-windows"])
    def test_all_zero_tails(self, windows, conditions):
        # one condition per exponent 0 <= e < order at a finite point and
        # 1 <= e < order at infinity, as the pairing loop counts them
        tails = {p: TruncSeries("w" if p is INFINITY else "t", floor, [F(0)] * (order - floor),
                                order) for p, (floor, order) in windows.items()}
        rep = strong_residue_check(tails)
        assert (rep.passed, rep.conditions, rep.witness) == (True, conditions, None)
        assert rep.section == RationalFunction()

    def test_all_zero_short_window_still_fails_closed(self):
        with pytest.raises(UnderdeterminedCap):
            strong_residue_check({F(0): TruncSeries.zero("t", 2),
                                  INFINITY: TruncSeries.zero("w", 0)})

    def test_bare_residue_violation(self):
        t = TruncSeries.from_coeff_map("t", {-1: F(1)}, 2)
        rep = strong_residue_check({F(0): t, INFINITY: TruncSeries.zero("w", 3)})
        assert not rep.passed

    def test_requires_infinity(self):
        with pytest.raises(ValueError):
            strong_residue_check({F(0): TruncSeries.zero("t", 2)})


POOL = (F(0), F(1), F(-2), F(1, 2), F(3))
small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def oracle_tail(f, p, order):
    """f's Laurent tail at p, built from TruncSeries powers and reciprocals
    rather than RationalFunction.expand_at (which the check re-expands with)."""
    var = "w" if p is INFINITY else "t"
    work = order + 8

    def lin(a, b):  # a + b * var as a power series
        return TruncSeries(var, 0, [F(a), F(b)] + [F(0)] * (work - 2), work)

    cmap = {}

    def add(series, shift, c):
        for e in range(series.floor, series.order):
            cmap[e + shift] = cmap.get(e + shift, F(0)) + c * series.coeff(e)

    for k, c in f.poly.items():
        if p is INFINITY:
            cmap[-k] = cmap.get(-k, F(0)) + c
        else:
            add(lin(p, 1) ** k, 0, c)
    for q, part in f.poles.items():
        for m, c in part.items():
            if p is INFINITY:  # (1/w - q)^{-m} = w^m (1 - q w)^{-m}
                add(lin(1, -q) ** (-m), m, c)
            elif q == p:
                cmap[-m] = cmap.get(-m, F(0)) + c
            else:  # zeta - q = t + (p - q)
                add(lin(p - q, 1) ** (-m), 0, c)
    return TruncSeries.from_coeff_map(
        var, {e: c for e, c in cmap.items() if c and e < order}, order)


@settings(max_examples=60, derandomize=True)
@given(st.data())
def test_glue_by_principal_parts(data):
    """A global f glues back to itself with one condition per compared
    coefficient; one bad non-principal coefficient delta is its own witness:
    the residue theorem leaves exactly delta (or -delta at infinity, from
    dzeta = -w^{-2} dw) in the pairing with the matching dual form."""
    pts = data.draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique=True))
    f = RationalFunction(
        data.draw(st.dictionaries(st.integers(0, 3), small)),
        {p: data.draw(st.dictionaries(st.integers(1, 3), small, min_size=1)) for p in pts})
    points = pts + [INFINITY]
    orders = [data.draw(st.integers(0, 6)) for _ in pts] + [data.draw(st.integers(1, 7))]
    tails = {p: oracle_tail(f, p, o) for p, o in zip(points, orders)}
    rep = strong_residue_check(tails)
    assert rep.passed and rep.section == f
    assert rep.conditions == sum(orders) - 1

    walk = [(p, e) for p, o in zip(points, orders)
            for e in range(1 if p is INFINITY else 0, o)]
    if not walk:
        return
    i = data.draw(st.integers(0, len(walk) - 1))
    p, e = walk[i]
    delta = data.draw(small.filter(bool))
    t = tails[p]
    cmap = {k: t.coeff(k) for k in range(t.floor, t.order)}
    cmap[e] = cmap.get(e, F(0)) + delta
    tails[p] = TruncSeries.from_coeff_map(t.var, cmap, t.order)
    rep = strong_residue_check(tails)
    w = rep.witness
    assert not rep.passed
    assert (w.kind, w.point, w.order, w.residue) == (
        ("infinity", INFINITY, e - 1, -delta) if p is INFINITY
        else ("pole", p, e + 1, delta))
    assert rep.conditions == i + 1


def closed_form_tail(f, p, order):
    """f's nonzero Laurent coefficients below ``order`` at p, term by term
    from the binomial closed forms
    (t + p - q)^{-m} = sum_e (-1)^e C(m+e-1, e) (p - q)^{-m-e} t^e and
    (1/w - q)^{-m} = sum_e C(m+e-1, e) q^e w^{m+e}."""
    out = {}

    def add(e, c):
        if e < order:
            out[e] = out.get(e, F(0)) + c

    for k, c in f.poly.items():
        if p is INFINITY:
            add(-k, c)
        else:
            for j in range(k + 1):
                add(j, c * comb(k, j) * p ** (k - j))
    for q, part in f.poles.items():
        for m, c in part.items():
            if p is INFINITY:
                for e in range(order):
                    add(m + e, c * comb(m + e - 1, e) * q ** e)
            elif q == p:
                add(-m, c)
            else:
                for e in range(order):
                    add(e, c * (-1) ** e * comb(m + e - 1, e) * (p - q) ** (-m - e))
    return {e: c for e, c in out.items() if c}


@settings(max_examples=80, derandomize=True)
@given(st.data())
def test_expansion_matches_closed_form(data):
    """expand_at and expand_at_infinity carry a running term; each
    coefficient must equal the closed form, at the poles, off them and at
    infinity."""
    poles = data.draw(st.lists(small, max_size=4, unique=True))
    f = RationalFunction(
        data.draw(st.dictionaries(st.integers(0, 3), small)),
        {q: data.draw(st.dictionaries(st.integers(1, 5), small, min_size=1)) for q in poles})
    order = data.draw(st.integers(0, 10))
    p = data.draw(st.one_of(st.sampled_from(poles + [INFINITY]),
                            small.filter(lambda x: x not in poles)))
    s = f.expand_at_point(p, order)
    assert s.order == order
    assert {e: s.coeff(e) for e in range(s.floor, order) if s.coeff(e)} == \
        closed_form_tail(f, p, order)


def partial_fraction_value(f, x):
    """f(x) summed term by term from f's maps in plain Fractions."""
    return (sum((c * x ** k for k, c in f.poly.items()), F(0)) +
            sum((c / (x - q) ** m for q, part in f.poles.items() for m, c in part.items()), F(0)))


# negative and non-integer points and coefficients
rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=120, derandomize=True)
@given(st.data())
def test_values_and_expansions_match_partial_fractions(data):
    """eval, expand_at and expand_at_infinity against the partial fractions
    summed in Fractions (values) and the binomial series (coefficients):
    polynomial degree and pole orders up to 4, the zero function included,
    and eval at a pole raises."""
    poles = data.draw(st.lists(rationals, max_size=3, unique=True))
    f = RationalFunction(
        data.draw(st.dictionaries(st.integers(0, 4), rationals, max_size=5)),
        {q: data.draw(st.dictionaries(st.integers(1, 4), rationals, max_size=4)) for q in poles})
    for x in data.draw(st.lists(rationals.filter(lambda x: x not in poles), min_size=1,
                                max_size=3)):
        got = f.eval(x)
        assert type(got) is F and got == partial_fraction_value(f, x), x
    for q in f.poles:
        with pytest.raises(ZeroDivisionError, match=f"^evaluation at the pole {q}$"):
            f.eval(q)
    order = data.draw(st.integers(0, 8))
    for p in [*poles, INFINITY, data.draw(rationals)]:
        s = f.expand_at_point(p, order)
        want = closed_form_tail(f, p, order)
        assert s.order == order and s.var == ("w" if p is INFINITY else "t")
        assert s.floor == min(want, default=order), p
        assert {e: s.coeff(e) for e in range(s.floor, order) if s.coeff(e)} == want, p


def test_expansion_floor_skips_cancelled_terms():
    # 1 + 1/(zeta - 1) = -t - t^2 + O(t^3) at 0: the constant terms cancel
    s = RationalFunction({0: 1}, {1: {1: 1}}).expand_at(0, 3)
    assert (s.floor, list(s.coeffs)) == (1, [-1, -1])


def test_zero_function_is_zero_everywhere():
    zero = RationalFunction({0: 0}, {F(1, 2): {2: F(0)}})
    assert zero == RationalFunction() and zero.poles == {}
    assert zero.eval(F(-3, 2)) == 0 and type(zero.eval(F(-3, 2))) is F
    for p in (F(0), F(-7, 3), INFINITY):
        s = zero.expand_at_point(p, 5)
        assert s.is_zero() and (s.floor, s.order) == (5, 5)


class TestResiduePairing:
    def test_unit_residue(self):
        form = RationalFunction(poles={0: {1: F(1)}})
        assert residue_pairing({F(0): form.expand_at(0, 2)}, ONE) == 1

    def test_holomorphic_vanishes(self):
        form = RationalFunction(poly={2: F(1)})
        assert residue_pairing({F(0): form.expand_at(0, 4)}, ONE) == 0

    def test_coboundaries_vanish(self):
        rng = random.Random(18)
        pts = SpherePoints([F(0), F(1), INFINITY])
        targets = [ONE, POLE01, RationalFunction(poly={0: F(3), 1: F(2)})]
        for _ in range(20):
            g = RationalFunction(
                poly={k: rand_frac(rng) for k in range(2)},
                poles={0: {1: rand_frac(rng)}, 1: {2: rand_frac(rng)}})
            cob = global_form_tails(g, pts, 7)
            for t in targets:
                assert residue_pairing(cob, t) == 0


    def test_window_boundary(self):
        # t = zeta + 2 zeta^{-3}: a pole of order 3 at 0; sigma's floor is -1
        t = RationalFunction(poly={1: F(1)}, poles={0: {3: F(2)}})

        def sigma(order):
            return {F(0): TruncSeries("t", -1, [F(1)] * (order + 1), order)}

        with pytest.raises(UnderdeterminedCap, match=r"residue at 0: .* order >= 3 on the first"):
            residue_pairing(sigma(2), t)
        assert residue_pairing(sigma(3), t) == 2  # sigma_2 * 2

    def test_vanishing_t_needs_less(self):
        # t = zeta^2 - zeta = -x + x^2 at 0: the pairing with
        # 2x^{-3} + x^{-2} + O(x^{-1}) never reads the unknown x^{-1} term
        t = RationalFunction(poly={2: F(1), 1: F(-1)})
        assert residue_pairing({F(0): TruncSeries("t", -3, [F(2), F(1)], -1)}, t) == 1
        with pytest.raises(UnderdeterminedCap, match=r"order >= -1 on the first"):
            residue_pairing({F(0): TruncSeries("t", -3, [F(2)], -2)}, t)


@settings(max_examples=80, derandomize=True)
@given(st.data())
def test_residue_pairing_matches_closed_form(data):
    """Against residues read off closed_form_tail: Res <sigma_p, t> is
    sum_k sigma_p[k] [x^{-1-k}] t over sigma_p's window, which determines it
    when it reaches order -f, f the lowest exponent of t's tail at p; a
    shorter window raises naming that order, at the first such point."""
    poles = data.draw(st.lists(small, max_size=3, unique=True))
    t = RationalFunction(
        data.draw(st.dictionaries(st.integers(0, 3), small)),
        {q: data.draw(st.dictionaries(st.integers(1, 4), small, min_size=1)) for q in poles})
    points = data.draw(st.lists(st.one_of(st.sampled_from(poles + [INFINITY]), small),
                                min_size=1, max_size=3, unique=True))
    sigma, want, short = {}, F(0), None
    for p in points:
        floor = data.draw(st.integers(-5, 2))
        order = data.draw(st.integers(floor, 5))
        coeffs = data.draw(st.lists(small, min_size=order - floor, max_size=order - floor))
        sigma[p] = TruncSeries("w" if p is INFINITY else "t", floor, coeffs, order)
        tail = closed_form_tail(t, p, 6)  # 6 > -1 - floor, past every exponent read
        f = min(tail, default=6)
        if order < -f and short is None:
            short = (p, -f)
        want += sum((c * tail.get(-1 - k, F(0)) for k, c in enumerate(coeffs, floor)), F(0))
    if short is None:
        got = residue_pairing(sigma, t)
        assert got == want and type(got) is F
    else:
        with pytest.raises(UnderdeterminedCap) as err:
            residue_pairing(sigma, t)
        assert f"residue at {short[0]}: " in str(err.value)
        assert f"order >= {short[1]} on the first" in str(err.value)


def l1_exponential_twist(voa, label) -> list:
    """U(gamma_{1/w}) of a weight-k label from its definition: the term
    (-1)^k L_1^m v / m! at w^{2k-m}, each one L_apply(1, .) of the last over
    m, in ascending w-exponents."""
    k = weight_of(label)
    term, terms, m = {label: F(-1 if k % 2 else 1)}, [], 0
    while term:
        terms.append((2 * k - m, term))
        m += 1
        term = {u: c / m for u, c in voa.L_apply(1, term).items() if c}
    return terms[::-1]


_TWIST_RNG = random.Random(11)
# the Ising and Lee-Yang charges, a generic one, and two drawn rationals
TWIST_CHARGES = [F(1, 2), F(-22, 5), F(7, 3)] + [
    F(_TWIST_RNG.randint(-60, 60), _TWIST_RNG.randint(1, 12)) for _ in range(2)]
TWIST_MODELS = [heisenberg_model] + [lambda c=c: virasoro_model(c) for c in TWIST_CHARGES]
TWIST_IDS = ["H"] + [f"Vir_{c}" for c in TWIST_CHARGES]


class TestGammaTwist:
    @pytest.mark.parametrize("make", TWIST_MODELS, ids=TWIST_IDS)
    def test_every_label_matches_the_l1_exponential(self, make):
        # values, value types and key order, on a fresh VOA so every twist
        # is built cold
        voa = make()
        for wt in range(9):
            for label in voa.basis_at(wt):
                got = [(e, [(u, type(c), c) for u, c in vec.items()])
                       for e, vec in gamma_twist(label, voa)]
                want = [(e, [(u, type(c), c) for u, c in vec.items()])
                        for e, vec in l1_exponential_twist(voa, label)]
                assert got == want, label

    @pytest.mark.parametrize("make", TWIST_MODELS, ids=TWIST_IDS)
    def test_a_vector_twists_as_its_labels_combine(self, make):
        voa = make()
        rng = random.Random(3)
        labels = [label for wt in range(7) for label in voa.basis_at(wt)]
        for _ in range(10):
            v = {label: rand_frac(rng) for label in rng.sample(labels, 4)}
            want: dict = {}
            for label, c in v.items():
                for e, vec in l1_exponential_twist(voa, label):
                    part = want.setdefault(e, {})
                    for u, x in vec.items():
                        part[u] = part.get(u, 0) + c * x
            want = {e: {u: x for u, x in vec.items() if x} for e, vec in want.items()}
            assert gamma_twist(v, voa) == sorted((e, vec) for e, vec in want.items() if vec)

    def test_heisenberg_generator(self):
        assert gamma_twist((1,), H) == [(2, {(1,): F(-1)})]

    def test_conformal_vector(self):
        assert gamma_twist((2,), VIR) == [(4, {(2,): F(1)})]

    def test_vacuum(self):
        assert gamma_twist((), H) == [(0, {(): F(1)})]

    def test_l1_descendants(self):
        # L_{-2}L_{-2}|0> picks up lower L_1-corrections
        tw = dict(gamma_twist((2, 2), VIR))
        assert tw[8] == {(2, 2): F(1)}
        assert tw[7] == {(3,): F(3)}
        assert tw[6] == {(2,): F(6)}


class TestHomBlock:
    def test_identity_is_canonical_pairing(self):
        phi = identity_hom(H, 4)
        u = {(2, 1): F(3), (1,): F(2)}
        v = {(2, 1): F(5), (3,): F(7)}
        assert phi(u, v) == 15

    def test_linearity_in_T(self):
        T2 = {l: {l: F(2)} for wt in range(5) for l in H.basis_at(wt)}
        phi2 = hom_block(T2, H, contragredient(H), 4)
        assert phi2({(1,): F(1)}, {(1,): F(1)}) == 2

    def test_fock_dual_basis_pairing(self):
        Fm = fock_module(H, F(2, 3))
        T = {l: {l: F(1)} for wt in range(5) for l in Fm.basis_at(wt)}
        phi = hom_block(T, Fm, contragredient(Fm), 4)
        assert phi({(1, 1): F(1)}, {(1, 1): F(1)}) == 1

    def test_failing_T_rejected_with_witness(self):
        T = {l: {l: F(1)} for wt in range(4) for l in H.basis_at(wt)}
        T[(1,)] = {(1,): F(2)}
        with pytest.raises(IntertwinerError) as ei:
            hom_block(T, H, contragredient(H), 3)
        assert "n" in ei.value.witness

    def test_round_trip_recovers_T(self):
        phi = identity_hom(H, 3)
        for wt in range(4):
            for l1 in H.basis_at(wt):
                for l2 in H.basis_at(wt):
                    assert phi({l1: F(1)}, {l2: F(1)}) == (1 if l1 == l2 else 0)


class TestThreePoint:
    def test_vacuum_insertion(self):
        w = {(2, 1): F(3)}
        wp = {(2, 1): F(4), (1,): F(1)}
        for z0 in (F(1), F(5, 2), F(-3)):
            assert three_point_block(H, (), z0, w, wp) == 12

    def test_conformal_vector_on_vacuum(self):
        assert three_point_block(VIR, (2,), 1, {(): F(1)}, {(2,): F(1)}) == 1

    def test_heisenberg_mode_oracle(self):
        # only the z^{-2} term survives: alpha_1 alpha_{-1}|0> = |0>
        assert three_point_block(H, (1,), 2, {(1,): F(1)}, {(): F(1)}) == F(1, 4)

    def test_vertex_block_wrapper(self):
        vb = vertex_block(H, F(1), 6)
        got = vb({(1,): F(1)}, {(1,): F(1)}, {(1, 1): F(1)})
        assert got == three_point_block(H, (1,), 1, {(1,): F(1)}, {(1, 1): F(1)})


class TestPropagation:
    U = {(2, 1): F(3), (1,): F(2)}
    V = {(2, 1): F(5), (3,): F(7)}

    def test_vacuum_law(self):
        phi = identity_hom(H, 4)
        for y in (F(3), F(-1, 2), F(7, 5)):
            assert propagate_eval(phi, (), y, [self.U, self.V]) == phi(self.U, self.V)

    def test_matches_vertex_insertion(self):
        phi = identity_hom(H, 4)
        for v in ((1,), (1, 1), (2,)):
            for y in (F(2), F(1, 3), F(-1)):
                got = propagate_eval(phi, v, y, [self.U, self.V])
                want = three_point_block(H, v, y, self.U, self.V)
                assert got == want, (v, y)

    def test_matches_vertex_insertion_virasoro(self):
        phi = identity_hom(VIR, 8)
        u = {(2,): F(1), (3,): F(2)}
        v = {(2,): F(1), (2, 2): F(-1)}
        for ins in ((2,), (2, 2)):
            for y in (F(2), F(-1, 2)):
                assert propagate_eval(phi, ins, y, [u, v]) == \
                    three_point_block(VIR, ins, y, u, v)

    def test_cap_insufficiency_fails_closed(self):
        phi = identity_hom(VIR, 5)
        with pytest.raises(UnderdeterminedCap):
            propagate_eval(phi, (2, 2), F(2),
                           [{(2, 2): F(1)}, {(2, 2): F(1)}])

    def test_double_propagation_symmetry(self):
        phi = identity_hom(H, 10)
        w1 = {(1,): F(2), (2,): F(1)}
        w2 = {(1,): F(1), (1, 1): F(3)}
        pairs = [(F(2), F(3)), (F(1, 2), F(-1)), (F(5), F(1, 3)),
                 (F(-2), F(3, 4)), (F(7), F(2))]
        for u_ins, v_ins in [((1,), (1,)), ((1,), (2,))]:
            for x, y in pairs:
                py = propagate_block(phi, y, 4)
                px = propagate_block(phi, x, 4)
                A = propagate_eval(py, u_ins, x, [w1, {v_ins: F(1)}, w2])
                B = propagate_eval(px, v_ins, y, [w1, {u_ins: F(1)}, w2])
                assert A == B, (u_ins, v_ins, x, y)

    def test_iterated_vacuum_collapse(self):
        # propagating the vacuum through an already-propagated block
        # reduces to single propagation
        phi = identity_hom(H, 10)
        w1 = {(1,): F(2)}
        w2 = {(1, 1): F(3)}
        py = propagate_block(phi, F(3), 4)
        got = propagate_eval(py, (), F(2), [w1, {(2,): F(1)}, w2])
        want = propagate_eval(phi, (2,), F(3), [w1, w2])
        assert got == want


# criterion-08 nested propagation A = <phi~y~x> with v inserted at x,
# B = <phi~x~y> with u inserted at y, on identity_hom(module, 10) and
# propagation caps 4; the exact values were captured before the slot tails
# read the memoized mode blocks in place
NESTED_GOLDEN = [
    ("heisenberg", F(2), F(3), {(1,): F(1)}, {(1,): F(1)},
     {(1,): F(2), (2,): F(1)}, {(1,): F(1), (1, 1): F(3)}, F(329, 108)),
    ("heisenberg", F(1, 2), F(-1), {(2,): F(1), (1,): F(-3)}, {(1,): F(1)},
     {(1,): F(2), (2,): F(1)}, {(1,): F(1), (1, 1): F(3)}, F(-2038, 27)),
    ("heisenberg", F(-2), F(3, 4), {(1,): F(1)}, {(1, 1): F(1, 2)},
     {(2, 1): F(3), (1,): F(2)}, {(2, 1): F(5), (3,): F(7)}, F(1873313, 92928)),
    ("heisenberg", F(5), F(1, 3), {(1, 1): F(1, 2), (): F(2)}, {(2,): F(-1)},
     {(): F(1), (1,): F(1)}, {(2,): F(1), (1, 1): F(1)}, F(-84282, 42875)),
    ("heisenberg", F(7, 5), F(-5), {(1,): F(4)}, {(1,): F(1), (): F(1)},
     {(3,): F(1)}, {(2, 1): F(1), (1,): F(1, 3)}, F(1572104, 1500625)),
    ("virasoro", F(2), F(-1, 3), {(2,): F(1)}, {(2,): F(1)},
     {(2,): F(1)}, {(2,): F(1), (): F(3)}, F(4424281, 153664)),
    ("virasoro", F(3, 2), F(4), {(2,): F(2)}, {(): F(1), (2,): F(1)},
     {(): F(1), (2,): F(1)}, {(3,): F(1)}, F(23975867, 2073600)),
    ("fock", F(2), F(3), {(1,): F(1)}, {(1,): F(1)},
     {(): F(1)}, {(1,): F(1)}, F(5, 12)),
]


def run_nested_golden(modules):
    for name, x, y, u, v, w1, w2, want in NESTED_GOLDEN:
        phi = identity_hom(modules[name], 10)
        a = propagate_eval(propagate_block(phi, y, 4), v, x, [w1, u, w2])
        b = propagate_eval(propagate_block(phi, x, 4), u, y, [w1, v, w2])
        assert (a, b) == (want, want), (name, x, y)
        assert type(a) is F and type(b) is F


def test_nested_propagation_golden():
    run_nested_golden({"heisenberg": H, "virasoro": VIR, "fock": fock_module(H, F(1, 2))})


# sha256 of ``propagation_golden_text()``, captured before RationalFunction
# evaluated and expanded on integer numerators: same values and value types
PROPAGATION_GOLDEN = "cb4ab601b6ae31ad20750efa5b25433b3da297ba3a9512073cdbb6428a494747"


def propagation_golden_text():
    """One line per value on identity_hom(H, 10) at the points +-1, +-2,
    +-1/2, +-3/2 with insertions of weight <= 2: propagate_eval, the
    evaluator of propagate_block at the same point, then nested
    propagations of the benchmark's shape, A = <phi~y~x> and B = <phi~x~y>."""
    rng = random.Random(4040)
    phi = identity_hom(heisenberg_model(), 10)
    points = [F(s * n, d) for n, d in ((1, 1), (2, 1), (1, 2), (3, 2)) for s in (1, -1)]
    labels = [(), (1,), (2,), (1, 1)]

    def vec(k):
        return {label: rand_frac(rng, nonzero=True) for label in rng.sample(labels, k)}

    lines = []
    for y in points:
        py = propagate_block(phi, y, 4)
        for _ in range(3):
            v, w1, w2 = vec(rng.randint(1, 3)), vec(2), vec(2)
            lines += [("eval", y, v, w1, w2, propagate_eval(phi, v, y, [w1, w2])),
                      ("block", y, v, w1, w2, py(w1, v, w2))]
    for u, v in (((1,), (2,)), ((2,), (1,)), ((1, 1), (1,))) * 3:
        x, y = rng.sample(points, 2)
        w1, w2 = vec(2), vec(2)
        a = propagate_eval(propagate_block(phi, y, 4), u, x, [w1, {v: F(1)}, w2])
        b = propagate_eval(propagate_block(phi, x, 4), v, y, [w1, {u: F(1)}, w2])
        lines += [("nested", x, y, u, v, w1, w2, a), ("nested", y, x, v, u, w1, w2, b)]
    return "\n".join(repr(line[:-1] + (type(line[-1]).__name__, line[-1])) for line in lines)


def test_propagation_golden():
    assert hashlib.sha256(propagation_golden_text().encode()).hexdigest() == PROPAGATION_GOLDEN


def fresh_golden_modules():
    hm = heisenberg_model()
    return {"heisenberg": hm, "virasoro": virasoro_model(F(1, 2)),
            "fock": fock_module(hm, F(1, 2))}


def test_cold_nested_golden_on_fresh_modules():
    """The golden values come out of fresh modules too, and every W' block
    that the cold propagation memoized equals the one a fresh module
    computes."""
    modules = fresh_golden_modules()
    run_nested_golden(modules)
    fresh = fresh_golden_modules()
    for name, M in modules.items():
        dual = contragredient(M)
        assert dual._blocks, name
        assert_memo_matches_fresh(dual, contragredient(fresh[name]))


def three_point_from_blocks(module, v, z0, w, wp):
    """<Y_W(v, z0) w, w'> summed from whole weight blocks (``mode_block``)."""
    total = F(0)
    for vl, vc in v.items():
        for wl, wc in w.items():
            for d in {weight_of(label) for label in wp}:
                n = weight_of(vl) + weight_of(wl) - 1 - d
                img = module.mode_block(vl, n, weight_of(wl)).get(wl, {})
                pair = sum((c * wp[label] for label, c in img.items() if label in wp), F(0))
                total += vc * wc * pair * z0 ** (-n - 1)
    return total


@pytest.mark.parametrize("make, v, w, wp", [
    (heisenberg_model, {(1,): F(1), (2, 1): F(1, 3)}, {(1,): F(2), (1, 1): F(-1)},
     {(): F(1), (2,): F(1, 2), (3, 1): F(5)}),
    (lambda: virasoro_model(F(-22, 5)), {(2,): F(1), (3, 2): F(1, 3)},
     {(2,): F(2), (2, 2): F(-1)}, {(): F(1), (3,): F(1, 2), (2, 2): F(1), (4, 2): F(5)}),
    (lambda: fock_module(heisenberg_model(), F(1, 2)), {(1,): F(1), (2, 1): F(1, 3)},
     {(1,): F(2), (1, 1): F(-1)}, {(): F(1), (2,): F(1, 2), (3, 1): F(5)}),
], ids=["heisenberg", "virasoro", "fock"])
def test_contragredient_single_label_reads_match_blocks(make, v, w, wp):
    """three_point_block and hom_block's intertwiner check read one W' label
    at a time: the three-point value equals the sum over transposed blocks of
    another contragredient, and the W' blocks the reads memoized equal those
    of a fresh module."""
    M = make()
    dual = contragredient(M)
    got = three_point_block(dual, v, F(2, 3), w, wp)
    assert got == three_point_from_blocks(contragredient(make()), v, F(2, 3), w, wp)
    assert got
    hom_block({label: {label: F(1)} for n in range(4) for label in M.basis_at(n)}, dual, M, 3)
    assert_memo_matches_fresh(dual, contragredient(make()))


def memo_snapshot(*modules):
    """Plain copies of the modules' mode-block memos, in key order."""
    return [{key: [(wl, list(img.items())) for wl, img in blk.items()]
             for key, blk in m._blocks.items()}
            for m in modules]


def assert_memo_matches_fresh(module, fresh):
    """Every memoized block equals, in key order too, the one a fresh module
    computes."""
    for (vl, h, wt), blk in module._blocks.items():
        got = [(wl, list(img.items())) for wl, img in blk.items()]
        want = [(wl, list(img.items())) for wl, img in fresh.mode_block(vl, h, wt).items()]
        assert got == want, (vl, h, wt)


class TestMemoIntegrity:
    """Propagation, the block property check and identity_hom read the
    memoized mode images in place; none of them may change the memo."""

    def test_memo_unchanged(self):
        hm = heisenberg_model()
        w1 = {(1,): F(2), (2,): F(1)}
        w2 = {(1,): F(1), (1, 1): F(3)}
        g = RationalFunction(poly={1: F(2)}, poles={0: {1: F(-3)}})

        def work():
            phi = identity_hom(hm, 10)
            py = propagate_block(phi, F(3), 4)
            a = propagate_eval(py, (1,), F(2), [w1, {(1,): F(1)}, w2])
            ok = block_property_check(phi, (2,), g, [w1, w2])
            return phi.modules[1], (a, ok)

        dual, first = work()
        before = memo_snapshot(hm, dual)
        assert hm._blocks and dual._blocks
        dual_again, second = work()
        # the second identity_hom reads the same contragredient, which is
        # kept on hm; its memo must come out unchanged
        assert memo_snapshot(hm, dual) == before
        assert memo_snapshot(dual_again) == before[1:]
        assert first == second and first[1]
        fresh = heisenberg_model()
        assert_memo_matches_fresh(hm, fresh)
        assert_memo_matches_fresh(dual, contragredient(fresh))

    def test_warm_identity_hom_fills_nothing(self):
        hm = heisenberg_model()
        first = identity_hom(hm, 10)
        dual = contragredient(hm)
        sizes = len(hm._blocks), len(dual._blocks)
        second = identity_hom(hm, 10)
        assert (len(hm._blocks), len(dual._blocks)) == sizes
        assert second.modules[1] is first.modules[1] is dual

    def test_identity_hom_fills_no_block(self):
        # the canonical pairing needs no mode: a fresh module stays empty
        hm = heisenberg_model()
        phi = identity_hom(hm, 10)
        assert (hm._blocks, contragredient(hm)._blocks) == ({}, {})
        u = {(4, 3, 2, 1): F(2), (1,): F(-3), (11,): F(5)}
        v = {(4, 3, 2, 1): F(7), (2,): F(1), (11,): F(4)}
        # labels above the cap pair to 0
        assert phi(u, v) == 14
        assert phi({(6, 5): F(1)}, {(6, 5): F(1)}) == 0

    def test_mutating_evaluator_rejected(self):
        hm = heisenberg_model()
        dual = contragredient(hm)

        def mutate(u, v):
            u[(7,)] = F(1)
            return F(0)

        phi = BlockFunctional(SpherePoints([F(0), INFINITY]), [hm, dual], [6, 6], mutate)
        with pytest.raises(TypeError):
            propagate_eval(phi, (1,), F(2), [{(1,): F(1)}, {(1,): F(1)}])
        assert hm._blocks
        assert all((7,) not in img for blk in hm._blocks.values() for img in blk.values())
        assert_memo_matches_fresh(hm, heisenberg_model())

    def test_mutating_evaluator_rejected_on_dual_images(self):
        # the slot tail at infinity hands the evaluator per-label W' images
        hm = heisenberg_model()
        dual = contragredient(hm)
        w2 = {(1,): F(1)}

        def mutate(u, v):
            if v is not w2:
                v[(7,)] = F(1)
            return F(0)

        phi = BlockFunctional(SpherePoints([F(0), INFINITY]), [hm, dual], [6, 6], mutate)
        with pytest.raises(TypeError):
            propagate_eval(phi, (1,), F(2), [{(1,): F(1)}, w2])
        assert dual._blocks
        assert all((7,) not in img for blk in dual._blocks.values() for img in blk.values())
        assert_memo_matches_fresh(dual, contragredient(heisenberg_model()))
        assert_memo_matches_fresh(hm, heisenberg_model())


def rand_vector(rng, labels, size):
    return {label: rand_frac(rng, nonzero=True) for label in rng.sample(labels, size)}


class TestSectionMemo:
    """The propagated block's evaluator sums per-label sections glued once
    and kept on phi; its values must match the one-shot propagation and the
    vertex-operator oracle in any call order."""

    @pytest.mark.parametrize("module, cap, v_labels, w_labels", [
        (heisenberg_model(), 6, [(), (1,), (2,), (1, 1)],
         [(), (1,), (2,), (1, 1), (2, 1), (3,)]),
        (virasoro_model(F(-22, 5)), 8, [(), (2,), (3,), (2, 2)],
         [(), (2,), (3,), (4,), (2, 2)]),
    ], ids=["heisenberg", "virasoro"])
    def test_evaluator_matches_one_shot_and_oracle(self, module, cap, v_labels, w_labels):
        rng = random.Random(131)
        phi = identity_hom(module, cap)
        ys = [F(2), F(-1, 2), F(3), F(2), F(-1, 2)]  # repeated points share sections
        cases = [(y, rand_vector(rng, v_labels, rng.randint(1, 3)),
                  rand_vector(rng, w_labels, rng.randint(1, 3)),
                  rand_vector(rng, w_labels, rng.randint(1, 3)))
                 for y in ys for _ in range(3)]
        blocks = {y: propagate_block(phi, y, 4) for y in set(ys)}
        for order in range(2):
            rng.shuffle(cases)
            for y, v, w1, w2 in cases:
                got = blocks[y](w1, v, w2)
                assert type(got) is F
                assert got == propagate_eval(phi, v, y, [w1, w2]), (y, v, w1, w2)
                assert got == three_point_block(module, v, y, w1, w2), (y, v, w1, w2)
            if order == 0:
                entries = len(phi._sections)
                # one entry per (v label, w1 label, w2 label) off the vacuum
                assert 0 < entries <= len(v_labels) * len(w_labels) ** 2
        # the second pass, over the same vectors, glued nothing new
        assert len(phi._sections) == entries

    def test_evaluator_hands_out_values_only(self):
        phi = identity_hom(heisenberg_model(), 10)
        py = propagate_block(phi, F(3), 4)
        w1 = {(1,): F(2), (2,): F(1)}
        w2 = {(1,): F(1), (1, 1): F(3)}
        values = [py(w1, {(1,): F(1)}, w2), py(w1, {(): F(2)}, w2), py({}, {(2,): F(1)}, w2),
                  propagate_eval(py, (1,), F(2), [w1, {(1,): F(1)}, w2])]
        assert all(type(x) is F for x in values)
        assert values[1] == 2 * phi(w1, w2) and values[2] == 0

    def test_bad_point_and_short_cap_fail_closed(self):
        phi = identity_hom(VIR, 5)
        with pytest.raises(ValueError):
            propagate_block(phi, F(0), 4)
        py = propagate_block(phi, F(2), 4)
        with pytest.raises(ValueError):
            propagate_eval(py, (2,), F(2), [{(2,): F(1)}, {(2,): F(1)}, {(2,): F(1)}])
        w = {(2, 2): F(1)}
        with pytest.raises(UnderdeterminedCap):
            py(w, {(2, 2): F(1)}, w)
        # a section that failed to certify is not kept
        assert phi._sections == {}
        with pytest.raises(UnderdeterminedCap):
            py(w, {(2, 2): F(1)}, w)

    def test_twists_read_only_and_fresh(self):
        warm = heisenberg_model()
        phi = identity_hom(warm, 10)
        py = propagate_block(phi, F(3), 4)
        py({(1,): F(2)}, {(1, 1): F(1), (2,): F(-1)}, {(2,): F(1)})
        assert warm._twists
        for label, terms in list(warm._twists.items()):
            for _, vec in terms:
                with pytest.raises(TypeError):
                    vec[(9,)] = F(1)
            got = gamma_twist(label, warm)
            got.append((99, {}))  # the caller's list, not the memo
            assert gamma_twist(label, warm) == gamma_twist(label, heisenberg_model())
        v = {(1, 1): F(1, 2), (2,): F(3), (): F(-1)}
        want: dict = {}
        for label, c in v.items():
            for e, vec in gamma_twist(label, heisenberg_model()):
                part = want.setdefault(e, {})
                for k, a in vec.items():
                    part[k] = part.get(k, F(0)) + c * a
        assert gamma_twist(v, warm) == sorted((e, {k: a for k, a in vec.items() if a})
                                              for e, vec in want.items())


def record_tail_reads(monkeypatch, phi):
    """Record every mode image that a slot tail of phi asks of phi's own
    modules, as (image weight, weights of the other slot's labels); tails of
    blocks propagated from phi ask images too, and are not recorded."""
    asked = []
    slot = []  # the innermost slot tail: (i, w_vecs) for phi, None for another
    real = blocks_module._slot_tail

    def slot_tail(psi, i, terms, w_vecs, var):
        slot.append((i, w_vecs) if psi is phi else None)
        try:
            return real(psi, i, terms, w_vecs, var)
        finally:
            slot.pop()

    for m in phi.modules:
        def mode_image(vl, h, wl, m=m, read=m.mode_image):
            if slot and slot[-1] is not None:
                i, w_vecs = slot[-1]
                assert m is phi.modules[i]
                asked.append((weight_of(vl) + weight_of(wl) - h - 1,
                              {weight_of(label) for label in w_vecs[1 - i]}))
            return read(vl, h, wl)
        m.mode_image = mode_image
    monkeypatch.setattr(blocks_module, "_slot_tail", slot_tail)
    return asked


def unskipped(phi):
    """phi as a functional that declares no read weights."""
    return BlockFunctional(phi.points, phi.modules, phi.caps, phi.evaluate)


def series_parts(s):
    return s.var, s.floor, s.order, list(s.coeffs)


class TestSlotTailReads:
    """identity_hom declares the weights each slot pairs, and its slot tails
    compute no mode image of another weight; tails, sections and values are
    those of the same functional with every mode computed."""

    @pytest.mark.parametrize("make, u, v, w1, w2", [
        (heisenberg_model, {(1,): F(1)}, {(2,): F(1), (1,): F(-3)},
         {(1,): F(2), (2,): F(1)}, {(1,): F(1), (1, 1): F(3)}),
        (lambda: fock_module(heisenberg_model(), F(1, 2)), {(1, 1): F(1, 2)}, {(1,): F(1)},
         {(): F(1), (2,): F(3)}, {(1,): F(1), (2,): F(-2)}),
        (lambda: virasoro_model(F(7, 3)), {(2,): F(1)}, {(2,): F(2)},
         {(): F(1), (2,): F(1)}, {(2,): F(1), (3,): F(1, 2)}),
    ], ids=["heisenberg", "fock", "virasoro"])
    def test_cold_nested_asks_only_read_weights(self, monkeypatch, make, u, v, w1, w2):
        phi = identity_hom(make(), 10)
        asked = record_tail_reads(monkeypatch, phi)
        a = propagate_eval(propagate_block(phi, F(3), 4), v, F(2), [w1, u, w2])
        b = propagate_eval(propagate_block(phi, F(2), 4), u, F(3), [w1, v, w2])
        assert asked
        assert all(wt in weights for wt, weights in asked)
        monkeypatch.undo()
        ref = unskipped(identity_hom(make(), 10))
        want = propagate_eval(propagate_block(ref, F(3), 4), v, F(2), [w1, u, w2])
        assert a == b == want != 0

    @pytest.mark.parametrize("module, cap", [
        (heisenberg_model(), 6), (fock_module(heisenberg_model(), F(2, 3)), 8),
        (virasoro_model(F(-22, 5)), 7),
    ], ids=["heisenberg", "fock", "virasoro"])
    def test_tails_equal_the_unskipped_tails(self, module, cap):
        rng = random.Random(3407)
        phi = identity_hom(module, cap)
        ref = unskipped(phi)
        v_labels = [l for wt in range(4) for l in module.voa.basis_at(wt)]
        # labels up to two weights above the cap, which the pairing ignores
        w_labels = [l for wt in range(cap + 3) for l in module.basis_at(wt)]
        nonzero = 0
        for _ in range(12):
            v = rand_vector(rng, v_labels, rng.randint(1, 3))
            w_vecs = [rand_vector(rng, w_labels, rng.randint(1, 3)) for _ in range(2)]
            got = blocks_module._tails(phi, v, w_vecs)
            want = blocks_module._tails(ref, v, w_vecs)
            assert list(got) == [F(0), INFINITY]
            for p in got:
                assert series_parts(got[p]) == series_parts(want[p]), (p, v, w_vecs)
                nonzero += not got[p].is_zero()
        assert nonzero

    def test_zero_coefficients_glue_nothing(self):
        phi = identity_hom(heisenberg_model(), 10)
        py = propagate_block(phi, F(2), 4)
        w1 = {(1,): F(2)}
        w2 = {(2,): F(1)}
        value = py(w1, {(1,): F(1)}, w2)
        entries = len(phi._sections)
        padded = py({(1,): F(2), (2,): F(0)}, {(1,): F(1)}, {(2,): F(1), (1, 1): F(0)})
        assert padded == value
        assert len(phi._sections) == entries


class TestBlockProperty:
    FORMS = [RationalFunction(poly={0: F(1)}),
             RationalFunction(poly={2: F(1)}),
             RationalFunction(poles={0: {1: F(1)}}),
             RationalFunction(poles={0: {2: F(1)}}),
             RationalFunction(poly={1: F(2)}, poles={0: {1: F(-3)}})]

    def test_hom_blocks_are_blocks(self):
        phi = identity_hom(H, 8)
        for v in ((1,), (2,)):
            for g in self.FORMS:
                assert block_property_check(phi, v, g,
                                            [{(2, 1): F(1)}, {(1, 1): F(2)}])

    def test_virasoro_block(self):
        phi = identity_hom(VIR, 10)
        for g in self.FORMS:
            assert block_property_check(phi, (2,), g,
                                        [{(2,): F(1)}, {(2,): F(1)}])

    def test_vertex_block_three_points(self):
        vb = vertex_block(H, F(1), 8)
        g = RationalFunction(poles={0: {1: F(1)}, 1: {1: F(-2)}}, poly={0: F(1)})
        assert block_property_check(vb, (1,), g,
                                    [{(1,): F(1)}, {(): F(1)}, {(1,): F(1)}])

    def test_non_block_detected(self):
        bogus = BlockFunctional(
            SpherePoints([F(0), INFINITY]), [H, contragredient(H)], [8, 8],
            lambda u, v: sum(u.values(), F(0)) * sum(v.values(), F(0)))
        results = [block_property_check(bogus, (1,), g,
                                        [{(1,): F(1)}, {(1,): F(1)}])
                   for g in self.FORMS]
        assert not all(results)


    def test_cap_boundary_names_the_cap(self):
        # L_{-2}|0> against zeta^{-2} dzeta needs Y(omega)_{-2} (2,) = L_{-3} L_{-2}|0>
        # of weight 5 at 0; against zeta^3 dzeta the tail at infinity needs cap 4
        w = [{(2,): F(1)}, {(2,): F(1)}]
        for g, cap, point in ((RationalFunction(poles={0: {2: F(1)}}), 5, "0"),
                              (RationalFunction(poly={3: F(1)}), 4, "INFINITY")):
            with pytest.raises(UnderdeterminedCap,
                               match=rf"residue at {point}: .*\(slot cap >= {cap}\)"):
                block_property_check(identity_hom(VIR, cap - 1), (2,), g, w)
            assert block_property_check(identity_hom(VIR, cap), (2,), g, w)


def sum_product(*w_vecs):
    """A multilinear functional that is no block: the product over slots of
    each insertion's coefficient sum."""
    total = F(1)
    for w in w_vecs:
        total *= sum(w.values(), F(0))
    return total


@pytest.mark.parametrize("module", [heisenberg_model(), fock_module(heisenberg_model(), F(2, 3)),
                                    virasoro_model(F(-22, 5))],
                         ids=["heisenberg", "fock", "virasoro"])
def test_block_property_on_drawn_forms(module):
    """The defining property alone as the oracle: over drawn forms g dzeta
    with poles at every finite marked point (and a polynomial part, a pole at
    infinity), identity_hom and vertex_block pass for a drawn v of mixed
    weight with a vacuum part, and the same check on phi + sum_product fails
    for some drawn form.  Cap 7 covers poles of order <= 3 against v of
    weight <= 3 and insertions of weight <= 2."""
    rng = random.Random(1717)
    voa = module.voa
    v_by_weight = [voa.basis_at(wt) for wt in (1, 2, 3) if voa.basis_at(wt)]
    perturbed = []
    for trial in range(8):
        z0 = rng.choice([F(1), F(-2), F(1, 3)])
        phi = vertex_block(module, z0, 7) if trial % 2 else identity_hom(module, 7)
        v = {(): rand_frac(rng, nonzero=True)}
        for labels in rng.sample(v_by_weight, 2):
            v[rng.choice(labels)] = rand_frac(rng, nonzero=True)
        w_vecs = [rand_vector(rng, [l for wt in range(3) for l in m.basis_at(wt)], 2)
                  for m in phi.modules]
        psi = BlockFunctional(phi.points, phi.modules, phi.caps,
                              lambda *ws, phi=phi: phi(*ws) + sum_product(*ws))
        for _ in range(3):
            g = RationalFunction(
                {k: rand_frac(rng) for k in range(rng.randint(0, 2))},
                {p: {m: rand_frac(rng, nonzero=True) for m in range(1, rng.randint(1, 3) + 1)}
                 for p in phi.points.finite})
            assert block_property_check(phi, v, g, w_vecs), (trial, v, g, w_vecs)
            perturbed.append(block_property_check(psi, v, g, w_vecs))
    assert not all(perturbed)


class TestSpherePoints:
    def test_distinct_required(self):
        with pytest.raises(ValueError):
            SpherePoints([F(0), F(0)])

    def test_infinity_last(self):
        with pytest.raises(ValueError):
            SpherePoints([INFINITY, F(0)])
