"""Genus-0 blocks: residue machinery, hom/3-point blocks, propagation."""

import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from voablocks.blocks import (INFINITY, BlockFunctional, IntertwinerError,
                              RationalFunction, SpherePoints,
                              UnderdeterminedCap, block_property_check,
                              global_form_tails, hom_block,
                              identity_hom, propagate_block, propagate_eval,
                              rational_glue, residue_pairing,
                              strong_residue_check, three_point_block,
                              vertex_block)
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
        bad = TruncSeries(t.var, t.floor, list(t.coeffs), t.order)
        bad.coeffs[0] += 1
        rep = rational_glue(bad, POLE01.expand_at(1, 4),
                            POLE01.expand_at_infinity(4), 1)
        assert not rep.passed
        assert rep.witness.product_exponents(1) is not None

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
                t = tails[rng.randrange(3)]
                t.coeffs[rng.randrange(len(t.coeffs))] += 1
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

    def test_zero_tails(self):
        rep = strong_residue_check({F(0): TruncSeries.zero("t", 3),
                                    INFINITY: TruncSeries.zero("w", 3)})
        assert rep.passed and rep.section.is_zero()

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
    rep = strong_residue_check(tails, SpherePoints(points))
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
    rep = strong_residue_check(tails, SpherePoints(points))
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


class TestGammaTwist:
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


def test_nested_propagation_golden():
    modules = {"heisenberg": H, "virasoro": VIR, "fock": fock_module(H, F(1, 2))}
    for name, x, y, u, v, w1, w2, want in NESTED_GOLDEN:
        phi = identity_hom(modules[name], 10)
        a = propagate_eval(propagate_block(phi, y, 4), v, x, [w1, u, w2])
        b = propagate_eval(propagate_block(phi, x, 4), u, y, [w1, v, w2])
        assert (a, b) == (want, want), (name, x, y)
        assert type(a) is F and type(b) is F


def memo_snapshot(*modules):
    """Plain copies of the modules' mode-block memos."""
    return [{key: {wl: dict(img) for wl, img in blk.items()}
             for key, blk in m._blocks.items()} for m in modules]


def assert_memo_matches_fresh(module, fresh):
    """Every memoized block equals the block a fresh module computes."""
    for (vl, h, wt), blk in module._blocks.items():
        assert blk == fresh.mode_block(vl, h, wt), (vl, h, wt)


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


class TestSpherePoints:
    def test_distinct_required(self):
        with pytest.raises(ValueError):
            SpherePoints([F(0), F(0)])

    def test_infinity_last(self):
        with pytest.raises(ValueError):
            SpherePoints([INFINITY, F(0)])
