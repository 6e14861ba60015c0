"""Acceptance suite: thirteen criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion also fails its own test on any miss.
"""

import random
from fractions import Fraction as F

from voablocks.blocks import (INFINITY, RationalFunction, SpherePoints,
                              global_form_tails, identity_hom, propagate_block,
                              propagate_eval, rational_glue, residue_pairing,
                              strong_residue_check)
from voablocks.cli import run_report
from voablocks.coordchange import (CoordChange, U_apply,
                                   huang_conjugation_check, poly_compose)
from voablocks.graded import vec_add_into, vec_is_zero
from voablocks.jsonio import dumps
from voablocks.models import (fock_module, heisenberg_model, jacobi_check,
                              virasoro_model)
from voablocks.odepole import PoleODE, formal_solve, numeric_continue, \
    radius_estimate
from voablocks.schwarzian import (antisymmetry_check, cocycle_check,
                                  exp_minus_one_series, mobius_series,
                                  schwarzian, triple_cocycle_check, uniformize)
from voablocks.series import BivarSeries, TruncSeries
from voablocks.sewing import (normalize_character, sewn_ode_witness,
                              torus_character, two_sided_identity_check)

H = heisenberg_model()
VIR = virasoro_model(F(1, 2))
MODELS = [H, VIR]


def report(num, desc, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def rand_frac(rng, nonzero=False):
    n = rng.randint(1, 5) if nonzero else rng.randint(-5, 5)
    return F(n, rng.randint(1, 3))


def rand_coord(rng, degree=4):
    poly = {1: rand_frac(rng, nonzero=True)}
    for k in range(2, degree + 1):
        c = rand_frac(rng)
        if c:
            poly[k] = c
    return CoordChange(poly)


def test_criterion_01_virasoro_relation():
    ok = True
    cap = 8
    for voa in MODELS:
        for m in range(-5, 6):
            for n in range(-5, 6):
                for wt in range(cap + 1):
                    if wt - n > cap or wt - m > cap or wt - m - n > cap:
                        continue
                    for label in voa.basis_at(wt):
                        w = {label: F(1)}
                        got = vec_add_into(
                            dict(voa.L_apply(m, voa.L_apply(n, w))),
                            voa.L_apply(n, voa.L_apply(m, w)), F(-1))
                        want = {k: (m - n) * c
                                for k, c in voa.L_apply(m + n, w).items()}
                        if m == -n:
                            vec_add_into(want, w, F(m ** 3 - m, 12) * voa.c)
                        if not vec_is_zero(vec_add_into(got, want, F(-1))):
                            ok = False
    report(1, "Virasoro bracket, both models, cap 8, |m|,|n| <= 5", ok)


def test_criterion_02_voa_axioms():
    ok = True
    for voa in MODELS:
        labels = [l for wt in range(7) for l in voa.basis_at(wt)]
        for label in labels:
            v = {label: F(1)}
            if voa.mode_apply(v, -1, {(): F(1)}) != v:
                ok = False
            if any(voa.mode_apply(v, n, {(): F(1)}) for n in range(3)):
                ok = False
            if voa.mode_apply({(): F(1)}, -1, v) != v:
                ok = False
            if any(voa.mode_apply({(): F(1)}, n, v) for n in (-2, 0, 1)):
                ok = False
        rng = random.Random(662607)
        for _ in range(50):
            u, v = rng.choice(labels), rng.choice(labels)
            w = {rng.choice(labels): F(rng.randint(1, 5))}
            m, n, h = (rng.randint(-2, 3) for _ in range(3))
            if not jacobi_check(voa, u, v, w, m, n, h):
                ok = False
    report(2, "creation/vacuum/L(-1)-derivative + 50 Jacobi per model", ok)


def test_criterion_03_group_law():
    ok = True
    rng = random.Random(271828)
    for voa in MODELS:
        labels = [l for wt in range(7) for l in voa.basis_at(wt)]
        for _ in range(100):
            r1, r2 = rand_coord(rng), rand_coord(rng)
            comp = CoordChange(poly_compose(r1.poly, r2.poly))
            w = {rng.choice(labels): F(1)}
            lhs = U_apply(comp, w, voa)
            rhs = U_apply(r1, U_apply(r2, w, voa), voa)
            if not vec_is_zero(vec_add_into(dict(lhs), rhs, F(-1))):
                ok = False
    report(3, "U(rho1 o rho2) = U(rho1) U(rho2), 100 pairs per model", ok)


def test_criterion_04_extraction_closed_forms():
    ok = True
    rng = random.Random(141421)
    for _ in range(25):
        a1 = rand_frac(rng, nonzero=True)
        a2, a3 = rand_frac(rng), rand_frac(rng)
        c = CoordChange({1: a1, 2: a2, 3: a3}).coeffs(2)
        if c != [a1, a2 / a1, a3 / a1 - (a2 / a1) ** 2]:
            ok = False
    report(4, "extraction closed forms at 25 random rational points", ok)


def test_criterion_05_huang_conjugation():
    ok = True
    rng = random.Random(173205)
    labels = [l for wt in range(6) for l in H.basis_at(wt)]
    for _ in range(20):
        alpha = rand_coord(rng, degree=3)
        w = {rng.choice(labels): F(1)}
        if not huang_conjugation_check(alpha, (1,), w, H, 5):
            ok = False
    # scaling special case: rho(z) = a z acts as a^{Ltilde0}
    for a in (F(2), F(-1, 3)):
        rho = CoordChange({1: a})
        for wt in range(5):
            for label in H.basis_at(wt):
                if U_apply(rho, {label: F(1)}, H) != {label: a ** wt}:
                    ok = False
    report(5, "Huang conjugation, 20 instances + scaling special case", ok)


def test_criterion_06_schwarzian_suite():
    ok = True
    rng = random.Random(577215)

    def rand_series():
        cmap = {1: rand_frac(rng, nonzero=True)}
        for k in range(2, 5):
            c = rand_frac(rng)
            if c:
                cmap[k] = c
        return TruncSeries.from_coeff_map("z", cmap, 10)

    for _ in range(50):
        a, b, c = rand_frac(rng), rand_frac(rng), rand_frac(rng)
        d = rand_frac(rng, nonzero=True)
        if a * d - b * c != 0 and \
                not schwarzian(mobius_series(a, b, c, d, 9)).is_zero():
            ok = False
        if not cocycle_check(rand_series(), rand_series()):
            ok = False
        if not antisymmetry_check(rand_series()):
            ok = False
        if not triple_cocycle_check(rand_series(), rand_series(),
                                    rand_series()):
            ok = False
    for _ in range(20):
        Q = TruncSeries.from_coeff_map(
            "z", {k: rand_frac(rng) for k in range(5)}, 8)
        s = schwarzian(uniformize(Q))
        w = min(s.order, 8)
        if not (s - Q.truncate(w)).truncate(w).is_zero():
            ok = False
    for _ in range(10):
        a = rand_frac(rng, nonzero=True)
        s = schwarzian(exp_minus_one_series(a, 10))
        if s.coeff(0) != -a * a / 2 or \
                any(s.coeff(n) for n in range(1, s.order)):
            ok = False
    report(6, "Schwarzian identities, uniformize round trip, exp series", ok)


def test_criterion_07_residue_machinery():
    ok = True
    rng = random.Random(314159)
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
        if rep1.passed != rep2.passed:
            ok = False
        if rep1.passed:
            if rep1.section != rep2.section:
                ok = False
            passing += 1
        else:
            if rep1.witness is None or rep2.witness is None:
                ok = False
            failing += 1
    pts = SpherePoints([F(0), F(1), INFINITY])
    targets = [RationalFunction(poly={0: F(1)}),
               RationalFunction(poles={0: {1: F(-1)}, 1: {1: F(1)}})]
    for _ in range(20):
        g = RationalFunction(
            poly={k: rand_frac(rng) for k in range(2)},
            poles={0: {1: rand_frac(rng)}, 1: {2: rand_frac(rng)}})
        cob = global_form_tails(g, pts, 7)
        if any(residue_pairing(cob, t) != 0 for t in targets):
            ok = False
    report(7, "glue vs strong residue check (30 instances) + coboundaries", ok)


def test_criterion_08_propagation():
    ok = True
    phi = identity_hom(H, 10)
    fixtures = [({(2, 1): F(3), (1,): F(2)}, {(2, 1): F(5), (3,): F(7)}),
                ({(1,): F(1)}, {(1,): F(1)}),
                ({(): F(1)}, {(): F(1)})]
    for u, v in fixtures:
        for y in (F(3), F(-1, 2), F(7, 5)):
            if propagate_eval(phi, (), y, [u, v]) != phi(u, v):
                ok = False
    w1 = {(1,): F(2), (2,): F(1)}
    w2 = {(1,): F(1), (1, 1): F(3)}
    pairs = [(F(2), F(3)), (F(1, 2), F(-1)), (F(5), F(1, 3)),
             (F(-2), F(3, 4)), (F(7), F(2)), (F(1), F(2)),
             (F(-1, 3), F(4)), (F(3), F(-5)), (F(2, 5), F(6)),
             (F(8), F(-1, 2))]
    for x, y in pairs:
        py = propagate_block(phi, y, 4)
        px = propagate_block(phi, x, 4)
        a = propagate_eval(py, (1,), x, [w1, {(1,): F(1)}, w2])
        b = propagate_eval(px, (1,), y, [w1, {(1,): F(1)}, w2])
        if a != b:
            ok = False
    report(8, "vacuum propagation law + double-propagation symmetry", ok)


def test_criterion_09_characters():
    def partitions(n, min_part=1):
        table = [1] + [0] * n
        for part in range(min_part, n + 1):
            for m in range(part, n + 1):
                table[m] += table[m - part]
        return table[n]

    ok = True
    ch = torus_character(H, (), 20)
    if list(ch.coeffs) != [partitions(n) for n in range(21)]:
        ok = False
    chv = torus_character(VIR, (), 12)
    if list(chv.coeffs) != [partitions(n, 2) for n in range(13)]:
        ok = False
    if normalize_character(ch, F(1)).offset != F(-1, 24):
        ok = False
    if normalize_character(chv, VIR.c).offset != F(-1, 48):
        ok = False
    report(9, "graded characters vs partition oracle + -c/24 offsets", ok)


def test_criterion_10_two_sided_identity():
    ok = True
    vectors = [{(): F(1)}, {(1, 1): F(1, 2)}, {(1,): F(1)}]
    forms = [(0, 0), (1, 0), (0, 1), (1, 1)]
    count = 0
    for u in vectors:
        for mono in forms:
            f = BivarSeries.from_monomials(("xi", "w"), {mono: F(1)}, (6, 6))
            if not two_sided_identity_check(u, f, H, 5):
                ok = False
            count += 1
    report(10, f"two-sided residue identity, {count} instances at q-order 5",
           ok and count >= 10)


def test_criterion_11_sewn_ode_witness():
    def log_derivative(q_exp, K):
        lam, s = q_exp.offset, q_exp.coeffs
        out = []
        for n in range(K + 1):
            d = (lam + n) * s[n] - sum(out[m] * s[n - m] for m in range(n))
            out.append(d / s[0])
        return out

    ok = True
    for mu in (F(0), F(1, 2), F(1)):
        ch = torus_character(fock_module(H, mu), (), 10)
        A = sewn_ode_witness([ch], 10)
        if [m[0][0] for m in A] != log_derivative(ch.standard, 10):
            ok = False
    report(11, "sewn ODE witness vs logarithmic-derivative oracle", ok)


def test_criterion_12_pole_ode():
    ok = True
    a = TruncSeries.from_coeff_map("q", {k: F(1) for k in range(1, 45)}, 45)
    ode = PoleODE([[a]])
    sol = formal_solve(ode, {0: [F(1)]}, 40)
    if any(sol.residual(n) != [F(0)] for n in range(41)):
        ok = False
    est = radius_estimate(ode, F(1, 2), majorant=(F(1), F(1)), solution=sol)
    if est.growth_checked != 40 - est.M:
        ok = False
    val, _ = numeric_continue(ode, [1.0 / 0.95], [0.05, 0.3], steps=400)
    if abs(val[0] - 1.0 / 0.7) / (1.0 / 0.7) >= 1e-8:
        ok = False
    report(12, "pole ODE: residual to order 40, growth bound, numerics", ok)


def test_criterion_13_determinism():
    one = dumps(run_report(7))
    two = dumps(run_report(7))
    report(13, "byte-identical seeded JSON reports", one == two)
