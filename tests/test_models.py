"""VOA models: axioms, Virasoro bracket on mode matrices, duals."""

import hashlib
import random
from collections import Counter
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from voablocks.graded import vec_add_into, vec_is_zero, weight_of
from voablocks.models import (DualModule, FockModule, contragredient, fock_module, gamma_twist,
                              heisenberg_model, jacobi_check, partition_count, partitions,
                              virasoro_model)
from voablocks.sewing import torus_character
from voablocks.virasoro import gbinom

H = heisenberg_model()
VIR = virasoro_model(F(1, 2))
MODELS = [H, VIR]


def all_labels(module, cap):
    return [l for wt in range(cap + 1) for l in module.basis_at(wt)]


class TestAxioms:
    @pytest.mark.parametrize("voa", MODELS, ids=["heisenberg", "virasoro"])
    def test_creation(self, voa):
        # Y(v, z) vacuum has no pole and constant term v
        for label in all_labels(voa, 5):
            v = {label: F(1)}
            for n in range(0, 4):
                assert voa.mode_apply(v, n, {(): F(1)}) == {}
            assert voa.mode_apply(v, -1, {(): F(1)}) == v

    @pytest.mark.parametrize("voa", MODELS, ids=["heisenberg", "virasoro"])
    def test_vacuum(self, voa):
        # Y(vacuum, z) = identity
        for label in all_labels(voa, 5):
            w = {label: F(1)}
            assert voa.mode_apply({(): F(1)}, -1, w) == w
            for n in (-3, -2, 0, 1, 2):
                assert voa.mode_apply({(): F(1)}, n, w) == {}

    @pytest.mark.parametrize("voa", MODELS, ids=["heisenberg", "virasoro"])
    def test_lminus1_derivative(self, voa):
        # Y(L_{-1} v)_n = -n Y(v)_{n-1}
        for label in all_labels(voa, 4):
            lv = voa.L_apply(-1, {label: F(1)})
            for wl in all_labels(voa, 4):
                w = {wl: F(1)}
                for n in range(-2, weight_of(label) + weight_of(wl) + 2):
                    lhs = voa.mode_apply(lv, n, w)
                    rhs = {k: -n * c
                           for k, c in voa.mode_apply({label: F(1)}, n - 1, w).items()
                           if n != 0}
                    diff = vec_add_into(dict(lhs), rhs, F(-1))
                    assert vec_is_zero(diff), (label, wl, n)

    @pytest.mark.parametrize("voa", MODELS, ids=["heisenberg", "virasoro"])
    def test_jacobi_randomized(self, voa):
        rng = random.Random(20240817)
        labels = all_labels(voa, 4)
        for _ in range(25):
            u = rng.choice(labels)
            v = rng.choice(labels)
            w = {rng.choice(labels): F(rng.randint(1, 5))}
            m, n, h = (rng.randint(-2, 3) for _ in range(3))
            assert jacobi_check(voa, u, v, w, m, n, h), (u, v, w, m, n, h)

    def test_jacobi_fails_on_a_broken_bracket(self):
        # alpha_2 doubled on F_mu: alpha_2 alpha_{-2}|mu> = 4|mu>, but the
        # bracket [alpha_2, alpha_{-2}] = 2 is the u = v = alpha, n = 0 case
        good, bad = FockModule(H, F(2, 3)), DoubledAlpha2(H, F(2, 3))
        args = ((1,), (1,), {(): F(1)}, 2, 0, -2)
        assert jacobi_check(good, *args)
        rep = jacobi_check(bad, *args)
        assert not rep and rep.witness and not vec_is_zero(rep.witness)
        assert repr(rep) == f"JacobiReport(FAIL witness={rep.witness})"


class DoubledAlpha2(FockModule):
    """F_mu with every alpha_2 image doubled: the bracket of alpha_2 with
    alpha_{-2} is off by 2."""

    def gen_apply(self, k, label):
        img = super().gen_apply(k, label)
        return {l: 2 * c for l, c in img.items()} if k == 2 else img


def vir_commutator_columns(voa, m, n, cap):
    """[L_m, L_n] on every basis label whose intermediates stay capped."""
    out = {}
    for wt in range(cap + 1):
        for label in voa.basis_at(wt):
            if wt - n > cap or wt - m > cap or wt - m - n > cap:
                continue
            w = {label: F(1)}
            a = voa.L_apply(m, voa.L_apply(n, w))
            b = voa.L_apply(n, voa.L_apply(m, w))
            out[label] = vec_add_into(dict(a), b, F(-1))
    return out


@pytest.mark.parametrize("voa", MODELS, ids=["heisenberg", "virasoro"])
def test_virasoro_relation_cap8(voa):
    cap = 8
    for m in range(-5, 6):
        for n in range(-5, 6):
            comm = vir_commutator_columns(voa, m, n, cap)
            for label, got in comm.items():
                w = {label: F(1)}
                want = {k: (m - n) * c
                        for k, c in voa.L_apply(m + n, w).items()}
                if m == -n:
                    central = F(m ** 3 - m, 12) * voa.c
                    vec_add_into(want, w, central)
                diff = vec_add_into(dict(got), want, F(-1))
                assert vec_is_zero(diff), (m, n, label)


class TestContragredient:
    def test_double_dual_is_original(self):
        # oracle: the double transpose (W')', the test-local twisted
        # transpose of W' read label by label, block by block against W for
        # every VOA label of weight <= 4
        hm = heisenberg_model()
        for M in (hm, fock_module(hm, F(1, 2)), fock_module(hm, F(2, 3)),
                  virasoro_model(F(1, 2)), virasoro_model(F(7, 3))):
            Md = contragredient(M)
            for wtv in range(5):
                for vl in M.voa.basis_at(wtv):
                    for wt in range(6):
                        for h in range(wtv + wt - 10, wtv + wt):
                            want = {wl: dict(img) for wl, img in M.mode_block(vl, h, wt).items()}
                            assert twisted_transpose(Md, vl, h, wt) == want, (M.name, vl, h, wt)

    def test_dual_of_a_contragredient_refused(self):
        Md = contragredient(fock_module(H, F(1, 2)))
        with pytest.raises(ValueError, match=r"contragredient\(fock\(1/2\)'\) is fock\(1/2\)$"):
            DualModule(Md)

    def test_one_contragredient_per_module(self):
        for M in (H, VIR, fock_module(H, F(1, 2))):
            Md = contragredient(M)
            assert contragredient(M) is Md
            assert contragredient(Md) is M

    def test_dual_pairing_adjoint(self):
        # <Y_W(g)_n m, m'> = <m, Y_{W'}(g)_n^try m'> through the twisted action
        Md = contragredient(H)
        # alpha_1 alpha_{-1}1 = 1 pairs with vacuum'; on the dual side the
        # adjoint of alpha_1 must hit (1,)' from ()'
        img = Md.mode_apply({(1,): F(1)}, -1, {(): F(1)})
        assert set(img) == {(1,)}


def test_fock_zero_mode():
    Fm = fock_module(H, F(3))
    assert Fm.gen_apply(0, ()) == {(): F(3)}
    assert Fm.delta == F(9, 2)


@pytest.mark.parametrize("voa", MODELS, ids=["heisenberg", "virasoro"])
def test_gamma_twist_matches_conformal_mode(voa):
    # oracle: L_1 = Y(conformal vector)_2 through the generic Jacobi recursion;
    # the term L_1^m v / m! of the twist sits at w^{2 wt(v) - m} with the
    # sign (-1)^{wt v}
    for wt in range(7):
        for label in voa.basis_at(wt):
            sign = (-1) ** wt
            want = {label: F(sign)}
            for m, (e, term) in enumerate(reversed(gamma_twist(label, voa))):
                assert (e, term) == (2 * wt - m, want), (label, m)
                want = {k: c / (m + 1) for k, c in
                        voa.mode_apply(voa.conformal_vector, 2, want).items()}
            assert want == {}, label


def test_every_value_is_a_fraction():
    # exactness: blocks, mode images, L_n and the twist hold Fractions only,
    # never ints or floats, on the VOAs, a Fock module and the contragredients
    H0 = heisenberg_model()
    modules = [H0, fock_module(H0, F(1, 2)), virasoro_model(F(-22, 5))]
    modules += [contragredient(M) for M in modules]
    values = []
    for M in modules:
        for wt_v in range(4):
            for vl in M.voa.basis_at(wt_v):
                values += [c for _, vec in gamma_twist(vl, M) for c in vec.values()]
                for wt in range(5):
                    # the modes whose images land in weights 0..4
                    for n in range(wt_v + wt - 5, wt_v + wt):
                        for img in M.mode_block(vl, n, wt).values():
                            values += img.values()
                        for wl in M.basis_at(wt):
                            values += M.mode_apply(vl, n, {wl: F(1)}).values()
        for wt in range(5):
            for wl in M.basis_at(wt):
                for n in range(-2, 3):
                    values += M.L_apply(n, {wl: F(1)}).values()
    assert len(values) > 1000
    assert [c for c in values if type(c) is not F] == []


def test_memo_caches_are_read_only():
    V = virasoro_model(F(1, 2))
    r = V.gen_apply(-1, (2,))
    with pytest.raises(TypeError):
        r[(9,)] = 7
    assert dict(V.gen_apply(-1, (2,))) == {(2, 2): F(1)}
    for M in (heisenberg_model(), contragredient(heisenberg_model())):
        blk = M.mode_block((1,), -1, 1)
        before = {wl: dict(img) for wl, img in blk.items()}
        assert before[(1,)]
        with pytest.raises(TypeError):
            blk[(9,)] = {(9,): 7}
        with pytest.raises(TypeError):
            blk[(1,)][(9,)] = 7
        assert {wl: dict(img) for wl, img in M.mode_block((1,), -1, 1).items()} == before
        img = M._L(1, (2,))  # the per-label L_n that U(rho) reads
        before = dict(img)
        assert before
        with pytest.raises(TypeError):
            img[(9,)] = 7
        assert dict(M._L(1, (2,))) == before


@pytest.mark.parametrize("M", [H, fock_module(H, F(3, 2))], ids=["heisenberg", "fock"])
def test_sugawara_L_matches_conformal_vector(M):
    # oracle: Y(conformal vector)_{n+1} by the Jacobi recursion over
    # generator modes
    for wt in range(8):
        for label in M.basis_at(wt):
            for n in range(-4, wt + 3):
                w = {label: F(1)}
                want = M.mode_apply(M.voa.conformal_vector, n + 1, w)
                assert M.L_apply(n, w) == want, (label, n)


def twisted_transpose(M, vl, h, d):
    """sum_m ((-1)^{wt v} / m!) Y_M(L_1^m v)_k^t on the dual labels of weight
    d, k = -h - m - 2 + 2 wt(v), entry by entry from single-label modes;
    L_1 = Y(conformal vector)_2 on the VOA."""
    voa = M.voa
    wtv = weight_of(vl)
    src = d + wtv - h - 1
    out = {}
    term, m = {vl: F(1)}, 0
    while term:
        k = -h - m - 2 + 2 * wtv
        for ul, uc in term.items():
            for wl2 in M.basis_at(src):  # empty below weight 0
                for wl, c in M.mode_apply(ul, k, {wl2: F(1)}).items():
                    col = out.setdefault(wl, {})
                    col[wl2] = col.get(wl2, 0) + (-1) ** wtv * uc * c
        m += 1
        term = {l: c / m for l, c in
                voa.mode_apply(voa.conformal_vector, 2, term).items()}
    out = {wl: {l: c for l, c in col.items() if c} for wl, col in out.items()}
    return {wl: col for wl, col in out.items() if col}


@pytest.mark.parametrize("M,labels", [
    (H, [(1,), (1, 1), (2, 1)]),
    (fock_module(H, F(1, 2)), [(1,), (1, 1), (2, 1)]),
    (virasoro_model(F(7, 3)), [(2,), (3,)]),
], ids=["heisenberg", "fock", "virasoro"])
def test_dual_block_is_twisted_transpose(M, labels):
    Md = contragredient(M)
    for vl in labels:
        wtv = weight_of(vl)
        for d in range(6):
            for h in range(wtv - 3, wtv + d + 1):
                got = {wl: dict(img) for wl, img in Md.mode_block(vl, h, d).items()}
                assert got == twisted_transpose(M, vl, h, d), (vl, h, d)


def invariant_norm(label):
    """<e_lambda, e_lambda> = (-1)^{l(lambda)} z_lambda for the invariant form
    of the Heisenberg VOA and its Fock modules on the partition basis, where
    z_lambda = prod_k k^{m_k} m_k!: alpha_n has adjoint -alpha_{-n}, and
    distinct partitions are orthogonal."""
    z = 1
    for k, m in Counter(label).items():
        z *= k ** m * factorial(m)
    return -z if len(label) % 2 else z


@pytest.mark.parametrize("make", [
    lambda hm: (hm, hm),
    lambda hm: (fock_module(hm, F(1, 2)), fock_module(hm, F(-1, 2))),
], ids=["heisenberg", "fock"])
def test_contragredient_is_the_invariant_form_image(make):
    """The invariant bilinear form (Frenkel-Huang-Lepowsky 1993, 5.2-5.3;
    H. Li 1994) identifies H' with H and F_mu' with F_{-mu}, label by label
    up to the norms G_lambda: Y_{M'}(v)_h e_lambda is Y(v)_h e_lambda on the
    twin with each entry mu scaled by G_mu / G_lambda.  The oracle uses no
    twist; it covers v of weight <= 4, lambda of weight 0-6 and h from -3 to
    wt v + wt lambda, the single-label reads of a slot tail at infinity."""
    M, twin = make(heisenberg_model())
    dual = contragredient(M)
    nonzero = 0
    for wtv in range(5):
        for vl in M.voa.basis_at(wtv):
            for wt in range(7):
                for wl in M.basis_at(wt):
                    g = invariant_norm(wl)
                    for h in range(-3, wtv + wt + 1):
                        want = {mu: c * F(invariant_norm(mu), g)
                                for mu, c in (twin.mode_image(vl, h, wl) or {}).items()}
                        assert dict(dual.mode_image(vl, h, wl) or {}) == want, (vl, h, wl)
                        nonzero += bool(want)
    assert nonzero > 1000


def invariant_form_map(V):
    """phi(a) = <a, .> as a vector of V', for the invariant form of the
    Virasoro VOA V (L_n has adjoint L_{-n}, <1, 1> = 1): e_lambda =
    L_{-lambda_1} ... L_{-lambda_k} 1 maps to sum_mu G[lambda][mu] e'_mu, where
    G[lambda][mu] is the vacuum coefficient of L_{lambda_k} ... L_{lambda_1} e_mu,
    computed with ``L_apply`` only.  The Gram rows are memoized per label."""
    rows: dict = {}

    def row(lam):
        if lam not in rows:
            rows[lam] = {}
            for mu in V.basis_at(weight_of(lam)):
                w = {mu: F(1)}
                for part in lam:
                    w = V.L_apply(part, w)
                if w.get(()):
                    rows[lam][mu] = w[()]
        return rows[lam]

    def phi(a):
        out: dict = {}
        for lam, c in a.items():
            vec_add_into(out, row(lam), c)
        return out

    return phi


@pytest.mark.parametrize("c", [F(7, 3), F(1, 2), F(-22, 5)], ids=["7/3", "1/2", "-22/5"])
def test_virasoro_contragredient_is_the_invariant_form_image(c):
    """The invariant form is a V-module map phi: V_c -> V_c' (Frenkel-Huang-
    Lepowsky 1993, 5.2-5.3; H. Li 1994), so Y_{V'}(v)_h phi(e_lambda) =
    phi(Y(v)_h e_lambda).  The oracle uses no twist, and the identity holds
    where the Gram matrix is singular too (from weight 4 at c = -22/5 and
    from weight 6 at c = 1/2).  It covers v of weight 2-5, lambda of weight
    0-6 and h from -3 to wt v + wt lambda - 1."""
    V = virasoro_model(c)
    dual = contragredient(V)
    phi = invariant_form_map(V)
    cases = nonzero = 0
    for wtv in range(2, 6):
        for vl in V.basis_at(wtv):
            for wt in range(7):
                for wl in V.basis_at(wt):
                    for h in range(-3, wtv + wt):
                        want = phi(V.mode_apply(vl, h, {wl: F(1)}))
                        assert dual.mode_apply(vl, h, phi({wl: F(1)})) == want, (vl, h, wl)
                        cases += 1
                        nonzero += bool(want)
    assert cases == 733 and nonzero > 400


# sha256 of ``block_golden_text()``, captured before the weight blocks were
# summed on integer numerators: same entries, key order and value types
BLOCK_GOLDEN = "32703ffcd8a23b1d6b5d4fa2e7991017f1cbd97d1199a35e05e4fd2b16020e1a"


def golden_modules():
    """Fresh H, F_{2/3}, Vir_{-22/5} and Vir_{1/2}, then their contragredients."""
    H0 = heisenberg_model()
    modules = [H0, fock_module(H0, F(2, 3)), virasoro_model(F(-22, 5)),
               virasoro_model(F(1, 2))]
    return modules + [contragredient(M) for M in modules]


def block_golden_text(modules, dual_block):
    """One line per mode_block: module, VOA label of weight <= 4, mode -3..5,
    source weight 0..5, then every image as (target label, value type,
    value) in key order.  A contragredient's block is read by
    ``dual_block(M, vl, n, wt)``."""
    lines = []
    for M in modules:
        read = dual_block if isinstance(M, DualModule) else type(M).mode_block
        for wt_v in range(5):
            for vl in M.voa.basis_at(wt_v):
                for wt in range(6):
                    for n in range(-3, 6):
                        blk = read(M, vl, n, wt)
                        lines.append(repr((M.name, vl, n, wt, [
                            (wl, [(k, type(c).__name__, c) for k, c in img.items()])
                            for wl, img in blk.items()])))
    return "\n".join(lines)


def per_label_block(M, vl, n, wt):
    """A weight block assembled from per-label images, as slot tails read them."""
    return {wl: img for wl in M.basis_at(wt) if (img := M.mode_image(vl, n, wl))}


def golden_sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_block_golden():
    assert golden_sha(block_golden_text(golden_modules(), DualModule.mode_block)) == BLOCK_GOLDEN


def test_block_golden_from_single_label_reads():
    """Every contragredient block of the golden, read label by label with
    ``mode_image`` on fresh modules, gives the same bytes (values, value
    types and key order)."""
    modules = golden_modules()
    assert golden_sha(block_golden_text(modules, per_label_block)) == BLOCK_GOLDEN


# composite VOA labels: Virasoro has none below weight 4
COMPOSITE = {"fock": [(1, 1), (2, 1), (1, 1, 1)], "virasoro": [(2, 2)]}


@settings(max_examples=20, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["fock", "virasoro"]),
       param=st.builds(F, st.integers(-30, 30), st.integers(1, 30)), data=st.data())
def test_integer_blocks_match_independent_oracles(kind, param, data):
    """Fresh F_mu or Vir_c whose parameter has a denominator up to 30, so a
    block's common denominator grows while it is summed.  Oracles outside
    the recursion: Y(g)_k is the generator action, Y(omega)_{n+1} the
    Sugawara resp. PBW L_n, the Jacobi identity on composite labels, and
    the test-local ``twisted_transpose`` for the contragredient's blocks."""
    M = fock_module(heisenberg_model(), param) if kind == "fock" else virasoro_model(param)
    gen = (M.voa.gen_weight,)
    for wt in range(6):
        for wl in M.basis_at(wt):
            for k in range(-3, wt + 3):
                assert dict(M.mode_block(gen, k, wt).get(wl, {})) == M.gen_apply(k, wl)
            for n in range(-3, wt + 2):
                w = {wl: F(1)}
                assert M.mode_apply(M.voa.conformal_vector, n + 1, w) == M._L(n, wl), (wl, n)
    labels = [l for wt in range(1, 4) for l in M.voa.basis_at(wt)]
    for _ in range(3):
        u = data.draw(st.sampled_from(COMPOSITE[kind]))
        v = data.draw(st.sampled_from(labels))
        w = {data.draw(st.sampled_from(all_labels(M, 3))): F(data.draw(st.integers(1, 5)))}
        m, n, h = (data.draw(st.integers(-2, 2)) for _ in range(3))
        assert jacobi_check(M, u, v, w, m, n, h), (u, v, w, m, n, h)
    Md = contragredient(M)
    for vl in labels:
        for d in range(6):
            for h in range(weight_of(vl) - 3, weight_of(vl) + d + 1):
                got = {wl: dict(img) for wl, img in Md.mode_block(vl, h, d).items()}
                assert got == twisted_transpose(M, vl, h, d), (vl, h, d)


def test_gbinom_oracles():
    """Every C(j, l) with j in [-40, 40] and l in [-3, 40] against Pascal's
    rule, and against j!/(l!(j-l)!) (0 outside 0 <= l <= j) for j >= 0."""
    for j in range(-40, 41):
        for l in range(-3, 41):
            b = gbinom(j, l)
            assert type(b) is int
            assert b == gbinom(j - 1, l) + gbinom(j - 1, l - 1), (j, l)
            if j >= 0:
                want = factorial(j) // (factorial(l) * factorial(j - l)) if 0 <= l <= j else 0
                assert b == want, (j, l)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["heisenberg", "fock", "virasoro"]),
       param=st.builds(F, st.integers(-30, 30), st.integers(1, 30)),
       k=st.integers(0, 5), h=st.integers(-4, 8), wt=st.integers(0, 5))
def test_length_one_blocks_obey_the_derivative_property(kind, param, k, h, wt):
    """Length-1 labels g_{-1-k} 1 against the L_{-1}-derivative property
    Y(L_{-1} v)_h = -h Y(v)_{h-1}: Y(g_{-1} 1)_h is the generator action, and
    (k+1) Y(g_{-2-k} 1)_h = -h Y(g_{-1-k} 1)_{h-1}, with (k+1) g_{-2-k} 1
    taken as L_{-1} g_{-1-k} 1 from the VOA's own Sugawara resp. PBW L_n."""
    if kind == "virasoro":
        M = virasoro_model(param)
    else:
        M = heisenberg_model() if kind == "heisenberg" else fock_module(heisenberg_model(), param)
    V = M.voa
    v = (V.gen_weight + k,)  # g_{-1-k} 1: alpha_{-1-k} 1 resp. L_{-2-k} 1
    lv = V.L_apply(-1, {v: F(1)})
    assert list(lv) == [(V.gen_weight + k + 1,)]
    for wl in M.basis_at(wt):
        w = {wl: F(1)}
        assert M.mode_apply((V.gen_weight,), h, w) == M.gen_apply(h, wl), wl
        diff = vec_add_into(M.mode_apply(lv, h, w), M.mode_apply(v, h - 1, w), F(h))
        assert vec_is_zero(diff), (v, wl)


def test_traces_fill_no_vacuum_block():
    """Cold weight-preserving blocks of the conformal-vector labels start the
    recursion at length-1 labels: no weight block of the vacuum label is
    filled.  A cold torus trace fills no weight block at all."""
    H0, V = heisenberg_model(), virasoro_model(F(-22, 5))
    for n in range(13):
        H0.mode_block((1, 1), 1, n)
        V.mode_block((2,), 1, n)
    for M in (H0, V):
        assert M._blocks
        assert [key for key in M._blocks if key[0] == ()] == []
    H1, V1 = heisenberg_model(), virasoro_model(F(-22, 5))
    torus_character(H1, {(1, 1): F(1, 2)}, 12)
    torus_character(V1, (2,), 12)
    for M in (H1, V1):
        assert M._blocks == {}


@pytest.mark.parametrize("dual", [False, True], ids=["M", "M'"])
@pytest.mark.parametrize("factory", [heisenberg_model,
                                     lambda: fock_module(heisenberg_model(), F(2, 3)),
                                     lambda: virasoro_model(F(-22, 5))],
                         ids=["H", "F(2/3)", "Vir(-22/5)"])
def test_partition_count_is_the_basis_size(factory, dual):
    # the count that serves dim M(n) and the basis it counts read the same
    # generator weight
    M = contragredient(factory()) if dual else factory()
    assert [partition_count(n, M.voa.gen_weight) for n in range(31)] == \
        [len(M.basis_at(n)) for n in range(31)]


def test_graded_character_lists_no_weight_space():
    """A cold graded character counts dim M(n): it lists no weight space."""
    partitions.cache_clear()
    for M in (heisenberg_model(), virasoro_model(F(-22, 5))):
        torus_character(M, (), 30)
    assert partitions.cache_info().currsize == 0
