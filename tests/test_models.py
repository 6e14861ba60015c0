"""VOA models: axioms, Virasoro bracket on mode matrices, duals."""

import random
from fractions import Fraction as F

import pytest

from voablocks.graded import vec_add_into, vec_is_zero, weight_of
from voablocks.models import (CapError, DualModule, Module, contragredient,
                              exp_L1_terms, fock_module, heisenberg_model, jacobi_check,
                              mode_matrix, virasoro_model)

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


class TestModeMatrix:
    def test_cap_error(self):
        with pytest.raises(CapError):
            mode_matrix(H, (1,), -3, 2)  # alpha_{-3} raises weight by 3

    def test_matrix_matches_apply(self):
        op = mode_matrix(H, (1,), 1, 4)
        assert op.apply({(1,): F(2)}) == {(): F(2)}
        entries = dict(((d, s), c) for d, s, c in op.entries())
        assert entries[((), (1,))] == 1


class TestContragredient:
    def test_double_dual_is_original(self):
        # oracle: the double transpose (W')' built as its own DualModule,
        # block by block against W for every VOA label of weight <= 4
        hm = heisenberg_model()
        for M in (hm, fock_module(hm, F(1, 2)), fock_module(hm, F(2, 3)),
                  virasoro_model(F(1, 2)), virasoro_model(F(7, 3))):
            Mdd = DualModule(DualModule(M))
            for wtv in range(5):
                for vl in M.voa.basis_at(wtv):
                    for wt in range(6):
                        for h in range(wtv + wt - 10, wtv + wt):
                            assert Mdd.mode_block(vl, h, wt) == M.mode_block(vl, h, wt), \
                                (M.name, vl, h, wt)

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
def test_exp_L1_terms_match_conformal_mode(voa):
    # oracle: L_1 = Y(conformal vector)_2 through the generic Jacobi recursion
    for wt in range(7):
        for label in voa.basis_at(wt):
            want = {label: F(1)}
            for m, term in exp_L1_terms(voa, {label: F(1)}):
                assert term == want, (label, m)
                want = {k: c / (m + 1) for k, c in
                        voa.mode_apply(voa.conformal_vector, 2, want).items()}
            assert want == {}, label


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


@pytest.mark.parametrize("M", [H, fock_module(H, F(3, 2))], ids=["heisenberg", "fock"])
def test_sugawara_L_matches_conformal_vector(M):
    # oracle: the generic Module.L_apply, Y(conformal vector)_{n+1} by the
    # Jacobi recursion over generator modes
    for wt in range(8):
        for label in M.basis_at(wt):
            for n in range(-4, wt + 3):
                w = {label: F(1)}
                assert M.L_apply(n, w) == Module.L_apply(M, n, w), (label, n)


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
