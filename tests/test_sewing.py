"""Sewing, torus characters, the two-sided identity, and the ODE witness."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from voablocks.blocks import identity_hom, propagate_block
from voablocks.models import (CapError, Module, contragredient, fock_module,
                              heisenberg_model, virasoro_model)
from voablocks.series import BivarSeries, QExpansion
from voablocks.sewing import (SewableBlock, SewnSeries, character_block,
                              normalize_character, sew, sewn_ode_witness,
                              torus_character, two_sided_identity_check)

H = heisenberg_model()
VIR = virasoro_model(F(1, 2))


def partition_count(n, min_part=1):
    """Count partitions of n with all parts >= min_part, by direct DP."""
    table = [1] + [0] * n
    for part in range(min_part, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table[n]


class TestCharacters:
    def test_heisenberg_is_partition_generating_series(self):
        ch = torus_character(H, (), 20)
        assert list(ch.coeffs) == [partition_count(n) for n in range(21)]

    def test_p_of_n_frozen_values(self):
        want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
                231, 297, 385, 490, 627]
        assert [partition_count(n) for n in range(21)] == want
        assert list(torus_character(H, (), 20).coeffs) == want

    def test_virasoro_counts_parts_at_least_two(self):
        ch = torus_character(VIR, (), 12)
        assert list(ch.coeffs) == [partition_count(n, min_part=2)
                                   for n in range(13)]

    def test_fock_offset(self):
        Fm = fock_module(H, F(2, 3))
        ch = torus_character(Fm, (), 8)
        assert ch.delta == F(2, 9)
        assert ch.standard.offset == F(2, 9)
        assert list(ch.coeffs) == [partition_count(n) for n in range(9)]

    def test_conformal_trace_is_n_times_character(self):
        ch = torus_character(VIR, (2,), 10)
        plain = torus_character(VIR, (), 10)
        assert list(ch.coeffs) == [n * c for n, c in enumerate(plain.coeffs)]

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.builds(F, st.integers(-9, 9), st.integers(1, 6)), st.integers(0, 10))
    def test_fock_L0_trace(self, mu, K):
        # tr_{F_mu(n)} L_0 = (n + mu^2/2) p(n)
        ch = torus_character(fock_module(H, mu), {(1, 1): F(1, 2)}, K)
        assert list(ch.coeffs) == [(n + mu * mu / 2) * partition_count(n)
                                   for n in range(K + 1)]

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(st.builds(F, st.integers(-30, 30), st.integers(1, 6)), st.integers(0, 12))
    def test_virasoro_L0_trace(self, c, K):
        # tr_{V_c(n)} L_0 = n p_{>=2}(n), whatever the central charge
        ch = torus_character(virasoro_model(c), {(2,): F(1)}, K)
        assert list(ch.coeffs) == [n * partition_count(n, min_part=2)
                                   for n in range(K + 1)]

    def test_normalize(self):
        ch = normalize_character(torus_character(H, (), 6), F(1))
        assert ch.offset == F(-1, 24)
        ch2 = normalize_character(torus_character(VIR, (), 6), VIR.c)
        assert ch2.offset == F(-1, 48)

    def test_negative_order_rejected(self):
        # fails closed naming K, not with an empty series
        with pytest.raises(ValueError, match="order K = -1"):
            torus_character(H, (), -1)


def block_diagonal_trace(module, label, K):
    """Oracle: tr_{M(n)} Y_M(v)_{wt v - 1} as the diagonal of the weight
    block the mode recursion fills, for n = 0..K."""
    h = sum(label) - 1
    return [sum((img[w] for w, img in module.mode_block(label, h, n).items() if w in img), F(0))
            for n in range(K + 1)]


TRACE_CASES = {  # name -> (module factory, top label weight, K)
    "H": (heisenberg_model, 6, 10),
    "F(2/3)": (lambda: fock_module(heisenberg_model(), F(2, 3)), 5, 10),
    "F(-3/2)": (lambda: fock_module(heisenberg_model(), F(-3, 2)), 5, 12),
    "Vir(-22/5)": (lambda: virasoro_model(F(-22, 5)), 6, 10),
    "Vir(1/2)": (lambda: virasoro_model(F(1, 2)), 6, 12),
    "H'": (lambda: contragredient(heisenberg_model()), 5, 8),
    "F(2/3)'": (lambda: contragredient(fock_module(heisenberg_model(), F(2, 3))), 4, 8),
    "F(-3/2)'": (lambda: contragredient(fock_module(heisenberg_model(), F(-3, 2))), 4, 8),
    "Vir(-22/5)'": (lambda: contragredient(virasoro_model(F(-22, 5))), 6, 8),
    "Vir(1/2)'": (lambda: contragredient(virasoro_model(F(1, 2))), 6, 8),
}


class TestZhuTraces:
    """torus_character runs Zhu's recursion on q-series and fills no weight
    block; the diagonals of the filled blocks are an independent oracle."""

    @pytest.mark.parametrize("name", TRACE_CASES)
    def test_matches_block_diagonal(self, name):
        factory, top, K = TRACE_CASES[name]
        M = factory()
        for wt in range(top + 1):
            for label in M.voa.basis_at(wt):
                got = torus_character(M, label, K).coeffs
                assert all(type(c) is F for c in got)
                assert list(got) == block_diagonal_trace(M, label, K), (name, label)

    def test_memo_hands_out_copies(self):
        M = virasoro_model(F(-22, 5))
        want = torus_character(virasoro_model(F(-22, 5)), (2, 2), 10).coeffs
        got = torus_character(M, (2, 2), 10)
        with pytest.raises(TypeError):
            got.coeffs[3] += 1
        with pytest.raises(TypeError):
            del got.coeffs[0]
        assert torus_character(M, (2, 2), 10).coeffs == want

    def test_windows_share_the_memo(self):
        # a longer window serves a shorter one, and a shorter one is extended
        M, fresh = fock_module(H, F(1, 3)), fock_module(H, F(1, 3))
        want = torus_character(fresh, (2, 1), 12).coeffs
        assert torus_character(M, (2, 1), 5).coeffs == want[:6]
        assert torus_character(M, (2, 1), 12).coeffs == want
        assert torus_character(M, (2, 1), 0).coeffs == want[:1]

    def test_inhomogeneous_insertion_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            torus_character(H, {(1,): F(1), (): F(1)}, 4)

    def test_no_weight_space_is_listed(self, monkeypatch):
        # o(g) is read on the label (w,) of M(w), or () at w = 0, and the
        # vacuum trace counts partitions: the L_0 traces of fresh H, F_mu and
        # Vir_c equal their oracles with basis_at refusing every call
        K, mu = 30, F(2, 3)
        p, p2 = [partition_count(n) for n in range(K + 1)], \
            [partition_count(n, min_part=2) for n in range(K + 1)]
        cases = [(heisenberg_model, {(1, 1): F(1, 2)}, [n * p[n] for n in range(K + 1)]),
                 (lambda: fock_module(heisenberg_model(), mu), {(1, 1): F(1, 2)},
                  [(n + mu * mu / 2) * p[n] for n in range(K + 1)]),
                 (lambda: virasoro_model(F(-22, 5)), {(2,): F(1)},
                  [n * p2[n] for n in range(K + 1)])]

        def refuse(self, n):
            raise AssertionError(f"basis_at({n}) called")

        monkeypatch.setattr(Module, "basis_at", refuse)
        for factory, v, want in cases:
            assert list(torus_character(factory(), v, K).coeffs) == want


LINEAR_CASES = {"H": heisenberg_model(), "F(2/3)": fock_module(heisenberg_model(), F(2, 3)),
                "Vir(-22/5)": virasoro_model(F(-22, 5)),
                "F(2/3)'": contragredient(fock_module(heisenberg_model(), F(2, 3)))}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(LINEAR_CASES)), st.integers(2, 4),
       st.integers(0, 10), st.data())
@example("F(2/3)'", 3, 10, None)
def test_combination_is_the_combination_of_traces(name, wt, K, data):
    # Z is linear: a u + b v with a, b over large coprime denominators sums
    # on the series' common denominator, checked against Fraction lists
    M = LINEAR_CASES[name]
    labels = M.voa.basis_at(wt)
    if data is None:  # the example: two labels, coefficients of opposite sign
        (u, v), a, b = labels[:2], F(-999_983, 999_979), F(1_000_000, 999_961)
    else:
        u, v = data.draw(st.sampled_from(labels)), data.draw(st.sampled_from(labels))
        a, b = (data.draw(st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)))
                for _ in range(2))
    vec = {u: a}
    vec[v] = vec.get(v, F(0)) + b
    zu, zv = torus_character(M, u, K).coeffs, torus_character(M, v, K).coeffs
    want = [a * x + b * y for x, y in zip(zu, zv)]
    assert list(torus_character(M, vec, K).coeffs) == want


@pytest.mark.parametrize("label", [(1,), (2,), (3,), (1, 1, 1), (2, 1, 1)])
@pytest.mark.parametrize("K", [0, 5])
def test_vanishing_traces_keep_the_window(label, K):
    # on H (mu = 0) a label with an odd number of parts has trace 0, and
    # alpha_{-2} 1 adds no term to the recursion; Z is still known on [0, K + 1)
    s = torus_character(heisenberg_model(), label, K).standard
    assert (s.series.floor, s.order, list(s.coeffs)) == (0, K + 1, [F(0)] * (K + 1))


class TestSew:
    def test_sew_equals_trace(self):
        for module, K in ((H, 8), (VIR, 8), (fock_module(H, F(1, 2)), 6)):
            blk = character_block(module, K)
            got = sew(blk, [{(): F(1)}])
            assert got == torus_character(module, (), K)

    def test_sew_with_conformal_insertion(self):
        blk = character_block(VIR, 6)
        got = sew(blk, [{(2,): F(1)}])
        assert got == torus_character(VIR, (2,), 6)

    def test_cap_guard(self):
        phi = character_block(H, 4).phi
        with pytest.raises(CapError, match="sewing cap 6 exceeds the declared slot caps"):
            SewableBlock(phi, 6)

    def test_negative_order_rejected(self):
        phi = character_block(H, 4).phi
        with pytest.raises(ValueError, match="order K = -1 must be >= 0"):
            SewableBlock(phi, -1)

    def test_pairing_slots_validated(self):
        phi = identity_hom(H, 4)
        swapped = type(phi)(phi.points, list(reversed(phi.modules)),
                            phi.caps, lambda u, v: phi(v, u))
        with pytest.raises(ValueError):
            SewableBlock(swapped, 4)


class TestTwoSidedIdentity:
    CONSTANT = BivarSeries.from_monomials(("xi", "w"), {(0, 0): F(1)}, (4, 4))
    XI = BivarSeries.from_monomials(("xi", "w"), {(1, 0): F(1)}, (4, 4))
    W = BivarSeries.from_monomials(("xi", "w"), {(0, 1): F(1)}, (4, 4))
    XIW = BivarSeries.from_monomials(("xi", "w"), {(1, 1): F(1)}, (4, 4))
    MIXED = BivarSeries.from_monomials(
        ("xi", "w"), {(0, 0): F(2), (1, 0): F(-1), (0, 2): F(1, 3),
                      (2, 1): F(5)}, (4, 4))

    @pytest.mark.parametrize("u", [(), (1,), (1, 1)],
                             ids=["vacuum", "generator", "square"])
    @pytest.mark.parametrize("fname", ["CONSTANT", "XI", "W", "XIW", "MIXED"])
    def test_heisenberg_instances(self, u, fname):
        assert two_sided_identity_check(u, getattr(self, fname), H, 5)

    @pytest.mark.parametrize("u", [(), (2,)], ids=["vacuum", "conformal"])
    @pytest.mark.parametrize("fname", ["CONSTANT", "XI", "W", "XIW", "MIXED"])
    def test_virasoro_instances(self, u, fname):
        assert two_sided_identity_check(u, getattr(self, fname), VIR, 5)

    def test_inhomogeneous_insertion(self):
        assert two_sided_identity_check({(1,): F(1), (): F(1)},
                                        self.XIW, H, 5)


def test_sewn_series_equality_compares_delta():
    # the same standard series, as Delta = 0 with a zero q^0 coefficient and
    # as Delta = 1, is not the same sewn series
    a, b = SewnSeries([0, 1], 0), SewnSeries([1], 1)
    assert a.standard == b.standard and a != b
    assert SewnSeries([1, 2], F(1, 3)) == SewnSeries([1], F(1, 3))


def log_derivative_modes(q_exp: QExpansion, K):
    """Oracle: a_n with q S'/S = sum a_n q^n, from the scalar recursion."""
    lam, s = q_exp.offset, q_exp.coeffs
    assert s[0] != 0
    a = []
    for n in range(K + 1):
        d = (lam + n) * s[n] - sum(a[m] * s[n - m] for m in range(n))
        a.append(d / s[0])
    return a


class TestOdeWitness:
    def test_scalar_matches_log_derivative(self):
        for mu in (F(0), F(1, 2), F(1)):
            ch = torus_character(fock_module(H, mu), (), 10)
            A = sewn_ode_witness([ch], 10)
            want = log_derivative_modes(ch.standard, 10)
            assert [m[0][0] for m in A] == want

    def test_block_diagonal_stacking(self):
        ch1 = torus_character(H, (), 8)
        ch2 = torus_character(fock_module(H, F(1)), (), 8).standard
        ch2 = ch2.shift_offset(-ch2.offset)  # align offsets to 0
        A = sewn_ode_witness([ch1.standard, ch2], 8)
        a1 = log_derivative_modes(ch1.standard, 8)
        a2 = log_derivative_modes(ch2, 8)
        for n in range(9):
            assert A[n][0][0] == a1[n] and A[n][1][1] == a2[n]
            assert A[n][0][1] == 0 and A[n][1][0] == 0

    def test_rank_deficiency_reported(self):
        # the L0-weighted trace of the conformal vector starts at q^1
        ch = torus_character(VIR, (2,), 6)
        with pytest.raises(ValueError, match="rank deficiency"):
            sewn_ode_witness([ch], 6)

    @pytest.mark.parametrize("coeffs", [[1, 2], [0, 1]])
    def test_negative_order_rejected(self, coeffs):
        # fails closed naming K, not with a division by zero or a rank
        # deficiency of a window that was never read
        with pytest.raises(ValueError, match="order K = -1"):
            sewn_ode_witness([QExpansion(0, coeffs)], -1)

    def test_mixed_offsets_rejected(self):
        ch1 = torus_character(H, (), 6)
        ch2 = torus_character(fock_module(H, F(1, 2)), (), 6)
        with pytest.raises(ValueError, match="mixed offsets"):
            sewn_ode_witness([ch1.standard, ch2.standard], 6)


def sigma1(n):
    """Sum of the divisors of n, by a plain divisor loop."""
    return sum(d for d in range(1, n + 1) if n % d == 0)


class TestGenusOneOde:
    """The sewn ODE of a character against Euler's identity
    n p(n) = sum_k sigma_1(k) p(n-k): the normalized Fock character
    prod_{n>=1} (1-q^n)^{-1} has log-derivative sum sigma_1(n) q^n, the
    Virasoro one prod_{n>=2} (1-q^n)^{-1} loses the divisor 1 of every n,
    and the standard grading adds Delta to the constant term.  The oracle
    reads no character the library computes."""

    K = 12

    def diagonal(self, module):
        A = sewn_ode_witness([torus_character(module, (), self.K)], self.K)
        return [m[0][0] for m in A]

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(st.builds(F, st.integers(-9, 9), st.integers(1, 6)))
    @example(F(0))
    @example(F(2, 3))
    @example(F(-5, 2))
    def test_fock(self, mu):
        want = [mu * mu / 2] + [F(sigma1(n)) for n in range(1, self.K + 1)]
        assert self.diagonal(fock_module(H, mu)) == want

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(st.builds(F, st.integers(-30, 30), st.integers(1, 6)))
    @example(F(1, 2))
    @example(F(-22, 5))
    def test_virasoro(self, c):
        want = [F(0)] + [F(sigma1(n) - 1) for n in range(1, self.K + 1)]
        assert self.diagonal(virasoro_model(c)) == want
