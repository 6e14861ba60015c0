"""Sewing, torus characters, the two-sided identity, and the ODE witness."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from voablocks.blocks import identity_hom, propagate_block
from voablocks.models import (CapError, contragredient, fock_module,
                              heisenberg_model, virasoro_model)
from voablocks.series import BivarSeries, QExpansion
from voablocks.sewing import (SewableBlock, character_block, normalize_character,
                              sew, sewn_ode_witness, torus_character,
                              two_sided_identity_check)

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
        blk = character_block(H, 4)
        with pytest.raises(CapError):
            sew(blk, [{(): F(1)}], K=6)

    def test_negative_order_rejected(self):
        blk = character_block(H, 4)
        with pytest.raises(ValueError, match="order K = -1"):
            sew(blk, [{(): F(1)}], K=-1)

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
