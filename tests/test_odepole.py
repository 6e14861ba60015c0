"""Regular singular point ODEs: exact recursion, resonance handling,
radius certificates, and RK4 continuation."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from voablocks.odepole import (FormalSolution, NumericPath, PoleODE,
                               ResonanceError, _growth_checked, formal_solve,
                               numeric_continue, radius_estimate)
from voablocks.series import TruncSeries


def geometric_ode(order):
    """q psi' = (q/(1-q)) psi, solved by 1/(1-q) with psihat_n = 1."""
    a = TruncSeries.from_coeff_map("q", {k: F(1) for k in range(1, order)},
                                   order)
    return PoleODE([[a]])


class TestFormal:
    def test_constant_solution(self):
        ode = PoleODE([[TruncSeries.const("q", F(0), 8)]])
        sol = formal_solve(ode, {0: [F(3)]}, 6)
        assert sol.modes == [[F(3)]] + [[F(0)]] * 6

    def test_geometric_modes(self):
        sol = formal_solve(geometric_ode(12), {0: [F(1)]}, 10)
        assert sol.modes == [[F(1)]] * 11

    def test_order_at_the_window_refused(self):
        # K = order - 1 is the last mode the coefficient window determines
        assert formal_solve(geometric_ode(12), {0: [F(1)]}, 11).K == 11
        with pytest.raises(ValueError, match="order 12 beyond the coefficient window 12"):
            formal_solve(geometric_ode(12), {0: [F(1)]}, 12)

    def test_residual_to_order_40(self):
        sol = formal_solve(geometric_ode(41), {0: [F(1)]}, 40)
        for n in range(41):
            assert sol.residual(n) == [F(0)]

    def test_resonance_reported_and_seeded(self):
        # Ahat_0 = 2 makes n = 2 resonant
        ode = PoleODE([[TruncSeries.const("q", F(2), 8)]])
        with pytest.raises(ResonanceError) as ei:
            formal_solve(ode, {0: [F(0)]}, 5)
        assert ei.value.n == 2
        sol = formal_solve(ode, {0: [F(0)], 2: [F(7)]}, 5)
        assert sol.modes[2] == [F(7)]
        assert sol.modes[3] == [F(0)]

    def test_inconsistent_seed_rejected(self):
        sol = formal_solve(geometric_ode(8), {0: [F(1)]}, 6)
        with pytest.raises(ResonanceError, match="disagrees"):
            formal_solve(geometric_ode(8), {0: [F(1)], 3: [F(2)]}, 6)
        assert sol.modes[3] == [F(1)]

    def test_coeff_matrix_mutation_cannot_leak(self):
        ode = geometric_ode(8)
        before = formal_solve(ode, {0: [F(1)]}, 6).modes
        try:
            ode.coeff_matrix(1)[0][0] = F(99)
        except TypeError:
            pass
        assert ode.coeff_matrix(1)[0][0] == F(1)
        assert formal_solve(ode, {0: [F(1)]}, 6).modes == before

    def test_window_is_checked(self):
        # indices outside [0, order) fail closed, naming the window, also
        # where a negative index would read a valid slice
        ode = geometric_ode(8)
        sol = formal_solve(ode, {0: [F(1)]}, 6)
        for call in (lambda: ode.coeff_matrix(8), lambda: sol.residual(-1),
                     lambda: radius_estimate(PoleODE([[TruncSeries("q", 0, [], 0)]]), 1,
                                             majorant=(1, 1))):
            with pytest.raises(IndexError, match="outside the common window"):
                call()

    def test_invented_mode_never_appears(self):
        bad = [[F(0), F(1)], [F(0), F(0)]]
        ode = PoleODE([[TruncSeries.const("q", c, 6) for c in row]
                       for row in bad])
        with pytest.raises(ResonanceError):
            formal_solve(ode, {}, 4)


class TestRadius:
    def test_trivial_ode(self):
        # the majorant (0, 0) gives alpha = 0
        ode = PoleODE([[TruncSeries.const("q", F(0), 8)]])
        est = radius_estimate(ode, F(1), majorant=(F(0), F(0)))
        assert (est.alpha, est.M, est.beta, est.gamma, est.r0) == (0, 0, 1, 1, F(1, 2))

    def test_geometric_with_majorant(self):
        ode = geometric_ode(12)
        sol = formal_solve(ode, {0: [F(1)]}, 11)
        est = radius_estimate(ode, F(1, 2), majorant=(F(1), F(1)),
                              solution=sol)
        assert est.alpha == 2 and est.gamma == 2 and est.r0 == F(1, 8)
        assert est.growth_checked == 11

    def test_nilpotent_constants(self):
        ode = PoleODE([[TruncSeries.const("q", F(0), 6),
                        TruncSeries.const("q", F(1), 6)],
                       [TruncSeries.const("q", F(0), 6),
                        TruncSeries.const("q", F(0), 6)]])
        # ||Ahat_0|| = 1 and Ahat_n = 0 beyond: the majorant (1, 0) gives alpha = 1
        est = radius_estimate(ode, F(1), majorant=(F(1), F(0)))
        assert est.alpha == 1 and est.M == 1 and est.beta == 2

    def test_false_majorant_rejected(self):
        ode = geometric_ode(10)
        with pytest.raises(ValueError, match="majorant fails"):
            radius_estimate(ode, F(1, 2), majorant=(F(1), F(1, 2)))

    def test_growth_inequality_failure_names_n(self):
        # the modes of 1/(1-q), psihat_n = 1, against the certificate of the
        # zero system, whose majorant (0, 0) gives alpha = 0, M = 0 and
        # gamma = 1: at n = 1, r1 * 1 = 2 > 1 * 1
        sol = formal_solve(geometric_ode(8), {0: [F(1)]}, 6)
        zero = PoleODE([[TruncSeries.const("q", F(0), 8)]])
        est = radius_estimate(zero, F(2), majorant=(F(0), F(0)))
        with pytest.raises(AssertionError, match=r"fails at n = 1$"):
            _growth_checked(sol, est.r1, est.gamma, est.M)

    def test_solution_of_another_ode_refused(self):
        # the modes of 1/(1-q) pass the growth check of the certificate of
        # q psi' = (5q/(1-q)) psi, so only the mismatch itself shows; it is
        # refused before r1 or the majorant is looked at
        five = PoleODE([[TruncSeries.from_coeff_map("q", {k: F(5) for k in range(1, 12)}, 12)]])
        sol = formal_solve(geometric_ode(12), {0: [F(1)]}, 10)
        for r1, majorant in ((F(1, 2), (5, 1)), (F(-1), (0, 0))):
            with pytest.raises(ValueError, match="^solution is a formal solution of another PoleODE"):
                radius_estimate(five, r1, majorant, solution=sol)

    def test_unbounded_majorant_rejected(self):
        ode = geometric_ode(10)
        with pytest.raises(ValueError, match="no finite bound"):
            radius_estimate(ode, F(2), majorant=(F(1), F(1)))


def fraction_certificate(ode, r1, majorant, solution=None):
    """The certificate of ``radius_estimate`` by its formulas run on Fractions
    (r1^n, C g^n and the weighted prefix sum rebuilt at every n): the tuple
    (r0, r1, alpha, beta, gamma, M, growth_checked), or the type and text
    of the error it raises."""
    def norm(A):  # max column abs sum
        return max(sum(abs(row[j]) for row in A) for j in range(len(A)))

    r1 = F(r1)
    norm0 = norm(ode.coeff_matrix(0))
    M = -(-norm0.numerator // norm0.denominator)
    beta = F(M + 1)
    C, g = F(majorant[0]), F(majorant[1])
    for n in range(ode.order):
        nn = norm(ode.coeff_matrix(n))
        if nn > C * g ** n:
            return ValueError, f"majorant fails at coefficient {n}: " \
                               f"||Ahat_{n}|| = {nn} > {C * g ** n}"
    if g * r1 >= 1:
        return ValueError, "majorant gives no finite bound on |q| <= r1"
    alpha = C / (1 - g * r1)
    gamma = max(F(1), alpha * beta)
    checked = 0
    if solution is not None:
        weighted = [r1 ** n * sum(abs(x) for x in v) for n, v in enumerate(solution.modes)]
        for n in range(M + 1, len(weighted)):
            if weighted[n] > gamma / n * sum(weighted[:n]):
                return AssertionError, f"growth inequality fails at n = {n}"
            checked += 1
    return r1 / (2 * gamma), r1, alpha, beta, gamma, M, checked


def random_pole_ode(rng):
    """A 1 x 1 or 2 x 2 system whose Ahat_0 is [[0]] or [[0, e], [0, d]]
    with d not a positive integer, so n = 0 is the only resonance, and a
    seed at n = 0 that solves it."""
    def frac(lo=-6, hi=6):
        return F(rng.randint(lo, hi), rng.randint(1, 6))

    order = rng.randint(4, 14)
    if rng.random() < 0.5:
        A0, seed = [[F(0)]], [frac(1)]
    else:
        d = frac(-14, 14)
        while d > 0 and d.denominator == 1:
            d = frac(-14, 14)
        A0, seed = [[F(0), frac()], [F(0), d]], [frac(1), F(0)]
    dim = len(A0)
    entries = [[TruncSeries.from_coeff_map(
        "q", {0: A0[i][k], **{m: frac() for m in range(1, order)}}, order)
        for k in range(dim)] for i in range(dim)]
    ode = PoleODE(entries)
    return ode, formal_solve(ode, {0: seed}, rng.randint(0, order - 1))


class TestRadiusAgainstFractions:
    """radius_estimate runs the majorant check on a running power of g and
    the growth check on integers; on 80 derandomized systems its outcome
    equals the Fraction formulas', fields, count and failing n alike."""

    def outcome(self, ode, r1, majorant, solution):
        # radius_estimate refuses a solution of another system, so such
        # modes are checked against the certificate of ``ode`` directly
        own = solution.ode is ode
        try:
            est = radius_estimate(ode, r1, majorant, solution=solution if own else None)
            checked = est.growth_checked if own else \
                _growth_checked(solution, est.r1, est.gamma, est.M)
        except (ValueError, AssertionError) as e:
            return type(e), str(e)
        return (est.r0, est.r1, est.alpha, est.beta, est.gamma, est.M, checked)

    def test_random_systems(self):
        rng = random.Random(20261019)
        kinds = []
        for draw in range(80):
            ode, sol = random_pole_ode(rng)
            if draw % 2:
                C = F(rng.randint(1, 40), rng.randint(1, 4))
            else:
                # a solution's modes satisfy the growth inequality of any
                # majorant of their own system; against the zero system of
                # the same size, which every majorant bounds, a small C can
                # fail it
                ode = PoleODE([[TruncSeries.const("q", F(0), ode.order)] * ode.dim] * ode.dim)
                C = F(rng.randint(0, 4), rng.randint(1, 4))
            r1 = F(rng.randint(1, 9), rng.randint(1, 9))
            majorant = (C, F(rng.randint(0, 9), rng.randint(1, 9)))
            got = self.outcome(ode, r1, majorant, solution=sol)
            assert got == fraction_certificate(ode, r1, majorant, solution=sol), draw
            kinds.append(got[0] if got[0] in (ValueError, AssertionError) else got[-1] > 0)
        # every outcome occurs: a checked pass, a growth failure and a
        # refused majorant
        assert {True, AssertionError, ValueError} <= set(kinds)

    def test_failure_after_checked_modes(self):
        # the modes of 1/(1-q), psihat_n = 1, against the zero system, whose
        # majorant (2, 0) gives alpha = 2: M = 0, gamma = 2 and r1 = 3/2, so
        # (3/2)^n <= (2/n) sum_{j<n} (3/2)^j holds at n = 1, 2 and fails at 3
        sol = formal_solve(geometric_ode(10), {0: [F(1)]}, 9)
        zero = PoleODE([[TruncSeries.const("q", F(0), 10)]])
        got = self.outcome(zero, F(3, 2), (F(2), F(0)), solution=sol)
        assert got == (AssertionError, "growth inequality fails at n = 3")
        assert got == fraction_certificate(zero, F(3, 2), (F(2), F(0)), solution=sol)


class TestNumeric:
    def test_against_closed_form(self):
        ode = geometric_ode(41)
        # 1/(1-q): transport from 0.05 to 0.3 along the real axis
        start = [1.0 / (1.0 - 0.05)]
        val, err = numeric_continue(ode, start, [0.05, 0.3], steps=400)
        assert abs(val[0] - 1.0 / 0.7) / (1.0 / 0.7) < 1e-10
        assert err < 1e-10

    def test_against_formal_partial_sum(self):
        ode = geometric_ode(41)
        sol = formal_solve(ode, {0: [F(1)]}, 40)
        val, _ = numeric_continue(ode, [1.0 / 0.95], [0.05, 0.1], steps=200)
        # the degree-40 partial sum at q = 0.1, by Horner's rule
        partial = 0.0
        for mode in reversed(sol.modes):
            partial = partial * 0.1 + float(mode[0])
        assert abs(val[0] - partial) < 1e-8

    def test_path_through_pole_rejected(self):
        with pytest.raises(ValueError):
            NumericPath([0.1, 0.0, -0.1])

    def test_pole_proximity_guard(self):
        ode = geometric_ode(10)
        with pytest.raises(ValueError, match="pole proximity"):
            numeric_continue(ode, [1.0], [0.5, 0.001], steps=5)

    def test_deterministic(self):
        ode = geometric_ode(20)
        a = numeric_continue(ode, [1.0], [0.05, 0.2 + 0.1j], steps=100)
        b = numeric_continue(ode, [1.0], [0.05, 0.2 + 0.1j], steps=100)
        assert a == b

    def test_float_golden(self):
        # entries on different windows, one with floor 2, and a complex
        # waypoint; values captured from the per-stage Horner evaluation
        TS = TruncSeries
        ode = PoleODE([[TS.from_coeff_map("q", {0: F(1, 2), 1: F(1, 3), 2: F(-1, 5)}, 6),
                        TS.from_coeff_map("q", {2: F(1), 3: F(1, 7)}, 5)],
                       [TS.const("q", F(-1, 4), 4),
                        TS.from_coeff_map("q", {0: F(2, 3), 4: F(5, 9), 6: F(-1, 11)}, 7)]])
        val, err = numeric_continue(ode, [1.0, 0.5 - 0.25j],
                                    [0.3, 0.2 + 0.25j, -0.1 + 0.3j], steps=40)
        assert repr(val) == ("[(0.41131672924607826+0.7395457773074747j), "
                             "(0.8268214517707179+0.24077053329266432j)]")
        assert repr(err) == "5.423602670097013e-11"


def dense_ode(K):
    """A dense 3 x 3 system on the window [0, K]: Ahat_0 has rank 2 (its
    third row is the sum of the first two) and no positive integer
    eigenvalue, so n = 0 is the only resonance."""
    r1 = [F(1, 2), F(-1, 3), F(2, 5)]
    r2 = [F(1, 4), F(3, 7), F(-1, 6)]
    A0 = [r1, r2, [x + y for x, y in zip(r1, r2)]]

    def entry(i, k):
        cm = {m: F((3 * i + 5 * k + 7 * m) % 11 - 5, 1 + (i + 2 * k + m) % 6)
              for m in range(1, K + 1)}
        cm[0] = A0[i][k]
        return TruncSeries.from_coeff_map("q", cm, K + 1)

    return PoleODE([[entry(i, k) for k in range(3)] for i in range(3)])


class TestDenseGolden:
    K = 25
    SEED = [F(-146, 375), F(77, 125), F(1)]  # spans the kernel of Ahat_0

    def test_modes_golden(self):
        sol = formal_solve(dense_ode(self.K), {0: self.SEED}, self.K)
        assert repr(sol.modes[:3]) == (
            "[[Fraction(-146, 375), Fraction(77, 125), Fraction(1, 1)], "
            "[Fraction(-10699423, 483750), Fraction(35539, 12900), "
            "Fraction(-1499923, 64500)], "
            "[Fraction(13126354637, 1742951250), Fraction(-22168163493, 258215000), "
            "Fraction(1336138489, 38732250)]]")
        # the exact repr of all 26 modes (13,653 characters)
        digest = hashlib.sha256(repr(sol.modes).encode()).hexdigest()
        assert digest == "3fc51800045f510c0127335a4c4ca8c6dde24591f24b3b1b89215378e1ade699"

    @pytest.mark.parametrize("n, k", [(0, 2), (7, 0), (25, 1)])
    def test_corrupted_mode_fails_the_residual(self, n, k):
        ode = dense_ode(self.K)
        modes = formal_solve(ode, {0: self.SEED}, self.K).modes
        modes[n][k] += F(1, 10 ** 9)
        with pytest.raises(AssertionError, match="recursion residual nonzero"):
            FormalSolution(ode, modes)

    def test_inexact_entries_rejected(self):
        with pytest.raises(ValueError, match="an int or a Fraction, not 0.5"):
            PoleODE([[TruncSeries("q", 0, [0.5, F(1)])]])

    def test_scalar_entry_rejected(self):
        with pytest.raises(ValueError, match="a q-series, not Fraction\\(2, 1\\)"):
            PoleODE([[F(2)]])

    def test_mode_of_wrong_length_rejected(self):
        ode = dense_ode(self.K)
        modes = formal_solve(ode, {0: self.SEED}, 3).modes
        with pytest.raises(ValueError, match="length 3"):
            FormalSolution(ode, modes + [[F(0), F(0)]])
