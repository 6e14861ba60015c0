"""Coordinate changes: extraction closed forms, the group law, Huang
conjugation, and the gamma relation."""

import hashlib
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from voablocks.coordchange import (CoordChange, U_apply, extract_coeffs,
                                   gamma_relation_check, gamma_series,
                                   huang_conjugation_check, poly_compose)
from voablocks.graded import vec_add_into, vec_is_zero, weight_of
from voablocks.models import (FockModule, contragredient, fock_module, heisenberg_model,
                               virasoro_model)
from voablocks.series import TruncSeries, series_comp_inverse
from voablocks.virasoro import apply_exp_raising

H = heisenberg_model()
VIR = virasoro_model(F(1, 2))

RNG = random.Random(61803)


def rand_frac(rng, nonzero=False):
    n = rng.randint(1, 5) if nonzero else rng.randint(-5, 5)
    return F(n * rng.choice((1, -1)) if nonzero else n, rng.randint(1, 4))


def rand_coord(rng, degree=4):
    poly = {1: rand_frac(rng, nonzero=True)}
    for k in range(2, degree + 1):
        c = rand_frac(rng)
        if c:
            poly[k] = c
    return CoordChange(poly)


class TestExtract:
    def test_closed_forms_generic(self):
        rng = random.Random(165)
        for _ in range(25):
            a1 = rand_frac(rng, nonzero=True)
            a2, a3 = rand_frac(rng), rand_frac(rng)
            rho = CoordChange({1: a1, 2: a2, 3: a3})
            c = rho.coeffs(2)
            assert c[0] == a1
            assert c[1] == a2 / a1
            assert c[2] == a3 / a1 - (a2 / a1) ** 2

    def test_series_entry_point(self):
        rho = CoordChange({1: F(1), 2: F(1), 3: F(1)})
        cs = extract_coeffs(rho.series(8), 2)
        assert cs == [F(1), F(1), F(0)]

    def test_negative_count_rejected(self):
        rho = CoordChange({1: F(1), 2: F(1)}).series(6)
        with pytest.raises(ValueError, match="-3"):
            extract_coeffs(rho, -3)

    def test_int_coefficients_give_fractions(self):
        # rho = 2z + z^2 + 3z^3: c0 = 2, c1 = (1/2) rho''(0)/rho'(0) = 1/2 and
        # c2 = (1/6) rho'''(0)/rho'(0) - (1/4)(rho''(0)/rho'(0))^2 = 3/2 - 1/4
        cs = extract_coeffs(TruncSeries("z", 0, [0, 2, 1, 3]), 2)
        assert cs == [F(2), F(1, 2), F(5, 4)]
        assert [type(c) for c in cs] == [F, F, F]

    def test_pole_at_zero_refused(self):
        with pytest.raises(ValueError, match=r"pole at 0: its z\^-1 coefficient is nonzero"):
            CoordChange({-1: 1, 1: 2, 2: 1})
        with pytest.raises(ValueError, match=r"pole at 0: its z\^-1 coefficient is nonzero"):
            extract_coeffs(TruncSeries("z", -1, [1, 0, 1, 1]), 1)

    @pytest.mark.parametrize("poly", [{1: 0.1}, {1: True}, {1: "1/3"}, {1: 1, 2: 0.5}],
                             ids=["float", "bool", "str", "float-above-z"])
    def test_non_rational_coefficient_refused(self, poly):
        # CoordChange is the one gate: a float is not read as a binary fraction
        bad = poly[max(poly)]
        with pytest.raises(ValueError, match=rf"int or a Fraction, not {re.escape(repr(bad))}$"):
            CoordChange(poly)

    def test_int_coefficients_read_as_fractions(self):
        rho = CoordChange({1: 2, 3: -1})
        assert rho.poly == {1: 2, 3: -1}
        assert [type(c) for c in rho.poly.values()] == [F, F]
        assert [type(c) for c in rho.coeffs(3)] == [F] * 4

    def test_zero_terms_below_z_allowed(self):
        assert CoordChange({-2: 0, 0: F(0), 1: 2}).coeffs(1) == [F(2), F(0)]
        assert extract_coeffs(TruncSeries("z", -2, [0, F(0), 0, 3, 1]), 1) == [F(3), F(1, 3)]

    def test_zero_derivative_refused(self):
        with pytest.raises(ValueError, match=r"rho'\(0\) = 0: not a coordinate change"):
            extract_coeffs(TruncSeries.from_coeff_map("z", {2: 1}, 5), 2)

    def test_window_too_small_refused(self):
        with pytest.raises(ValueError, match="series window too small to see rho'"):
            extract_coeffs(TruncSeries("z", 0, [0]), 0)

    def test_negative_coeff_count_refused(self):
        with pytest.raises(ValueError, match="coefficient count must be >= 0, got -1$"):
            CoordChange({1: F(1), 2: F(1)}).coeffs(-1)

    def test_short_order_names_the_order_needed(self):
        rho = CoordChange({1: F(2), 2: F(-1, 3), 4: F(1)}).series(8)
        assert len(extract_coeffs(rho, 6)) == 7  # count + 2 = order: the largest count
        with pytest.raises(ValueError, match=r"7 coefficients need order >= 9$"):
            extract_coeffs(rho, 7)


@settings(max_examples=30, derandomize=True)
@given(st.lists(st.builds(F, st.integers(-5, 5), st.integers(1, 4)), min_size=3, max_size=3),
       st.builds(F, st.integers(1, 5), st.integers(1, 4)), st.permutations(range(9)))
def test_coeffs_prefix_any_request_order(rest, a1, counts):
    # one prefix serves every count, asked for in any order; each answer is a
    # fresh list, so mutating it leaves later answers alone
    rho = CoordChange({1: a1, 2: rest[0], 3: rest[1], 4: rest[2]})
    for n in counts:
        got = rho.coeffs(n)
        assert got == extract_coeffs(rho.series(n + 2), n), n
        got[:] = [F(99)] * len(got)
    for n in counts:
        assert rho.coeffs(n) == extract_coeffs(rho.series(n + 2), n), n


def evaluate(poly, x):
    return sum((c * x ** k for k, c in poly.items()), F(0))


@settings(max_examples=40, derandomize=True)
@given(st.dictionaries(st.integers(0, 5), st.builds(F, st.integers(-6, 6), st.integers(1, 4))),
       st.dictionaries(st.integers(1, 5), st.builds(F, st.integers(-6, 6), st.integers(1, 4))),
       st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 5)), min_size=3, max_size=3))
def test_poly_compose_against_evaluation(p1, p2, xs):
    # p1(p2(x)) at rational points: the oracle evaluates and convolves nothing;
    # the result has degree <= d1 d2, so agreeing at the d1 d2 + 1 points
    # 0..d1 d2 as well makes it p1 o p2 exactly
    comp = poly_compose(p1, p2)
    assert all(type(c) is F and c for c in comp.values())
    for x in xs:
        assert evaluate(comp, x) == evaluate(p1, evaluate(p2, x)), x
    degree = max((k for k, c in p1.items() if c), default=0) * \
        max((k for k, c in p2.items() if c), default=0)
    assert max(comp, default=0) <= degree
    for x in range(degree + 1):
        assert evaluate(comp, F(x)) == evaluate(p1, evaluate(p2, F(x))), x


@pytest.mark.parametrize("p1, p2", [({-1: 1}, {1: 2}), ({1: 1}, {0: 1, 1: 1}),
                                    ({2: 1}, {-1: 1, 1: 1})])
def test_poly_compose_refuses_out_of_domain(p1, p2):
    # a pole in p1, p2(0) != 0 and a pole in p2, each refused by its own rule
    if min(p1) < 0:
        match = "composition needs f with floor >= 0"
    elif min(p2) < 0:
        match = r"composition needs g without a pole at 0: its z\^-1 coefficient is nonzero"
    else:
        match = r"composition needs g\(0\) = 0"
    with pytest.raises(ValueError, match=match):
        poly_compose(p1, p2)


def test_poly_compose_zero_terms_below_z0_allowed():
    # zero entries at negative exponents set no degree: p2 = 0 leaves p1(0)
    assert poly_compose({0: 3, 5: 1}, {-1: 0}) == {0: F(3)}
    assert poly_compose({-1: 0}, {3: 1}) == {}


def flow_series(c0, a, m, order):
    """c0 z (1 - m a z^m)^{-1/m}, the time-1 flow of a z^{m+1} d/dz scaled
    by c0, expanded by the binomial series (1 - x)^{-1/m} with x = m a z^m:
    the z^{mk+1} coefficient is c0 (1/m)(1/m + 1)...(1/m + k - 1) (m a)^k / k!."""
    cmap = {}
    term = F(c0)
    k = 0
    while m * k + 1 < order:
        cmap[m * k + 1] = term
        term = term * (F(1, m) + k) * m * a / (k + 1)
        k += 1
    return TruncSeries.from_coeff_map("z", cmap, order)


@settings(max_examples=40, derandomize=True)
@given(st.builds(F, st.integers(1, 9).map(lambda n: n * (-1) ** n), st.integers(1, 5)),
       st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
       st.integers(1, 3), st.integers(0, 9))
def test_extract_flow_closed_form(c0, a, m, count):
    # rho = c0 exp(a z^{m+1} d/dz) z, so c_m = a and every other c_n = 0
    cs = extract_coeffs(flow_series(c0, a, m, count + 2), count)
    assert cs == [c0] + [a if n == m else F(0) for n in range(1, count + 1)]


def exp_flow(cs, order):
    """c0 sum_k V^k z / k! below z^order with V = sum_{m>=1} c_m z^{m+1} d/dz,
    as a list indexed by exponent: V sends x z^e to sum_m c_m e x z^{e+m}."""
    term = [F(0)] * order
    term[1] = F(1)
    total = list(term)
    k = 0
    while any(term):
        k += 1
        nxt = [F(0)] * order
        for e, x in enumerate(term):
            for m, c in enumerate(cs[1:order - e], 1):
                if x and c:
                    nxt[e + m] += c * e * x
        term = [x / k for x in nxt]
        total = [a + b for a, b in zip(total, term)]
    return [cs[0] * a for a in total]


coeff_or_gap = st.one_of(st.just(F(0)), st.builds(F, st.integers(-7, 7), st.integers(1, 6)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.builds(F, st.integers(-9, 9), st.integers(1, 5)).filter(
           lambda c: c < 0 or c.denominator > 1),
       st.integers(0, 20).flatmap(lambda n: st.lists(coeff_or_gap, min_size=n, max_size=n)))
@example(F(-3, 2), [F(k % 5 - 2, k % 4 + 1) for k in range(1, 21)])
@example(F(2, 7), [F(0)] * 6 + [F(-5, 3)] + [F(0)] * 12 + [F(1, 6)])
def test_extract_round_trip(c0, rest):
    # rho rebuilt from drawn c_n by the exponential series itself, not by the
    # recursion; c0 negative or non-integer, zeros leave gaps
    n = len(rest)
    rho = TruncSeries("z", 0, exp_flow([c0] + rest, n + 2))
    cs = extract_coeffs(rho, n)
    assert cs == [c0] + rest
    assert all(type(c) is F for c in cs)


def compose(p1, p2):
    """r1(r2(z)) for polynomial maps: sum_k a_k r2^k, each power of r2 by a
    dict convolution with r2."""
    out, power = {}, {0: F(1)}
    for k in range(1, max(p1) + 1):
        nxt = {}
        for e1, c1 in power.items():
            for e2, c2 in p2.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, F(0)) + c1 * c2
        power = nxt
        for e, c in power.items():
            out[e] = out.get(e, F(0)) + p1.get(k, F(0)) * c
    return out


rationals = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
coords = st.builds(
    lambda a1, a2, a3: {1: a1, 2: a2, 3: a3},
    rationals.filter(bool), rationals, rationals)
MODELS = {"heisenberg": lambda x: H, "fock": lambda mu: fock_module(H, mu),
          "virasoro": virasoro_model}


@pytest.mark.parametrize("kind", ["heisenberg", "fock", "virasoro"])
@settings(max_examples=25, derandomize=True, deadline=None)
@given(param=rationals, r1=coords, r2=coords, pick=st.integers(0, 10 ** 6))
def test_group_law(kind, param, r1, r2, pick):
    # U(r1 o r2) = U(r1) U(r2), on a Fock module at a drawn mu and on
    # Virasoro at a drawn c; the composition is the test's own
    module = MODELS[kind](param)
    labels = [l for wt in range(6) for l in module.basis_at(wt)]
    w = {labels[pick % len(labels)]: F(1)}
    lhs = U_apply(CoordChange(compose(r1, r2)), w, module)
    rhs = U_apply(CoordChange(r1), U_apply(CoordChange(r2), w, module), module)
    assert vec_is_zero(vec_add_into(dict(lhs), rhs, F(-1))), (r1, r2, w)


# sha256 of ``U_golden_text()``, captured before U(rho) was summed on
# integer numerators: same entries, key order and value types
U_GOLDEN = "697aa906d2680e0c4e1a530b0924a391d40ef3671c376152598d96f39ef4837f"


def U_golden_text():
    """One line per U_apply call: module, rho, the input vector, then the
    output as (label, value type, value) in key order.  The rho have degree
    <= 4 and the vectors mix labels of weight 2-6; entries after the first
    may be zero."""
    rng = random.Random(1729)
    H0 = heisenberg_model()
    modules = [H0, fock_module(H0, F(1, 2)), virasoro_model(F(-22, 5)), contragredient(H0)]
    lines = []
    for M in modules:
        labels = [l for wt in range(2, 7) for l in M.basis_at(wt)]
        for _ in range(16):
            rho = rand_coord(rng, degree=rng.randint(1, 4))
            w = {rng.choice(labels): rand_frac(rng, nonzero=True)}
            for _ in range(rng.randint(0, 3)):
                w[rng.choice(labels)] = rand_frac(rng)
            out = U_apply(rho, w, M)
            lines.append(repr((M.name, rho.poly, w,
                               [(k, type(c).__name__, c) for k, c in out.items()])))
    return "\n".join(lines)


def test_U_apply_golden():
    assert hashlib.sha256(U_golden_text().encode()).hexdigest() == U_GOLDEN


# sha256 of ``extract_golden_text()``, captured while the c_n were still
# summed in Fractions: same values and value types
EXTRACT_GOLDEN = "a29fbff84cb44a4dbd19bf9612d8742db6f41b0e76454489fcc6d98e0a565368"

# rho = a1 z + (the terms below): sparse with gaps and an int entry, dense
# with mixed signs and denominators
EXTRACT_RHOS = {
    "sparse": {3: F(1, 3), 7: -2, 12: F(5, 4)},
    "dense": {k: F((-1) ** k * (k - 1), k + 1) for k in range(2, 10)},
}


def extract_golden_text():
    """One line per extract_coeffs call: rho'(0), the rho, the count, then
    the output as (value type, value), at counts 0-20."""
    lines = []
    for a1 in (F(-3, 2), F(2, 7), 5):
        for name, rest in EXTRACT_RHOS.items():
            rho = TruncSeries.from_coeff_map("z", {1: a1, **rest}, 22)
            for count in range(21):
                cs = extract_coeffs(rho, count)
                lines.append(repr((a1, name, count, [(type(c).__name__, c) for c in cs])))
    return "\n".join(lines)


def test_extract_golden():
    assert hashlib.sha256(extract_golden_text().encode()).hexdigest() == EXTRACT_GOLDEN


def test_U_apply_on_an_int_series():
    # a CoordChange given int coefficients acts as the same polynomial's
    # Fraction one, on int vectors too, and its outputs are Fractions
    rho = CoordChange({1: 2, 2: 1, 3: 3})
    for label in ((), (1,), (2,), (1, 1)):
        out = U_apply(rho, {label: 1}, H)
        assert out == U_apply(CoordChange({1: F(2), 2: F(1), 3: F(3)}), {label: F(1)}, H)
        assert all(type(c) is F for c in out.values()), out


@pytest.mark.parametrize("coeffs, c0, w, shown", [
    ([F(1)], F(2), {(2,): 0.5}, "0.5"),
    ([TruncSeries("z", 0, [F(1), F(1)])], F(2), {(2,): F(1)}, "1*z^0 + 1*z^1"),
    ([F(1)], 2.0, {(2,): F(1)}, "2.0"),
], ids=["float-in-w", "series-c1", "float-c0"])
def test_exp_raising_refuses_non_rationals(coeffs, c0, w, shown):
    with pytest.raises(ValueError, match="rational") as err:
        apply_exp_raising(coeffs, c0, w, H)
    assert shown in str(err.value)


def test_exp_raising_refuses_c0_zero():
    with pytest.raises(ValueError, match=r"^c0 = 0 is not a coordinate change$"):
        apply_exp_raising([F(1)], F(0), {(2,): F(1)}, H)


GROUP_MODULES = (H, fock_module(H, F(2, 3)), virasoro_model(F(-22, 5)), contragredient(H),
                 contragredient(virasoro_model(F(-22, 5))))


def test_U_inverse_roundtrip():
    # U(rho^{-1}) U(rho) w = w on H, F_{2/3}, Vir_{-22/5}, H' and Vir', with
    # rho^{-1} the compositional inverse of rho below z^{W+2}: all that U
    # reads at top weight W
    rng = random.Random(99)
    for M in GROUP_MODULES:
        labels = [l for wt in range(5) for l in M.basis_at(wt)]
        for _ in range(10):
            rho = rand_coord(rng)
            w = {rng.choice(labels): F(1)}
            g = series_comp_inverse(rho.series(weight_of(next(iter(w))) + 2))
            inverse = CoordChange(dict(enumerate(g.coeffs, g.floor)))
            back = U_apply(inverse, U_apply(rho, w, M), M)
            assert vec_is_zero(vec_add_into(dict(back), w, F(-1))), (M.name, rho.poly, w)


def test_series_window_does_not_grow_with_the_degree():
    # rho is read below the order asked for: a degree-4000 rho gives a
    # series on the caller's window, and its term beyond that window
    # changes no U(rho) of a vector of lower weight
    rho, low = CoordChange({1: F(2), 3: F(1, 3), 4000: F(1)}), CoordChange({1: F(2), 3: F(1, 3)})
    assert rho.series(12) == low.series(12)
    w = {(2, 1): F(1), (1, 1, 1): F(-1, 2)}
    assert U_apply(rho, w, H) == U_apply(low, w, H)


def test_scaling_is_graded_dilation():
    # rho(z) = a z acts as a^{Ltilde0}
    for a in (F(2), F(-1, 3), F(5, 7)):
        rho = CoordChange({1: a})
        for wt in range(5):
            for label in H.basis_at(wt):
                out = U_apply(rho, {label: F(1)}, H)
                assert out == {label: a ** wt}


class DoubledL1(FockModule):
    """F_mu with every L_1 image doubled: U(a) goes wrong."""

    def _L(self, n, label):
        img = super()._L(n, label)
        return {l: 2 * c for l, c in img.items()} if n == 1 else img


class DoubledAlpha2(FockModule):
    """F_mu with every alpha_2 image doubled: the modes Y(v)_n go wrong, and
    so does the Sugawara L_n built from them."""

    def gen_apply(self, k, label):
        img = super().gen_apply(k, label)
        return {l: 2 * c for l, c in img.items()} if k == 2 else img


class TestHuang:
    def test_randomized_instances(self):
        rng = random.Random(52)
        labels = [l for wt in range(4) for l in H.basis_at(wt)]
        for _ in range(12):
            alpha = rand_coord(rng, degree=3)
            w = {rng.choice(labels): F(1)}
            rep = huang_conjugation_check(alpha, (1,), w, H, 5)
            assert rep, (alpha.poly, w)

    def test_alpha_above_the_z_window(self):
        # a(z) = z + 3z^8 at K = 0: the z-window A is 3 or 4, so every term of
        # rho_z's t-coefficients from z^8 lies beyond it; the left side is the oracle
        alpha = CoordChange({1: F(1), 8: F(3)})
        for v, wl in (((2,), ()), ((2,), (1,)), ({(2,): F(1), (3,): F(1)}, ())):
            rep = huang_conjugation_check(alpha, v, {wl: F(1)}, H, 0)
            assert rep and rep.window[1] == 0, (v, wl)

    def test_virasoro_instance(self):
        alpha = CoordChange({1: F(1), 2: F(1, 2)})
        rep = huang_conjugation_check(alpha, (2,), {(2,): F(1)}, VIR, 4)
        assert rep
        # on Vir_{-22/5} at K = 1 a label's z-series on one side can sum to
        # zero while the other side has no such label: both sides compare
        # after their zero series are dropped
        vir = virasoro_model(F(-22, 5))
        for poly, v, w in (({1: F(2), 3: F(1)}, {(3,): F(1)}, {(3,): F(2)}),
                           ({1: F(1, 2), 3: F(1)}, {(3,): F(-1)}, {(): F(2)})):
            assert huang_conjugation_check(CoordChange(poly), v, w, vir, 1), (poly, v, w)

    @pytest.mark.parametrize("broken", [DoubledL1, DoubledAlpha2], ids=lambda c: c.__name__)
    def test_fails_on_a_broken_module(self, broken):
        alpha = CoordChange({1: F(1), 2: F(1, 2)})
        good, bad = FockModule(H, F(2, 3)), broken(H, F(2, 3))
        for label in good.basis_at(1) + good.basis_at(2):
            assert huang_conjugation_check(alpha, (1,), {label: F(1)}, good, 4)
            assert not huang_conjugation_check(alpha, (1,), {label: F(1)}, bad, 4)


HUANG_MODULES = (H, fock_module(H, F(2, 3)), fock_module(H, F(-3, 2)), VIR,
                 virasoro_model(F(-22, 5)))
scalars = st.sampled_from([F(1), F(-1), F(2), F(1, 3), F(-5, 2)])


@st.composite
def huang_cases(draw):
    """A module, v with one or two labels of weight 2-3 in its VOA, w with one
    or two labels of weight 0-4, a window K and a coordinate change."""
    M = draw(st.sampled_from(HUANG_MODULES))
    v_labels = [l for wt in (2, 3) for l in M.voa.basis_at(wt)]
    w_labels = [l for wt in range(5) for l in M.basis_at(wt)]
    v = draw(st.dictionaries(st.sampled_from(v_labels), scalars, min_size=1, max_size=2))
    w = draw(st.dictionaries(st.sampled_from(w_labels), scalars, min_size=1, max_size=2))
    return M, v, w, draw(st.integers(0, 7)), CoordChange(draw(coords))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(huang_cases())
def test_huang_on_non_generator_insertions(case):
    # the law holds for every insertion, and the derived z-window never
    # trips the check's own window guard (a ValueError)
    M, v, w, K, alpha = case
    rep = huang_conjugation_check(alpha, v, w, M, K)
    wt = max(map(weight_of, v)) + max(map(weight_of, w))
    assert rep and rep.window == (-wt, K), (M.name, v, w, K, alpha.poly)


def test_gamma_series_expansion():
    # gamma_xi(z) = 1/(xi+z) - 1/xi = -z/xi^2 + z^2/xi^3 - ...
    g = gamma_series(F(2), 5)
    assert g.poly == {1: F(-1, 4), 2: F(1, 8), 3: F(-1, 16), 4: F(1, 32)}


def test_gamma_relation():
    # on H, F_{2/3}, Vir_{-22/5}, H' and Vir', every label of weight <= 4,
    # and the zero vector
    for M in GROUP_MODULES:
        for xi in (F(1), F(3), F(-1, 2)):
            assert gamma_relation_check(xi, {}, M)
            for label in [l for wt in range(5) for l in M.basis_at(wt)]:
                assert gamma_relation_check(xi, {label: F(1)}, M), (M.name, xi, label)
