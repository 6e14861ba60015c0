"""Truncated-series arithmetic: ring laws, composition, inversion."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from voablocks.models import heisenberg_model
from voablocks.series import (BivarSeries, QExpansion, TruncSeries,
                              series_comp_inverse, series_compose, series_mul)
from voablocks.virasoro import apply_exp_raising

rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 6))


def poly(var, cmap, order):
    return TruncSeries.from_coeff_map(var, dict(cmap), order)


class TestWindow:
    def test_coeff_below_floor_is_zero(self):
        s = poly("z", {2: F(1)}, 5)
        assert s.coeff(-3) == 0 and s.coeff(1) == 0

    def test_coeff_at_order_raises(self):
        s = poly("z", {2: F(1)}, 5)
        with pytest.raises(IndexError):
            s.coeff(5)

    def test_from_coeff_map_floor(self):
        s = TruncSeries.from_coeff_map("z", {-2: F(1), 1: F(3)}, 4)
        assert s.floor == -2 and s.order == 4
        assert s.coeff(-2) == 1 and s.coeff(1) == 3 and s.coeff(0) == 0

    def test_from_coeff_map_truncates_at_the_order(self):
        # entries at or above the order are unknown there, as after truncate
        full = TruncSeries.from_coeff_map("z", {1: F(2), 5: F(1)}, 8)
        assert TruncSeries.from_coeff_map("z", {1: F(2), 5: F(1)}, 3) == full.truncate(3)
        beyond = TruncSeries.from_coeff_map("z", {5: F(1), 6: F(2)}, 3)
        assert (beyond.floor, beyond.order, beyond.coeffs) == (3, 3, ())

    def test_truncate_and_shift(self):
        s = poly("z", {0: F(1), 1: F(2), 2: F(3)}, 4)
        assert s.truncate(2).order == 2
        assert s.shift(3).coeff(4) == 2


@settings(max_examples=60, derandomize=True)
@given(st.lists(rationals, min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
def test_mul_is_associative_and_commutative(a, b, c):
    order = 6
    sa = TruncSeries("z", 0, [F(x) for x in a] + [F(0)] * (order - len(a)), order)
    sb = TruncSeries("z", 0, [F(x) for x in b] + [F(0)] * (order - len(b)), order)
    sc = TruncSeries("z", 0, [F(x) for x in c] + [F(0)] * (order - len(c)), order)
    assert series_mul(sa, sb) == series_mul(sb, sa)
    lhs = series_mul(series_mul(sa, sb), sc)
    rhs = series_mul(sa, series_mul(sb, sc))
    w = min(lhs.order, rhs.order)
    assert lhs.truncate(w) == rhs.truncate(w)


@settings(max_examples=60, derandomize=True)
@given(st.lists(rationals, min_size=1, max_size=4))
def test_reciprocal_inverts(a):
    order = 7
    coeffs = [F(1)] + [F(x) for x in a] + [F(0)] * (order - len(a) - 1)
    s = TruncSeries("z", 0, coeffs, order)
    prod = series_mul(s, s.reciprocal())
    assert prod.coeff(0) == 1
    assert all(prod.coeff(n) == 0 for n in range(1, prod.order))


# coefficients as the kernels meet them: Fractions, plain ints and zeros
scalars = st.one_of(rationals, st.integers(-9, 9), st.just(F(0)), st.just(0))


@st.composite
def windows(draw, max_size=9):
    """A rational series on a drawn window [floor, floor + len)."""
    floor = draw(st.integers(-4, 4))
    return TruncSeries("z", floor, draw(st.lists(scalars, max_size=max_size)))


def dict_mul(a, b):
    """Oracle product: the certified window is every n whose splits
    n = p + q (p >= a.floor, q >= b.floor) all lie inside both windows."""
    def certified(n):
        return all(p < a.order and n - p < b.order
                   for p in range(a.floor, n - b.floor + 1))

    floor = order = a.floor + b.floor
    while certified(order):
        order += 1
    cmap = {}
    for p in range(a.floor, a.order):
        for q in range(b.floor, b.order):
            if p + q < order:
                cmap[p + q] = cmap.get(p + q, 0) + F(a.coeff(p)) * F(b.coeff(q))
    return floor, order, [cmap.get(n, F(0)) for n in range(floor, order)]


@settings(max_examples=300, derandomize=True)
@given(windows(), windows())
def test_mul_matches_dict_convolution(a, b):
    got = series_mul(a, b)
    floor, order, coeffs = dict_mul(a, b)
    assert got.order == order
    if order > floor:
        assert got.floor == floor
    assert list(got.coeffs) == coeffs
    assert all(type(c) is F for c in got.coeffs)


@settings(max_examples=200, derandomize=True)
@given(st.integers(-4, 4), rationals.filter(bool) | st.sampled_from([1, -3]),
       st.lists(scalars, max_size=9))
def test_reciprocal_matches_recursion(v, lead, rest):
    f = TruncSeries("z", v, [lead] + rest)
    r = f.reciprocal()
    rel = len(rest) + 1
    assert (r.floor, r.order) == (-v, -v + rel)
    # f * (1/f) == 1 on the whole certified window [0, rel)
    prod = series_mul(f, r)
    assert (prod.order, [prod.coeff(n) for n in range(rel)]) == (rel, [1] + [0] * (rel - 1))
    # b_0 = 1/a_0, b_n = -(1/a_0) sum_{j=1..n} a_j b_{n-j}
    a = [F(lead)] + [F(x) for x in rest]
    b = [1 / a[0]]
    for n in range(1, rel):
        b.append(-sum(a[j] * b[n - j] for j in range(1, n + 1)) / a[0])
    assert list(r.coeffs) == b
    assert all(type(c) is F for c in r.coeffs)


def test_deriv_product_rule():
    f = poly("z", {0: F(2), 1: F(1), 3: F(5)}, 6)
    g = poly("z", {1: F(3), 2: F(-1)}, 6)
    lhs = series_mul(f, g).deriv()
    rhs = series_mul(f.deriv(), g) + series_mul(f, g.deriv())
    w = min(lhs.order, rhs.order)
    assert lhs.truncate(w) == rhs.truncate(w)


def test_compose_inverse_roundtrip():
    f = poly("z", {1: F(2), 2: F(1), 3: F(-1, 3)}, 8)
    g = series_comp_inverse(f)
    comp = series_compose(f, g)
    assert comp.coeff(1) == 1
    assert all(comp.coeff(n) == 0 for n in range(2, comp.order))


@settings(max_examples=60, derandomize=True)
@given(rationals.filter(bool), st.lists(rationals, max_size=8), st.integers(2, 10))
def test_comp_inverse_inverts_on_both_sides(a1, rest, order):
    # checked through series_compose, which shares only the stored integer form with the inversion
    cmap = {1: a1, **{k: c for k, c in enumerate(rest, start=2) if k < order}}
    f = poly("z", cmap, order)
    g = series_comp_inverse(f)
    assert (g.floor, g.order) == (1, order)
    for comp in (series_compose(f, g), series_compose(g, f)):
        assert comp.order == order
        assert [comp.coeff(n) for n in range(order)] == [0, 1] + [0] * (order - 2)


def compose_oracle(f, g):
    """(floor, order, coeffs) of f(g) from the definition, in plain
    Fractions: sum_k f_k g^k with g^k by dict convolution of g's known
    coefficients, on the window series_compose documents (order
    min(f.order, g.order + k0 - 1), floor the lowest exponent of a summed
    term), for a zero window g as well; an order 0 window is O(z^0)."""
    fc = {n: F(f.coeff(n)) for n in range(f.floor, f.order) if f.coeff(n)}
    gc = {n: F(g.coeff(n)) for n in range(g.floor, g.order) if g.coeff(n)}
    a = min(gc, default=g.order)
    order = min(f.order, g.order + max(min(fc, default=f.order), 1) - 1)
    if order <= 0:
        return 0, 0, []
    out, floor = {}, order
    power = {0: F(1)}
    for k in range(max(fc, default=-1) + 1):
        if k * a >= order:
            break
        if k in fc:
            floor = min(floor, k * a)
            for e, c in power.items():
                out[e] = out.get(e, F(0)) + fc[k] * c
        nxt = {}
        for e1, c1 in power.items():
            for e2, c2 in gc.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, F(0)) + c1 * c2
        power = nxt
    return floor, order, [out.get(n, F(0)) for n in range(floor, order)]


@settings(max_examples=150, derandomize=True)
@given(st.integers(0, 3), st.lists(scalars, max_size=7),
       st.integers(1, 3), st.lists(scalars, max_size=7))
def test_compose_matches_definition(ffloor, fcs, gfloor, gcs):
    # f may be an order-0 window or all zeros; g has g(0) = 0 by its floor
    f, g = TruncSeries("z", ffloor, fcs), TruncSeries("z", gfloor, gcs)
    want = compose_oracle(f, g)
    got = series_compose(f, g)
    assert (got.floor, got.order, list(got.coeffs)) == want
    assert all(type(c) is F for c in got.coeffs)


def test_compose_on_zero_windows():
    # a zero window g = O(z^m) certifies f(g) only up to the documented
    # order, and an order 0 window is O(z^0), not a claim that f(g)(0) = 0
    f = poly("z", {0: F(5), 1: F(3)}, 10)
    cases = [(f, TruncSeries.zero("z", 2), (0, 2, [F(5), F(0)])),
             (TruncSeries.zero("z", 0), TruncSeries.zero("z", 3), (0, 0, [])),
             (TruncSeries.zero("z", 0), poly("z", {1: F(1)}, 2), (0, 0, []))]
    for f, g, want in cases:
        got = series_compose(f, g)
        assert (got.floor, got.order, list(got.coeffs)) == want, (f, g)
    with pytest.raises(ValueError, match="g\\(0\\) = 0"):
        series_compose(f, TruncSeries.zero("z", 0))


# Oracles on dicts of Fractions, read through each input's Fraction view:
# they never touch the integer form the kernels run on.


def as_dict(s):
    return s.floor, s.order, {n: F(c) for n, c in enumerate(s.coeffs, s.floor)}


def oracle_add(a, b, sign):
    fa, oa, ca = as_dict(a)
    fb, ob, cb = as_dict(b)
    order = min(oa, ob)
    floor = min(fa, fb, order)
    return floor, order, [ca.get(n, F(0)) + sign * cb.get(n, F(0)) for n in range(floor, order)]


def oracle_scale(a, s):
    floor, order, c = as_dict(a)
    return floor, order, [c[n] * s for n in range(floor, order)]


def oracle_deriv(a):
    # the constant term dies; every other x^n becomes n x^(n-1)
    floor, order, c = as_dict(a)
    d = {n - 1: c[n] * n for n in range(floor, order) if n != 0}
    dfloor = min(d, default=order - 1)
    return dfloor, order - 1, [d.get(n, F(0)) for n in range(dfloor, order - 1)]


def oracle_reciprocal(a):
    # a = x^v (a_v + ...): b_0 = 1/a_v, b_n = -(1/a_v) sum_{j=1..n} a_{v+j} b_{n-j}
    _, order, c = as_dict(a)
    v = min(n for n in c if c[n])
    b = [1 / c[v]]
    for n in range(1, order - v):
        b.append(-sum(c[v + j] * b[n - j] for j in range(1, n + 1)) / c[v])
    return -v, order - 2 * v, b


def assert_stored_form(s):
    """Lowest terms over a positive denominator, and an exact view that
    agrees with the stored numerators."""
    nums, den = s._ints()
    assert den > 0 and gcd(den, *nums) == 1
    assert all(isinstance(c, (int, F)) for c in s.coeffs)
    assert [F(n, den) for n in nums] == list(s.coeffs)


mixed = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 6, 7, 12, 64]))


@st.composite
def mixed_windows(draw):
    """A series on a drawn window with a floor down to -4 and coefficients
    over mixed denominators, ints and zeros among them."""
    floor = draw(st.integers(-4, 3))
    return TruncSeries("z", floor, draw(st.lists(mixed | scalars, max_size=8)))


@settings(max_examples=300, derandomize=True)
@given(mixed_windows(), mixed_windows(), mixed | st.sampled_from([0, -1, 2]))
def test_kernels_match_fraction_oracles(a, b, s):
    # a series built from rationals keeps its tuple as the view and makes
    # its integer form only when a kernel first needs it
    views = a.coeffs, b.coeffs
    assert a._nums is None and b._nums is None
    prod = series_mul(a, b)
    half = prod.floor + (prod.order - prod.floor) // 2
    cases = [(a + b, oracle_add(a, b, 1)), (a - b, oracle_add(a, b, -1)),
             (a.scale(s), oracle_scale(a, s)), (a.deriv(), oracle_deriv(a)),
             (prod, dict_mul(a, b)),
             (prod.truncate(half), (prod.floor, half, list(prod.coeffs[:half - prod.floor])))]
    if any(a.coeffs):
        cases.append((a.reciprocal(), oracle_reciprocal(a)))
    f, g = TruncSeries("z", abs(a.floor), a.coeffs), TruncSeries("z", abs(b.floor) + 1, b.coeffs)
    cases.append((series_compose(f, g), compose_oracle(f, g)))
    for got, (floor, order, coeffs) in cases:
        assert got.order == order
        if order > floor:
            assert got.floor == floor
        assert list(got.coeffs) == coeffs
        assert all(type(c) is F for c in got.coeffs)
        assert_stored_form(got)
        # a kernel output equals the series built from the oracle's Fractions
        built = TruncSeries("z", floor, coeffs, order)
        assert built == got and got == built
        if any(coeffs):
            # a shifted window and a rescaled series are other series, even
            # when their numerators are the same after reduction
            assert got.shift(1) != got and got.scale(2) != got
    assert a.coeffs is views[0] and b.coeffs is views[1]
    for x in (a, b, f, g):
        assert_stored_form(x)


def test_laurent_reciprocal():
    # 1/(z^2 + z^3) = z^{-2} - z^{-1} + 1 - z + ...
    s = poly("z", {2: F(1), 3: F(1)}, 8)
    r = s.reciprocal()
    assert r.floor == -2
    assert [r.coeff(n) for n in (-2, -1, 0, 1)] == [1, -1, 1, -1]


@pytest.mark.parametrize("floor", range(-2, 3))
def test_pow_window_matches_the_product_chain(floor):
    # f ** k keeps the window of f * f * ... * f (of 1/f for k < 0): k times
    # the floor, and as many known coefficients as f has.  A product started
    # from a constant 1 known below x^{f.order} cut a negative floor's window.
    f = poly("z", {floor: F(2), floor + 1: F(-1, 3), floor + 3: F(5)}, floor + 5)
    for k in range(-3, 5):
        if k == 0:
            # the empty product: 1 known as far as 1 * f keeps f's window
            want = TruncSeries.const("z", F(1), max(f.order - min(f.floor, 0), 1))
        else:
            base = f if k > 0 else f.reciprocal()
            want = base
            for _ in range(abs(k) - 1):
                want = series_mul(want, base)
        got = f ** k
        assert (got.floor, got.order, got.coeffs) == (want.floor, want.order, want.coeffs), k


def test_zeroth_power_is_a_unit_for_the_product():
    # f ** 0 * f keeps f's window for a Laurent f; a floor >= 0 keeps 1 known
    # below x^{max(order, 1)}
    f = poly("z", {-1: F(1), 0: F(2), 2: F(1)}, 4)
    one = f ** 0
    assert (one.floor, one.order) == (0, 5)
    g = one * f
    assert (g.floor, g.order, g.coeffs) == (f.floor, f.order, f.coeffs)
    for h in (poly("z", {1: F(1)}, 6), poly("z", {0: F(3)}, 1)):
        assert (h ** 0).order == max(h.order, 1)


def test_constructor_refuses_non_rational_coefficients():
    # a series holds integer numerators over one denominator, so every
    # coefficient is an int or a Fraction; anything else, a series in
    # another variable included, is refused before any kernel sees it
    for bad in (0.5, 1j, "1/2", TruncSeries("x", 0, [F(1), F(2)]), None, True):
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            TruncSeries("z", 0, [F(1), bad, 2])
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            TruncSeries.from_coeff_map("z", {0: F(1), 3: bad}, 5)


def test_bool_is_no_rational_scalar():
    # the constructor's exact-type test holds for scalars and U(rho)'s inputs
    # too: True is an int by isinstance but no rational here
    with pytest.raises(ValueError, match="scales by an int or a Fraction, not True"):
        TruncSeries("z", 0, [1]).scale(True)
    with pytest.raises(ValueError, match="needs rational scalars, not True"):
        apply_exp_raising([True], 1, {(): F(1)}, heisenberg_model())


@pytest.mark.parametrize("op", [lambda a, b: a + b, lambda a, b: a * b], ids=["+", "*"])
def test_variable_mismatch_refused(op):
    z, q = TruncSeries.const("z", 1, 3), TruncSeries.const("q", 1, 3)
    with pytest.raises(ValueError, match="variable mismatch: 'z' vs 'q'"):
        op(z, q)


XS = [TruncSeries("x", 0, [F(1), F(2)]), TruncSeries("x", 0, [F(3), F(0)])]


def test_mul_rejects_series_coefficients():
    # products run on integer numerators: an operand with x-series
    # coefficients, on either side, is refused before the kernel runs
    rational = poly("z", {0: F(1), 1: F(1, 2)}, 2)
    for side in (0, 1):
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            operands = [rational, rational]
            operands[side] = TruncSeries("z", 0, XS)
            series_mul(*operands)


def test_compose_rejects_series_coefficients():
    # composition runs on integer numerators: x-series coefficients on the
    # outer or the inner series are refused before the kernel runs
    rational = poly("z", {1: F(1), 2: F(1, 2)}, 4)
    for side, floor in ((0, 0), (1, 1)):
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            operands = [rational, rational]
            operands[side] = TruncSeries("z", floor, XS)
            series_compose(*operands)


def test_reciprocal_rejects_series_coefficients():
    # a z-series whose coefficients are x-series has no reciprocal here
    with pytest.raises(ValueError, match="must be an int or a Fraction"):
        TruncSeries("z", 0, XS).reciprocal()


def test_truncseries_equality_is_unhashable():
    # equality normalizes both sides; no hash repeats that work
    s = TruncSeries.const("z", 1, 3)
    assert s == TruncSeries.const("z", 1, 3)
    with pytest.raises(TypeError):
        hash(s)


def test_truncseries_has_no_scalar_arithmetic():
    # a series adds, subtracts and compares with series only; the int 0 that
    # sum starts from leaves it as it is
    s = TruncSeries.const("z", 1, 3)
    for op in (lambda: s + 1, lambda: 1 + s, lambda: s - F(1, 2)):
        with pytest.raises(TypeError):
            op()
    assert s != 1
    assert sum([s]) is s and sum([s, s]) == s.scale(2)


class TestQExpansion:
    def test_q_ddq(self):
        s = QExpansion(F(1, 3), [F(1), F(2)])
        d = s.q_ddq()
        # q^(1/3 + n) times 1/3 + n
        assert d.offset == F(1, 3) and list(d.coeffs) == [F(1, 3), 2 * F(4, 3)]

    def test_shift_offset(self):
        s = QExpansion(F(0), [F(1), F(2)]).shift_offset(F(-1, 24))
        assert s.offset == F(-1, 24) and list(s.coeffs) == [1, 2]

    @pytest.mark.parametrize("series", [TruncSeries("z", 0, [F(1)]),
                                        TruncSeries("q", 1, [F(1)]),
                                        TruncSeries("q", -1, [F(1), F(0)])],
                             ids=["z-series", "floor-1", "floor-minus-1"])
    def test_constructor_refuses_other_series(self, series):
        with pytest.raises(ValueError, match="q-series at floor 0"):
            QExpansion(0, series)

    def test_built_on_a_q_series(self):
        s = TruncSeries("q", 0, [F(1), F(2)])
        e = QExpansion(F(1, 2), s)
        assert e.series is s and e.coeffs is s.coeffs and e.order == 2
        assert e == QExpansion(F(1, 2), [1, 2])


def test_bivar_monomials():
    b = BivarSeries.from_monomials(("x", "y"), {(0, 0): F(1), (2, 1): F(-3)}, (4, 4))
    assert sorted(b.monomials()) == [(0, 0, F(1)), (2, 1, F(-3))]


def test_bivar_monomials_ascend_as_fractions():
    cmap = {(2, 1): -3, (0, 3): 0, (-1, 2): 1, (0, 0): F(1, 2), (2, -1): 5}
    got = list(BivarSeries.from_monomials(("x", "y"), cmap, (4, 4)).monomials())
    assert got == [(-1, 2, F(1)), (0, 0, F(1, 2)), (2, -1, F(5)), (2, 1, F(-3))]
    assert all(type(c) is F for _, _, c in got)


@pytest.mark.parametrize("mono", [(5, 0), (0, 4)])
def test_bivar_monomial_beyond_the_orders_is_refused(mono):
    with pytest.raises(ValueError, match=rf"monomial \({mono[0]}, {mono[1]}\).*\(4, 4\)"):
        BivarSeries.from_monomials(("x", "y"), {(0, 0): 1, mono: 1}, (4, 4))


@pytest.mark.parametrize("a, b, equal", [
    (QExpansion(0, [1, 2, 3, 4]), QExpansion(0, [1, 2]), True),
    (QExpansion(0, [1, 2, 3, 4]), QExpansion(0, [1, 5]), False),
    (QExpansion(0, [0, 0, 1, 2, 3]), QExpansion(2, [1]), True),
    (QExpansion(0, [0, 1, 1, 2]), QExpansion(2, [1]), False),
    (QExpansion(0, [0, 0]), QExpansion(3, [1]), True),
    (QExpansion(0, [1, 2]), QExpansion(3, [1]), False),
    (QExpansion(0, [0]), QExpansion(F(1, 2), [0, 0]), True),
    (QExpansion(0, [1]), QExpansion(F(1, 2), [0]), False),
])
def test_qexpansion_equality_on_the_common_window(a, b, equal):
    # below its offset an expansion is exactly zero; at or beyond its order
    # it is unknown, so only the common window is compared, in either order
    assert (a == b) is equal and (b == a) is equal


def test_qexpansion_window_equality_is_unhashable():
    # equality compares the common window only, so it cannot agree with a hash
    pairs = [(QExpansion(0, [0, 1]), QExpansion(1, [1])),
             (QExpansion(0, [1, 2]), QExpansion(0, [1]))]
    for a, b in pairs:
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
