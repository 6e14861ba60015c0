"""Truncated-series arithmetic: ring laws, composition, inversion."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from voablocks.series import (BivarSeries, QExpansion, TruncSeries,
                              series_comp_inverse, series_compose, series_mul,
                              series_residue)

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
    assert got.coeffs == coeffs
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
    assert r.coeffs == b
    assert all(type(c) is F for c in r.coeffs)


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(scalars, min_size=1, max_size=4), st.booleans())
def test_mul_with_series_coefficients(rows, other, both):
    # z-series whose coefficients are x-series on [0, 3): the generic path;
    # the oracle is the bivariate convolution of the coefficient arrays
    xs = [TruncSeries("x", 0, row) for row in rows]
    a = TruncSeries("z", 0, xs)
    if both:
        b_rows = [[F(c), F(1, 2), 0] for c in other]
        b = TruncSeries("z", 0, [TruncSeries("x", 0, row) for row in b_rows])
    else:
        b_rows = [[F(c), 0, 0] for c in other]
        b = TruncSeries("z", 0, other)
    got = series_mul(a, b)
    assert (got.floor, got.order) == (0, min(len(rows), len(other)))
    for n in range(got.order):
        want = [sum((F(rows[i][p]) * F(b_rows[n - i][k - p])
                     for i in range(n + 1) for p in range(k + 1)), F(0))
                for k in range(3)]
        c = got.coeff(n)
        assert (c.coeffs if isinstance(c, TruncSeries) else [c] * 3) == want


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
    # checked through series_compose, which shares no code with the inversion
    cmap = {1: a1, **{k: c for k, c in enumerate(rest, start=2) if k < order}}
    f = poly("z", cmap, order)
    g = series_comp_inverse(f)
    assert (g.floor, g.order) == (1, order)
    for comp in (series_compose(f, g), series_compose(g, f)):
        assert comp.order == order
        assert [comp.coeff(n) for n in range(order)] == [0, 1] + [0] * (order - 2)


def test_laurent_reciprocal():
    # 1/(z^2 + z^3) = z^{-2} - z^{-1} + 1 - z + ...
    s = poly("z", {2: F(1), 3: F(1)}, 8)
    r = s.reciprocal()
    assert r.floor == -2
    assert [r.coeff(n) for n in (-2, -1, 0, 1)] == [1, -1, 1, -1]


def test_reciprocal_rejects_series_coefficients():
    # a z-series whose coefficients are x-series has no reciprocal here
    xs = [TruncSeries("x", 0, [F(1), F(2)]), TruncSeries("x", 0, [F(3), F(0)])]
    with pytest.raises(ValueError, match="rational coefficients"):
        TruncSeries("z", 0, xs).reciprocal()


def test_residue():
    s = TruncSeries.from_coeff_map("z", {-2: F(5), -1: F(7), 3: F(1)}, 4)
    assert series_residue(s) == 7
    with pytest.raises(IndexError):
        series_residue(poly("z", {0: F(1)}, 3))


def test_truncseries_equality_is_unhashable():
    # equality normalizes windows and accepts scalars, so it is not
    # transitive and no hash can agree with it
    s = TruncSeries.const("z", 1, 3)
    assert s == 1 and s == TruncSeries.const("z", 1, 3)
    with pytest.raises(TypeError):
        hash(s)


class TestQExpansion:
    def test_add_alignment(self):
        a = QExpansion(F(0), [F(1), F(1), F(1)])
        b = QExpansion(F(1), [F(3)])
        s = a + b
        assert s.offset == 0
        assert s.coeff_at(1) == 4 and s.coeff_at(0) == 1

    def test_add_incommensurable_offsets_rejected(self):
        with pytest.raises(ValueError):
            QExpansion(F(0), [F(1)]) + QExpansion(F(1, 2), [F(1)])

    def test_q_ddq(self):
        s = QExpansion(F(1, 3), [F(1), F(2)])
        d = s.q_ddq()
        assert d.coeff_at(F(1, 3)) == F(1, 3)
        assert d.coeff_at(F(4, 3)) == 2 * F(4, 3)

    def test_shift_offset(self):
        s = QExpansion(F(0), [F(1), F(2)]).shift_offset(F(-1, 24))
        assert s.offset == F(-1, 24) and list(s.coeffs) == [1, 2]


def test_bivar_monomials():
    b = BivarSeries.from_monomials(("x", "y"), {(0, 0): F(1), (2, 1): F(-3)}, (4, 4))
    assert sorted(b.monomials()) == [(0, 0, F(1)), (2, 1, F(-3))]


def test_qexpansion_window_equality_is_unhashable():
    # equality compares the common window only, so it cannot agree with a hash
    pairs = [(QExpansion(0, [0, 1]), QExpansion(1, [1])),
             (QExpansion(0, [1, 2]), QExpansion(0, [1]))]
    for a, b in pairs:
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
