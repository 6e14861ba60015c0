"""Schwarzian derivatives of truncated series, cocycle identities, the
conformal-vector transition law, and series uniformization.

The Schwarzian of f over the base coordinate is

    S f = f''' / f'  -  (3/2) (f'' / f')^2 ,

a projective cocycle: it vanishes exactly on Moebius maps, and satisfies
the chain rule S(f o g) = ((Sf) o g) * (g')^2 + S g.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import vec_add_into, vec_is_zero, vec_weight_project
from .coordchange import CoordChange, U_apply
from .series import TruncSeries, series_compose, series_comp_inverse, series_mul

__all__ = [
    "schwarzian",
    "mobius_series",
    "exp_minus_one_series",
    "cocycle_check",
    "antisymmetry_check",
    "triple_cocycle_check",
    "conformal_transition",
    "uniformize",
]

F0 = Fraction(0)
F1 = Fraction(1)
F32 = Fraction(3, 2)


def schwarzian(f: TruncSeries) -> TruncSeries:
    """S f = f'''/f' - (3/2)(f''/f')^2; needs f'(0) != 0."""
    f1 = f.deriv()
    if f1.order <= 0 or f1.coeff(0) == 0:
        raise ValueError("f'(0) = 0: Schwarzian undefined as a series at 0")
    f2 = f1.deriv()
    f3 = f2.deriv()
    inv = f1.reciprocal()
    r = series_mul(f2, inv)
    return series_mul(f3, inv) - series_mul(r, r) * F32


def mobius_series(a, b, c, d, order: int) -> TruncSeries:
    """(az+b)/(cz+d) expanded at 0; needs d != 0 and ad - bc != 0."""
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    if d == 0:
        raise ValueError("pole at the expansion point")
    if a * d - b * c == 0:
        raise ValueError("degenerate Moebius map")
    num = TruncSeries.from_coeff_map("z", {0: b, 1: a}, order)
    den = TruncSeries.from_coeff_map("z", {0: d, 1: c}, order)
    return series_mul(num, den.reciprocal())


def exp_minus_one_series(a, order: int) -> TruncSeries:
    """e^{az} - 1 as a truncated series with rational a."""
    a = Fraction(a)
    cmap = {}
    p = F1
    fact = 1
    for k in range(1, order):
        p *= a
        fact *= k
        cmap[k] = p / fact
    return TruncSeries.from_coeff_map("z", cmap, order)


def cocycle_check(f: TruncSeries, g: TruncSeries) -> bool:
    """Chain rule S(f o g) = ((Sf) o g) * (g')^2 + S g, exactly on the
    jointly certified window.  g must fix 0."""
    comp = series_compose(f, g)
    lhs = schwarzian(comp)
    g1 = g.deriv()
    rhs = series_mul(series_compose(schwarzian(f), g), series_mul(g1, g1)) + schwarzian(g)
    order = min(lhs.order, rhs.order)
    return lhs.truncate(order) == rhs.truncate(order)


def antisymmetry_check(g: TruncSeries) -> bool:
    """S g = -(g')^2 * (S g^{-1}) o g  (the two-coordinate antisymmetry of
    the Schwarzian, with g^{-1} the compositional inverse)."""
    ginv = series_comp_inverse(g)
    g1 = g.deriv()
    lhs = schwarzian(g)
    rhs = -series_mul(series_compose(schwarzian(ginv), g), series_mul(g1, g1))
    order = min(lhs.order, rhs.order)
    return lhs.truncate(order) == rhs.truncate(order)


def triple_cocycle_check(f: TruncSeries, g: TruncSeries, h: TruncSeries) -> bool:
    """Expanding S(f o g o h) through either grouping gives the same answer;
    the difference of the two expansions sums to zero."""
    gh = series_compose(g, h)
    h1 = h.deriv()
    # route 1: outer f, inner g o h
    r1 = series_mul(series_compose(schwarzian(f), gh), series_mul(gh.deriv(), gh.deriv())) \
        + schwarzian(gh)
    # route 2: outer f o g, inner h
    r2 = series_mul(series_compose(schwarzian(series_compose(f, g)), h), series_mul(h1, h1)) \
        + schwarzian(h)
    order = min(r1.order, r2.order)
    return (r1 - r2).truncate(order).is_zero()


def conformal_transition(rho: CoordChange, model) -> tuple[Fraction, Fraction]:
    """Decompose U(rho) applied to the conformal vector as
    s_c * (conformal vector) + s_1 * vacuum and verify the closed form

        s_c = rho'(0)^2,   s_1 = (c/2) c_2,   c_2 = (1/6) (S rho)(0).

    Returns (s_c, s_1)."""
    cvec = model.conformal_vector
    out = U_apply(rho, cvec, model)
    s_1 = out.get((), F0)
    top = vec_weight_project(out, 2)
    # solve top = s_c * cvec on the weight-2 space
    probe_label, probe_coeff = next(iter(cvec.items()))
    s_c = top.get(probe_label, F0) / probe_coeff
    resid = vec_add_into(dict(top), cvec, -s_c)
    if not vec_is_zero(resid) or set(out) - set(top) - {()}:
        raise ValueError("U(rho) conformal vector left the span of {c, vacuum}")
    c2 = rho.coeffs(2)[2]
    sz0 = schwarzian(rho.series(6)).coeff(0)
    cc = model.c
    if s_c != rho.poly.get(1) ** 2 or c2 != sz0 / 6 or s_1 != cc / 2 * c2:
        raise AssertionError("transition law failed its closed-form cross-check")
    return s_c, s_1


def uniformize(Q: TruncSeries) -> TruncSeries:
    """Solve S f = Q by the linear trick: with h'' + Q h / 2 = 0 and the two
    normalized solutions h1 (h1(0)=1, h1'(0)=0), h2 (h2(0)=0, h2'(0)=1),
    the ratio f = h2/h1 has Schwarzian Q.  The result is verified against
    the schwarzian operator to the available order; failure raises."""
    if Q.floor < 0:
        raise ValueError("Q must be holomorphic at 0")
    order = Q.order + 2

    def solve(h0, h1v):
        h = [Fraction(h0), Fraction(h1v)]
        for k in range(0, order - 2):
            s = F0
            for j in range(Q.floor, min(k, Q.order - 1) + 1):
                s += Q.coeff(j) * h[k - j]
            h.append(-s / (2 * (k + 2) * (k + 1)))
        return TruncSeries("%s" % Q.var, 0, h, order)

    h1 = solve(1, 0)
    h2 = solve(0, 1)
    f = series_mul(h2, h1.reciprocal())
    check = schwarzian(f)
    win = min(check.order, Q.order)
    if win <= Q.floor and not Q.is_zero():
        raise ValueError("truncation too short to verify the uniformization")
    if not (check - Q).truncate(win).is_zero():
        raise AssertionError("uniformization failed verification")
    return f
