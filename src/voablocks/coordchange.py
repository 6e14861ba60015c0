"""The group of local coordinate changes rho (rho(0)=0, rho'(0) != 0) and
its exponential-Virasoro representation U(rho) on graded modules.

Core identity: every rho factors as

    rho(z) = c0 * exp(sum_{n>0} c_n z^{n+1} d/dz) z,

and the representation is U(rho) = c0^{Ltilde0} exp(sum_{n>0} c_n L_n).
In particular s^{Ltilde0} is U of the scaling z -> s z, which is how the
gamma_xi relation check applies it.
The c_n are extracted in one pass over the exponents of z: the terms
V^k z / k! of the Lie series, V = sum c_m z^{m+1} d/dz, obey a recurrence
in k, and c_n enters the z^{n+1} coefficient only through the k = 1 term.
The pass runs on integer columns: [z^j] V^k z / k! is homogeneous of
index sum j - 1 in the c_m, so, scaled by d^{j-1} with d a common
denominator of the rho_j / rho_1, it needs only the divisions by k, which
a constant M_j of the column clears.  One recursion serves rationals and
z-series alike: each value is split into a numerator (an int, or a series
of integer numerators) over an int denominator.

A ``CoordChange`` keeps one prefix [c0, ..., c_m] of these coefficients
and extends it only when a longer one is asked for: rho is an exact
polynomial, so c_n does not depend on how many coefficients were requested.
Its constructor is the one gate of the group: it refuses a coefficient
that is not an int or a Fraction, a pole at 0 (zero terms below z^1 are
allowed), rho(0) != 0 and rho'(0) = 0, and ``extract_coeffs`` reads a series
through it.  The group law
composes rho1 o rho2 with ``poly_compose``, one ``series_compose`` call on
that kernel's domain: p2(0) = 0 and no pole in either polynomial.

There is one scalar ring, the rationals: U(rho) takes rational c_n and
vectors and runs on integer numerators (see ``virasoro.apply_exp_raising``).
The conjugation check U(a) Y(v,z) U(a)^{-1} = Y(U(rho_z) v, a(z)), with
rho_z(t) = a(t+z) - a(z), runs in its intertwining form
U(a) Y(v,z) w = Y(U(rho_z) v, a(z)) U(a) w, so U(a) is never inverted.
It needs the c_n of rho_z as z-series: they come from the recursion of
``extract_coeffs`` run on a plain list of z-series, and
exp(sum c_n(z) L_n) v is held as one z-series per label from its first
term on: each step of X^k v / k! is a ``series_mul`` by c_n(z) scaled by
the L_n images of the label, and each label's series is multiplied by
c0(z)^{wt}, one power per weight.  Both sides of the check are
{label: z-series} maps of the check's own; they never reach a ``vec_*``
helper or ``apply_exp_raising`` (which refuses z-series), so no graded
vector holds a series.

The check's z-window is derived from its inputs.  Both sides are compared
on z^e for -(wt v + wt w) <= e < K.  The right side sums
f_u(z) a(z)^{-n-1} u_n U(a) w, and U(a) w has no weight above wt w.  When
rho_z's coefficients are known below z^A, 1/a(z) is known below z^{A-2}
and a(z)^{-m} below z^{A-1-m}, with floor -m.  Since m = n + 1 is at most
wt v + wt w, A = K + wt v + wt w + 1 is the smallest window that reaches
z^{K-1}.  The c_n(z) are known below z^A too, but [z^e] a(z)^{-m} f_u(z)
for e < K reads the coefficients f_u of U(rho_z) v only up to
z^{K-1+m} <= z^{A-2}: v's labels start as constants known below z^{A-1},
``series_mul`` keeps that window through every step, and a(z)^{-m} f_u(z)
is still known below z^{A-1-m}.  Each product still checks its window and
raises naming the window it needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .graded import vec_add_into, vec_is_zero, vec_max_weight, weight_of
from .models import Module
from .series import TruncSeries, _check_scalars, _series, series_compose, series_mul
from .virasoro import apply_exp_raising, gbinom

__all__ = [
    "CoordChange",
    "poly_series",
    "poly_compose",
    "gamma_series",
    "extract_coeffs",
    "U_apply",
    "gamma_relation_check",
    "huang_conjugation_check",
]

F0 = Fraction(0)
F1 = Fraction(1)


def poly_series(cmap: dict, var: str, order: int) -> TruncSeries:
    """Exact polynomial as a truncated series at any requested order."""
    _check_scalars(cmap.values())
    cmap = {k: Fraction(v) if isinstance(v, int) else v for k, v in cmap.items() if v}
    if cmap and max(cmap) >= order:
        raise ValueError(f"order {order} too small for the polynomial: "
                         f"degree {max(cmap)} needs order >= {max(cmap) + 1}")
    return TruncSeries.from_coeff_map(var, cmap, order)


def poly_compose(p1: dict, p2: dict) -> dict:
    """p1(p2(z)) for polynomials given as exponent -> rational maps, as the
    map of its nonzero coefficients (Fractions).

    The domain is that of ``series_compose``: p2(0) = 0 and no nonzero
    term of negative exponent in either map; input outside it raises
    ValueError.  Both are composed as series known below z^(d1 d2 + 1),
    d_i the largest exponent of p_i (below z^1 if d1 d2 < 0), so the
    result is exact."""
    order = max(max(p1, default=0) * max(p2, default=0), 0) + 1
    s = series_compose(TruncSeries.from_coeff_map("z", p1, order),
                       TruncSeries.from_coeff_map("z", p2, order))
    return {e: c for e, c in enumerate(s.coeffs, s.floor) if c}


class CoordChange:
    """A coordinate change given by an exact polynomial rho(z) = sum a_k z^k
    (a_0 = 0, a_1 != 0), regenerable as a series at any truncation order."""

    def __init__(self, poly: dict):
        _check_scalars(poly.values(), "a coefficient of rho")
        poly = {int(k): Fraction(v) for k, v in poly.items() if v}
        if min(poly, default=0) < 0:
            raise ValueError(f"rho has a pole at 0: its z^{min(poly)} coefficient is nonzero")
        if poly.get(0):
            raise ValueError("rho(0) must be 0")
        poly.pop(0, None)
        if not poly.get(1):
            raise ValueError("rho'(0) = 0: not a coordinate change")
        self.poly = poly
        self._coeffs: list = []  # [c0, ..., c_m], the longest prefix asked for

    def series(self, order: int) -> TruncSeries:
        """rho known below z^order: terms of rho at or above z^order are cut,
        so the window does not grow with rho's degree."""
        return TruncSeries.from_coeff_map("z", self.poly, order)

    def coeffs(self, count: int) -> list:
        """[c0, c1, ..., c_count] of the exponential factorization, as a
        fresh list.  c_n depends only on the coefficients of rho up to
        z^{n+1}, and rho is exact, so one prefix serves every count: it is
        re-extracted only when a longer one is asked for."""
        if count < 0:
            raise ValueError(f"coefficient count must be >= 0, got {count}")
        if count >= len(self._coeffs):
            self._coeffs = _exp_factorization(
                [self.poly.get(j, F0) for j in range(1, count + 2)], F1 / self.poly[1])
        return self._coeffs[:count + 1]

    def __repr__(self):
        return f"CoordChange({self.poly})"


def extract_coeffs(rho: TruncSeries, count: int) -> list:
    """[c0, c1, ..., c_count] with rho = c0 exp(sum c_n z^{n+1} d/dz) z.

    c0 = rho'(0).  With V = sum_m c_m z^{m+1} d/dz, the coefficients
    t[k, j] = [z^j] V^k z / k! obey t[k, j] = (1/k) sum_m c_m (j-m) t[k-1, j-m]
    with t[1, j] = c_{j-1}, so one sweep over j gives
    c_n = [z^{n+1}] rho / c0 - sum_{k>=2} t[k, n+1] from the earlier c_m.
    The sweep runs on integer columns (``_exp_factorization``) and builds
    two Fractions per c_n.  Closed forms at low order:
    c1 = (1/2) rho''(0)/rho'(0),
    c2 = (1/6) rho'''(0)/rho'(0) - (1/4)(rho''(0)/rho'(0))^2.
    rho is read through ``CoordChange``, the one gate of the group.
    """
    if rho.order < 2:
        raise ValueError("series window too small to see rho'(0)")
    cc = CoordChange(dict(enumerate(rho.coeffs, rho.floor)))
    if count > rho.order - 2:
        raise ValueError("series order too small for requested coefficient count: "
                         f"{count} coefficients need order >= {count + 2}")
    return cc.coeffs(count)


def _split(x) -> tuple:
    """(numerator, denominator) with x = numerator / denominator and the
    denominator a positive int: of a rational, or of a z-series, whose
    numerator is the series of its integer numerators."""
    if isinstance(x, TruncSeries):
        nums, den = x._ints()
        return _series(x.var, x.floor, nums, 1, x.order), den
    return x.numerator, x.denominator


@lru_cache(maxsize=None)
def _column(j: int) -> tuple:
    """(M_j, g_j, h_j), the constants of column j >= 2 of
    ``_exp_factorization``: M_j = K_j B_j with K_j = lcm(2..j-1) and
    B_j = lcm_m M_{m+1} M_{j-m} (m = 1..j-2), g_j[m-1] = (j-m) B_j /
    (M_{m+1} M_{j-m}) and h_j[k-2] = K_j / k.  ``_exp_factorization`` asks
    for columns 2, 3, ... in turn, so each call reads only cached columns."""
    qs = [_column(m + 1)[0] * _column(j - m)[0] for m in range(1, j - 1)]
    B, K = lcm(*qs), lcm(*range(2, j))
    return (K * B, tuple((j - m) * (B // q) for m, q in enumerate(qs, 1)),
            tuple(K // k for k in range(2, j)))


def _exp_factorization(r: list, inv_a1) -> list:
    """The recursion of ``extract_coeffs`` on r = [rho_1, ..., rho_{m+1}],
    the coefficients of z^1, ..., z^{m+1}, unchecked: [c0, ..., c_m] given
    inv_a1 = 1/rho_1, for rationals or for the z-series of Huang's rho_z.

    One recursion serves both rings, on integer numerators.  With d the
    lcm of the denominators of u_j = rho_j / rho_1, u_j d^{j-1} is
    integral, and t[k, j] is homogeneous of index sum j - 1 in the c_m, so
    the graded values t[k, j] d^{j-1} obey the recursion of t with
    u_j d^{j-1} for u_j and only the 1/k left to divide.  Column j keeps
    them as integer numerators over M_j, a constant of the column alone
    (``_column``): no lcm or gcd of the input is taken inside the sweep,
    and each c_{j-1} is its numerator times Fraction(1, M_j d^{j-1})."""
    inum, iden = _split(inv_a1)
    us = [(n * inum, den * iden) for n, den in map(_split, r[1:])]
    d = lcm(*(den for _, den in us))
    cs = [r[0]]
    rows = [None, [None, None]]  # rows[k][j]: t[k, j] d^{j-1} M_j, for j > k
    for j in range(2, len(r) + 1):
        M, g, h = _column(j)
        un, uden = us[j - 2]
        c = rows[1]
        f = [c[m + 1] * gm for m, gm in enumerate(g, 1)]
        tot = un * (M * (d // uden) * d ** (j - 2))
        for k in range(2, j):
            if k == j - 1:
                rows.append([None] * j)
            # sum_m c_m (j-m) t[k-1, j-m] / k on numerators: the row slice
            # holds t[k-1, j-1..k], so m runs over 1..j-k
            s = sum(map(mul, f, rows[k - 1][j - 1:k - 1:-1])) * h[k - 2]
            rows[k].append(s)
            tot -= s
        c.append(tot)
        cs.append(tot * Fraction(1, M * d ** (j - 1)))
    return cs


def gamma_series(xi, order: int) -> CoordChange:
    """gamma_xi(z) = 1/(xi+z) - 1/xi = sum_{k>=1} (-1)^k xi^{-k-1} z^k, cut
    below z^order: the CoordChange whose c_0, ..., c_{order-2} are those of
    gamma_xi."""
    xi = Fraction(xi)
    if xi == 0:
        raise ValueError("xi must be nonzero")
    return CoordChange({k: Fraction((-1) ** k) / xi ** (k + 1) for k in range(1, order)})


def U_apply(rho: CoordChange, w: dict, module: Module) -> dict:
    """U(rho) w = c0^{Ltilde0} exp(sum_{n>0} c_n L_n) w.  A vector of top
    weight W needs c_0, ..., c_W, which rho extends its prefix to."""
    W = vec_max_weight(w)
    if W < 0:
        return {}
    cs = rho.coeffs(W)
    return apply_exp_raising(cs[1:], cs[0], w, module)


def gamma_relation_check(xi, w: dict, module: Module) -> bool:
    """U(gamma_xi) xi^{Ltilde0} w == xi^{-Ltilde0} U(gamma_1) w, exactly."""
    xi = Fraction(xi)
    # U_apply reads c_0, ..., c_W at top weight W; gamma_xi keeps z^1 even for w = 0
    order = max(vec_max_weight(w), 0) + 2
    lhs = U_apply(gamma_series(xi, order), U_apply(CoordChange({1: xi}), w, module), module)
    rhs = U_apply(CoordChange({1: F1 / xi}), U_apply(gamma_series(F1, order), w, module), module)
    diff = vec_add_into(dict(lhs), rhs, Fraction(-1))
    return vec_is_zero(diff)


# ---------------------------------------------------------------------------
# Huang's conjugation identity


class HuangReport:
    def __init__(self, passed: bool, window: tuple):
        self.passed = passed
        self.window = window

    def __bool__(self):
        return self.passed


def huang_conjugation_check(alpha: CoordChange, v, w: dict, module: Module,
                            z_order: int) -> HuangReport:
    """Exact check of U(a) Y(v,z) w = Y(U(rho_z) v, a(z)) U(a) w in W((z))
    on the window [-(wt v + wt w), z_order).

    This is Huang's law U(a) Y(v,z) U(a)^{-1} = Y(U(rho_z) v, a(z)) on the
    vector U(a) w, and no inverse is built.  U(a) is invertible on each
    weight filtration and does not raise weight, so a sweep over every
    label up to a weight checks the same law in either form.
    rho_z(t) = a(t+z) - a(z) is expanded with z-series coefficients; the
    right-hand side substitutes a(z) into the mode expansion of the
    transformed vector and applies it to U(a) w.  Each side is collected as
    one z-series per label, known below z^{z_order}; the labels whose
    series is zero are dropped and the two {label: series} maps compared
    with ==.  The series run on the z-window A = z_order + wt v + wt w + 1,
    derived in the module docstring.
    """
    if isinstance(v, tuple):
        v = {v: F1}
    Wv = vec_max_weight(v)
    Ww = vec_max_weight(w)
    K = z_order
    A = K + Wv + Ww + 1

    # ---- left side: U(a) applied mode by mode, exact rational vectors
    lhs_maps: dict = {}  # label -> {z-exponent: coefficient}
    for n in range(-K, Wv + Ww):
        for label, c in U_apply(alpha, module.mode_apply(v, n, w), module).items():
            lhs_maps.setdefault(label, {})[-n - 1] = c
    lhs = {label: TruncSeries.from_coeff_map("z", cmap, K) for label, cmap in lhs_maps.items()}

    # ---- right side
    # rho_z(t) = a(t+z) - a(z): t-coefficient j is sum_k a_k C(k,j) z^{k-j}
    tcoeffs = []
    for j in range(1, Wv + 2):
        cmap = {k - j: alpha.poly[k] * gbinom(k, j) for k in alpha.poly if k >= j}
        tcoeffs.append(TruncSeries.from_coeff_map("z", cmap, A))
    cs = _exp_factorization(tcoeffs, tcoeffs[0].reciprocal())
    # exp(sum c_n(z) L_n) v as one z-series per label, v's labels known
    # below z^{window - 1} (the module docstring says why f_u stops there)
    window = min(c.order for c in cs)
    fs: dict = {}
    term, k = {label: TruncSeries.from_coeff_map("z", {0: c}, window - 1)
               for label, c in v.items() if c}, 0
    while term:  # X^k v / k! with X = sum c_n(z) L_n; finite, as L_n lowers the weight
        for label, s in term.items():
            fs[label] = s + fs.get(label, 0)
        k += 1
        nxt: dict = {}
        for n, cn in enumerate(cs[1:], start=1):
            for label, s in term.items():
                images = module.voa._L(n, label)
                if images:
                    p = series_mul(s, cn)
                    for u, y in images.items():
                        nxt[u] = p.scale(y / k) + nxt.get(u, 0)
        term = {u: s for u, s in nxt.items() if s}

    a_series = alpha.series(A)
    aw = U_apply(alpha, w, module)  # of top weight <= wt w: U(a) does not raise weight
    powers: dict = {}  # n -> a(z)^{-n-1}, filled on first use
    c0_powers: dict = {}  # wt -> c0(z)^{wt}
    rhs: dict = {}
    for ul, f in fs.items():
        wt = weight_of(ul)
        if wt not in c0_powers:
            c0_powers[wt] = cs[0] ** wt
        fu = f * c0_powers[wt]
        for n in range(-K, wt + Ww):
            t = module.mode_apply(ul, n, aw)
            if not t:
                continue
            if n not in powers:
                powers[n] = a_series ** (-n - 1)
            zser = powers[n] * fu
            if zser.order < K:
                raise ValueError(f"z-window {A} too small: a(z)^{-n - 1} f_u(z) is known "
                                 f"below z^{zser.order}, the check reads z^{K - 1} and "
                                 f"needs z-window >= {A + K - zser.order}")
            zser = zser.truncate(K)
            for label, c in t.items():
                rhs[label] = zser.scale(c) + rhs.get(label, 0)
    # a label whose series cancels on the window is absent from the other side
    lhs, rhs = ({u: s for u, s in side.items() if s} for side in (lhs, rhs))
    return HuangReport(lhs == rhs, (-(Wv + Ww), K))
