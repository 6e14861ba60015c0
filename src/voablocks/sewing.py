"""Sewing of genus-0 blocks and torus characters.

Sewing pairs the last two slots of a block functional, which carry a
module M and its declared contragredient M', through the graded
dual-basis insertion weighted by q:

    (sew psi)(w_bullet) = sum_n  psi(w_bullet (x) P(n)|> (x) <|) q^n,

where P(n)|> (x) <| = sum_a m(n,a) (x) dual m(n,a), summed by ``sew`` for
n = 0..K, the order of its ``SewableBlock``.  A SewnSeries keeps
one QExpansion, the standard series in the L0 grading (offset Delta_M);
the Ltilde0 grading has the same coefficients at offset 0.  Self-sewing
the 3-pointed sphere (1, 0, infinity) yields the torus character: the
q-trace of the weight-preserving zero mode.

``torus_character`` computes that trace, Z(v) = sum_n tr_{M(n)} o(v) q^n
with o(v) = v_{wt v - 1}, without a weight block of M: Zhu's recursion
(Y. Zhu, J. AMS 9, 1996, 4.3), in the Mason-Tuite normalization without
factors 2 pi i, writes Z of a label v = g_{-n} u through the square-bracket
modes of the generator g, the scalar o(g) on each M(w) (mu on F_mu, L_0 on
Vir_c) and the q-series E_2k(q) = -B_2k/(2k)! + (2/(2k-1)!) sum sigma_{2k-1}(n)
q^n times traces of labels of lower weight, down to Z(vacuum)_n = dim M(n),
which ``models.partition_count`` counts without listing a weight space;
o(g) is read on the one label (w,) of M(w), or () at w = 0.
Each Z is a ``TruncSeries`` in q, integer numerators over one denominator:
the linear combinations are its ``scale`` and ``+``, each reduced once, and
each E_2k Z product is one ``series_mul``.  Z is memoized per (module,
label), a longer window serving a shorter one through ``truncate``, and
``torus_character`` hands its Z to the SewnSeries as it is.  A
contragredient reads its base: Z_{W'}(v) = Z_W(theta v), theta v the sum of
v's ``gamma_twist`` vectors.

The two-sided residue identity moves a vertex-operator insertion from
the M side of the dual-basis sum to the M' side, where it reappears
twisted by U(gamma_1) = e^{L_1} (-1)^{Ltilde0} with the roles of the two
local sewing coordinates exchanged.

Sewn series s_j with one offset solve q d/dq S = A S for S = diag(s_j),
with A diagonal: A_jj = (q d/dq s_j) / s_j, an exact series log-derivative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .blocks import BlockFunctional, vertex_block
from .graded import vec_add_into, weight_of
from .models import (CapError, DualModule, Module, contragredient, gamma_twist,
                     partition_count)
from .series import BivarSeries, QExpansion, TruncSeries, _series, series_mul

__all__ = [
    "SewableBlock",
    "SewnSeries",
    "sew",
    "torus_character",
    "normalize_character",
    "two_sided_identity_check",
    "sewn_ode_witness",
    "character_block",
]

F0 = Fraction(0)
F1 = Fraction(1)


class SewableBlock:
    """A block functional whose last two slots carry M and its declared
    contragredient M' (the pairing slot pair), plus the sewing cap K."""

    def __init__(self, phi: BlockFunctional, K: int):
        if len(phi.modules) < 2:
            raise ValueError("need at least the M and M' slots")
        mp = phi.modules[-1]
        if not isinstance(mp, DualModule) or mp.base is not phi.modules[-2]:
            raise ValueError("last two slots must be M and its contragredient")
        if K < 0:
            raise ValueError(f"order K = {K} must be >= 0")
        if phi.caps[-1] < K or phi.caps[-2] < K:
            raise CapError(f"sewing cap {K} exceeds the declared slot caps")
        self.phi = phi
        self.module = phi.modules[-2]
        self.K = K

    def __repr__(self):
        return f"SewableBlock({self.phi!r}, K={self.K})"


class SewnSeries:
    """The sewn q-series ``standard``, offset delta (L0 weighting); the
    Ltilde0 weighting has the same coefficients at offset 0."""

    def __init__(self, coeffs, delta):
        self.delta = Fraction(delta)
        self.standard = QExpansion(self.delta, coeffs)

    @property
    def coeffs(self):
        return self.standard.coeffs

    def __eq__(self, other):
        if not isinstance(other, SewnSeries):
            return NotImplemented
        return self.delta == other.delta and self.standard == other.standard

    def __repr__(self):
        return f"SewnSeries(delta={self.delta}, coeffs={list(self.coeffs)})"


def sew(psi: SewableBlock, w_vecs) -> SewnSeries:
    """Evaluate the sewing series on the fixed outer insertions w_vecs:
    coefficient n is psi(w (x) P(n)|> (x) <|), for n = 0..psi.K."""
    module = psi.module
    coeffs = []
    for n in range(psi.K + 1):
        total = F0
        for label in module.basis_at(n):
            total += psi.phi(*w_vecs, {label: F1}, {label: F1})
        coeffs.append(total)
    return SewnSeries(coeffs, module.delta)


def character_block(module: Module, K: int) -> SewableBlock:
    """The self-sewable 3-point fixture on (P^1; 1, 0, infinity) with the
    vacuum-module slot at 1 and the (M, M') pair at (0, infinity)."""
    vb = vertex_block(module, F1, K)
    # reorder slots: vertex_block is (w@0, v@1, w'@inf); sewing wants the
    # paired slots last, so expose (v, w, w')
    phi = BlockFunctional(vb.points, [module.voa, module, vb.modules[2]],
                          [K, K, K],
                          lambda v, w, wp: vb(w, v, wp),
                          name=f"character[{module.name}]")
    return SewableBlock(phi, K)


def torus_character(module: Module, v, K: int) -> SewnSeries:
    """Sigma_n tr_{M(n)} Y_M(v)_{wt v - 1} q^n (+ offset Delta_M in the
    standard grading); for v = vacuum this is the graded character.
    Each label's trace Z comes from Zhu's recursion (``_zhu``) in the
    Mason-Tuite normalization, E_2k(q) = -B_2k/(2k)! + O(q) with no factors
    2 pi i, as a q-series memoized per (module, label), and v's combination
    of them is the SewnSeries' series; no weight block is filled.  K < 0
    and an inhomogeneous insertion raise ValueError."""
    if K < 0:
        raise ValueError(f"order K = {K} must be >= 0")
    if isinstance(v, tuple):
        v = {v: F1}
    if len({weight_of(l) for l in v}) != 1:
        raise ValueError("insertion must be homogeneous")
    return SewnSeries(sum(_trace(module, l, K).scale(a) for l, a in v.items()), module.delta)


# ---------------------------------------------------------------------------
# Zhu's recursion for the torus traces


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> tuple:
    """B_k / k! for k = 0..n: the coefficients of z / (e^z - 1), the
    reciprocal of (e^z - 1) / z = sum z^k / (k + 1)!."""
    base = TruncSeries("z", 0, [Fraction(1, factorial(k + 1)) for k in range(n + 1)])
    return base.reciprocal().coeffs


@lru_cache(maxsize=None)
def _bracket_coeff(wt: int, p: int, m: int) -> Fraction:
    """The coefficient of the round mode a_m in the square-bracket mode a[p]
    of a weight-wt vector a, for Y[a, z] = Y(e^{z L_0} a, e^z - 1):
    [z^{-p-1}] e^{z wt} (e^z - 1)^{-m-1}
    = [z^{m-p}] e^{z wt} (z / (e^z - 1))^{m+1}, zero for m < p."""
    d = m - p
    if d < 0:
        return F0
    e = TruncSeries("z", 0, [Fraction(wt ** i, factorial(i)) for i in range(d + 1)])
    return series_mul(e, TruncSeries("z", 0, _bernoulli(d)) ** (m + 1)).coeff(d)


@lru_cache(maxsize=None)
def _eisenstein(k: int, K: int) -> TruncSeries:
    """E_2k(q) to q^K in the Mason-Tuite normalization of Zhu's recursion:
    -B_2k / (2k)! + (2 / (2k - 1)!) sum_{n>=1} sigma_{2k-1}(n) q^n, kept
    as one q-series so that its integer form is made once per (k, K)."""
    sigma = [0] * (K + 1)
    for d in range(1, K + 1):
        for n in range(d, K + 1, d):
            sigma[n] += d ** (2 * k - 1)
    f = factorial(2 * k - 1)
    return TruncSeries("q", 0, (-_bernoulli(2 * k)[2 * k],)
                       + tuple(Fraction(2 * s, f) for s in sigma[1:]))


def _trace(module: Module, label: tuple, K: int) -> TruncSeries:
    """Z(label) = sum_{n<=K} tr_{M(n)} o(label) q^n with o(v) = v_{wt v - 1},
    as a q-series ``TruncSeries`` on [0, K + 1), memoized per (module, label);
    a longer memo serves a shorter window through ``truncate``.
    Z(vacuum)_n = dim M(n) is counted by ``partition_count``, not listed.  On a
    contragredient every term of U(gamma) v keeps the weight and the transpose
    keeps the trace, so Z_{W'}(v) = Z_W(theta v), theta v the sum of v's
    ``gamma_twist`` vectors."""
    hit = module._traces.get(label)
    if hit is not None and hit.order > K:
        return hit.truncate(K + 1)
    if isinstance(module, DualModule):
        z = sum(_trace(module.base, l, K).scale(a)
                for _, vec in gamma_twist(label, module) for l, a in vec.items())
    elif not label:
        wg = module.voa.gen_weight
        z = _series("q", 0, [partition_count(n, wg) for n in range(K + 1)], 1, K + 1)
    else:
        z = _zhu(module, label, K)
    module._traces[label] = z
    return z


def _zhu(module: Module, label: tuple, K: int) -> TruncSeries:
    """Z(v) for v = g_{-n} u, the ``peel`` split of a non-vacuum label, by
    Zhu's recursion (Zhu 1996, 4.3; Mason-Tuite normalization, no 2 pi i):

        Z(g[-n]u) = delta_{n,1} tr o(g) o(u) q^{L_0}
                  + sum_{k>=1} (-1)^{n-1} C(2k-1, n-1) E_2k(q) Z(g[2k-n]u),

    the a[-1] case moved to a[-n] by (L[-1]a)[m] = -m a[m-1].  The bracket
    mode g[-n]u is g_{-n}u = v plus terms of lower weight, so Z(v) is
    Z(g[-n]u) minus the traces of those terms.  o(g) is the scalar s_w of
    Y_M(g)_{wt g - 1} on M(w) (mu on F_mu, L_0 = w + Delta on Vir_c).  Every
    other trace is of a label of lower weight.  The traces are summed as
    series, by ``scale`` and ``+``."""
    voa = module.voa
    wg = voa.gen_weight
    j, u = voa.peel(label)
    n = -j
    top = wg + weight_of(u) - 1  # g_m u = 0 for m > top
    ys = {}  # the nonzero Z(g_m u) for the round modes m > -n
    # (each ``sum`` starts from the int 0, which a series absorbs)
    for m in range(1 - n, top + 1):
        y = sum(_trace(module, l, K).scale(a) for l, a in voa.gen_apply(m, u).items())
        if y:
            ys[m] = y
    # minus the lower terms of g[-n]u, from the zero series on [0, K + 1)
    z = sum((y.scale(-_bracket_coeff(wg, -n, m)) for m, y in ys.items()),
            _series("q", 0, [0] * (K + 1), 1, K + 1))
    if n == 1:  # tr o(g) o(u) on M(w): o(g) is the scalar s_w, read on one label
        s = [F0] * (K + 1)
        for w, t in enumerate(_trace(module, u, K).coeffs):
            if t:  # M(w) is nonzero, so it holds the label (w,), or () at w = 0
                rep = (w,) if w else ()
                s[w] = module.gen_apply(wg - 1, rep).get(rep, F0) * t
        z += TruncSeries("q", 0, s)
    # k from n // 2 + 1: for even n the k = n / 2 term is E_n Z(g[0]u), and
    # Z(a[0]b) = 0 for all a, b (Zhu 1996)
    for k in range(n // 2 + 1, (top + n) // 2 + 1):
        p = 2 * k - n
        x = sum(y.scale(_bracket_coeff(wg, p, m)) for m, y in ys.items() if m >= p)  # Z(g[p]u)
        if x:
            b = comb(2 * k - 1, n - 1)
            z += series_mul(_eisenstein(k, K), x).scale(-b if n % 2 == 0 else b)
    return z


def normalize_character(s: SewnSeries, c) -> QExpansion:
    """Multiply the standard series by q^{-c/24}: the modular-ready
    character with offset Delta_M - c/24."""
    return s.standard.shift_offset(-Fraction(c) / 24)


# ---------------------------------------------------------------------------
# the two-sided residue identity


def two_sided_identity_check(u, f: BivarSeries, module: Module, K: int) -> bool:
    """Both residues of the moved vertex insertion against the dual-basis
    sum, as elements of (M (x) M')[[q]] to order K; exact equality.

    Left side inserts Y_M(xi^{L0} u, xi) on the M factor against
    f(xi, q/xi) dxi/xi; right side inserts Y_{M'}(w^{L0} U(gamma_1) u, w)
    on the M' factor against f(q/w, w) dw/w.
    """
    if isinstance(u, tuple):
        u = {u: F1}
    mp = contragredient(module)
    # per q-power, vectors keyed by (M label, M' label) pairs
    lhs = [dict() for _ in range(K + 1)]
    rhs = [dict() for _ in range(K + 1)]

    for (r, s, frs) in f.monomials():
        # left: mode k = wt(u') - 1 + r - s on M(n), q-power n + s
        for ul, uc in u.items():
            k = weight_of(ul) - 1 + r - s
            for n in range(0, K + 1 - s):
                for label, img in module.mode_block(ul, k, n).items():
                    vec_add_into(lhs[n + s], {(l2, label): a for l2, a in img.items()},
                                 frs * uc)
        # right: u twisted by U(gamma_1), mode k = wt - 1 + s - r on M'(n),
        # q-power n + r
        for _, vec in gamma_twist(u, module):
            for ul, uc in vec.items():
                k = weight_of(ul) - 1 + s - r
                for n in range(0, K + 1 - r):
                    for label, img in mp.mode_block(ul, k, n).items():
                        vec_add_into(rhs[n + r], {(label, l2): a for l2, a in img.items()},
                                     frs * uc)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the sewn-series ODE witness


def sewn_ode_witness(series, K: int):
    """Find the matrix series A(q) with q d/dq S = A S to order K, where
    S = diag(s_1, ..., s_N) holds the given sewn series (common offset
    lambda).  A is diagonal too: column j is the series log-derivative

        a_j = (q d/dq s_j) / s_j,

    one reciprocal and one product of q-series to order K.

    Returns the list [A_0, ..., A_K] of exact N x N matrices; raises
    ValueError naming K when K < 0, and naming the rank deficiency when S_0
    is singular (a cap artifact: the chosen family does not span at
    order 0)."""
    cols = [s.standard if isinstance(s, SewnSeries) else s for s in series]
    if not cols:
        raise ValueError("empty family")
    lam = cols[0].offset
    if any(c.offset != lam for c in cols):
        raise ValueError("family members have mixed offsets")
    if K < 0:
        raise ValueError(f"order K = {K} must be >= 0")
    if K >= min(c.order for c in cols):
        raise CapError(f"order {K} beyond the computed coefficients")
    if any(not c.coeffs[0] for c in cols):
        raise ValueError("rank deficiency: S_0 is singular at this cap")
    logs = []
    for c in cols:
        s = c.series.truncate(K + 1)
        ds = QExpansion(lam, s).q_ddq().series
        a = ds * s.reciprocal()
        # residual check: a_j s_j = q d/dq s_j to order K, exactly
        if (a * s).coeffs != ds.coeffs:
            raise AssertionError("ODE witness failed its residual check")
        logs.append(a.coeffs)
    N = len(cols)
    return [[[logs[j][n] if i == j else F0 for j in range(N)] for i in range(N)]
            for n in range(K + 1)]
