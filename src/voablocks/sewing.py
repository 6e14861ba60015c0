"""Sewing of genus-0 blocks and torus characters.

Sewing pairs the last two slots of a block functional, which carry a
module M and its declared contragredient M', through the graded
dual-basis insertion weighted by q:

    (sew psi)(w_bullet) = sum_n  psi(w_bullet (x) P(n)|> (x) <|) q^n,

where P(n)|> (x) <| = sum_a m(n,a) (x) dual m(n,a).  A SewnSeries keeps
one QExpansion, the standard series in the L0 grading (offset Delta_M);
the Ltilde0 grading has the same coefficients at offset 0.  Self-sewing
the 3-pointed sphere (1, 0, infinity) yields the torus character: the
q-trace of the weight-preserving zero mode.

The two-sided residue identity moves a vertex-operator insertion from
the M side of the dual-basis sum to the M' side, where it reappears
twisted by U(gamma_1) = e^{L_1} (-1)^{Ltilde0} with the roles of the two
local sewing coordinates exchanged.

Sewn series s_j with one offset solve q d/dq S = A S for S = diag(s_j),
with A diagonal: A_jj = (q d/dq s_j) / s_j, an exact series log-derivative.
"""

from __future__ import annotations

from fractions import Fraction

from .blocks import BlockFunctional, vertex_block
from .graded import vec_add_into, weight_of
from .models import CapError, DualModule, Module, contragredient, gamma_twist
from .series import BivarSeries, QExpansion, _integer_form

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


def sew(psi: SewableBlock, w_vecs, K: int | None = None) -> SewnSeries:
    """Evaluate the sewing series on the fixed outer insertions w_vecs:
    coefficient n is psi(w (x) P(n)|> (x) <|), for n = 0..K; K < 0 raises
    ValueError."""
    if K is None:
        K = psi.K
    if K < 0:
        raise ValueError(f"order K = {K} must be >= 0")
    if K > psi.K:
        raise CapError(f"requested order {K} above the sewable cap {psi.K}")
    module = psi.module
    coeffs = []
    for n in range(K + 1):
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
    Each trace sums the diagonal of a memoized weight block on integer
    numerators over one common denominator.  K < 0 raises ValueError."""
    if K < 0:
        raise ValueError(f"order K = {K} must be >= 0")
    if isinstance(v, tuple):
        v = {v: F1}
    wts = {weight_of(l) for l in v}
    if len(wts) != 1:
        raise ValueError("insertion must be homogeneous")
    h = wts.pop() - 1  # the weight-preserving mode
    coeffs = []
    for n in range(K + 1):
        tr = F0
        for vl, vc in v.items():
            # the block's diagonal, summed on integer numerators
            nums, den = _integer_form([img[label] for label, img in
                                       module.mode_block(vl, h, n).items() if label in img])
            tr += vc * Fraction(sum(nums), den)
        coeffs.append(tr)
    return SewnSeries(coeffs, module.delta)


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
