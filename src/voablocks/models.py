"""Concrete CFT-type vertex operator algebras with computable modes.

Two models:

* rank-1 Heisenberg (free boson) at c = 1, with Fock modules F_mu whose
  basis is indexed by partitions ``alpha_{-n1} ... alpha_{-nk} |mu>``;
  bracket ``[alpha_m, alpha_n] = m delta_{m,-n}``, conformal vector
  ``(1/2) alpha_{-1}^2 1``, conformal weight Delta = mu^2/2;

* the universal Virasoro VOA at rational central charge c, with basis
  ``L_{-n1} ... L_{-nk} 1`` for partitions into parts >= 2.

Modes come in weight blocks: ``Module.mode_block(v, h, wt)`` is Y_W(v)_h
on every basis label of weight wt, memoized per (v label, h, wt).  Every
basis vector of V peels as v = Y(g)_j u for the generating field g (alpha
resp. the conformal vector), and the m = 0 case of the Jacobi identity
rewrites a block of v through generator modes and blocks of the shorter u:

    Y_W(Y(g)_j u)_h = sum_l (-1)^l C(j,l) g_{j-l} u_{h+l}
                    - sum_l (-1)^{l+j} C(j,l) u_{j+h-l} g_l

Both sums terminate because modes kill everything below weight 0.  A block
is summed as integer numerators over one common denominator, which grows to
an lcm only when a term needs it, and its entries become Fractions once, at
the end of the fill (the common-denominator representation of exact
polynomial arithmetic, as in ``series.series_mul``).
Generator modes act directly: alpha_k by exact bracket algebra on partition
labels, L_k by PBW straightening through the Virasoro bracket.  The models
also give L_n per label, by PBW resp. the Sugawara form; ``Module.L_apply``,
Y(conformal vector)_{n+1} through the blocks, stays the reference and the
L_n of contragredients.

A contragredient block is the transpose of base blocks through the twist
U(gamma_{1/w}) = e^{w^{-1} L_1} (-w^2)^{Ltilde0} (Frenkel-Huang-Lepowsky,
sections 5.2-5.3): a term c u w^e of U(gamma_{1/w}) v adds c Y_W(u)_k^t
with k = e - n - 2 to Y_{W'}(v)_n.  ``gamma_twist`` builds the twist as
(w-exponent, vector) terms; it is the one place that applies L_1, and the
blocks module reuses it at infinity.  Each VOA label's twist is built once
and kept on the VOA; a vector's twist is the combination of its labels'.
Each module has one contragredient, ``contragredient(W)``, built on first
use and kept on W, so every caller shares one W' memo.  The contragredient
is involutive, (W')' = W on the same labels, so ``contragredient(W')`` is W
itself and no double transpose is ever filled.

Blocks, their images and the twist vectors are stored as read-only
mappings, so a caller that mutates a returned image cannot corrupt later
results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType

from .graded import vec_add_into, vec_is_zero, vec_max_weight, weight_of
from .virasoro import exp_terms, gbinom, vir_bracket

__all__ = [
    "partitions",
    "CapError",
    "Module",
    "VOAModel",
    "HeisenbergVOA",
    "FockModule",
    "VirasoroVOA",
    "DualModule",
    "heisenberg_model",
    "fock_module",
    "virasoro_model",
    "contragredient",
    "gamma_twist",
    "ModeOperator",
    "mode_matrix",
    "JacobiReport",
    "jacobi_check",
]

F0 = Fraction(0)
F1 = Fraction(1)


@lru_cache(maxsize=None)
def partitions(n: int, min_part: int = 1, max_part: int | None = None) -> tuple:
    """All partitions of n with parts in [min_part, max_part], as
    non-increasing tuples in descending lexicographic order."""
    if n == 0:
        return ((),)
    if n < min_part:
        return ()
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, min_part - 1, -1):
        for rest in partitions(n - first, min_part, first):
            out.append((first,) + rest)
    return tuple(out)


class CapError(Exception):
    """A computed vector needs weights above the requested cap."""


def _rescale(nums: dict, den: int, d: int) -> int:
    """Bring the integer images ``nums`` (over ``den``) onto lcm(den, d);
    returns the new common denominator."""
    new = lcm(den, d)
    s = new // den
    for img in nums.values():
        for k in img:
            img[k] *= s
    return new


class Module:
    """Common machinery for graded modules with a single generating field.

    Subclasses provide ``basis_at`` and ``gen_apply`` (or override ``_block``).
    ``mode_block`` memoizes the blocks per (v label, h, weight); ``mode_apply``
    and ``L_apply`` read them.  Vectors are label -> coefficient dicts.
    """

    voa: "VOAModel"
    delta: Fraction
    name: str

    def __init__(self):
        self._blocks: dict = {}
        self._dual: Module | None = None

    # -- subclass interface --------------------------------------------

    def basis_at(self, n: int) -> tuple:
        raise NotImplementedError

    def gen_apply(self, k: int, label: tuple) -> dict:
        """Action of the generator mode Y_W(g)_k on a basis label."""
        raise NotImplementedError

    # -- shared ---------------------------------------------------------

    def mode_apply(self, v, h: int, w: dict) -> dict:
        """Y_W(v)_h w for v a VOA label or label->coefficient dict."""
        if isinstance(v, tuple):
            v = {v: F1}
        out: dict = {}
        for vl, vc in v.items():
            for wl, wc in w.items():
                t = self.mode_block(vl, h, weight_of(wl)).get(wl)
                if t:
                    vec_add_into(out, t, vc * wc)
        return out

    def mode_block(self, vl: tuple, h: int, wt: int) -> MappingProxyType:
        """Y_W(v)_h on the basis labels of weight wt, for v a VOA label:
        a read-only {label: read-only image} of the nonzero images."""
        key = (vl, h, wt)
        blk = self._blocks.get(key)
        if blk is None:
            blk = self._blocks[key] = MappingProxyType({
                wl: MappingProxyType(img) for wl, img in self._block(vl, h, wt).items() if img})
        return blk

    def _block(self, vl: tuple, h: int, wt: int) -> dict:
        """The block as {label: image}, by the Jacobi recursion.

        The images are summed as integer numerators over one running common
        denominator ``den`` of the block: a term b a g (b the integer binomial
        with its sign, a and g rationals) adds b a.numerator g.numerator
        scaled to ``den``, and ``den`` grows to an lcm, rescaling the stored
        numerators, only when a term's denominator does not divide it.  An
        entry whose sum reaches 0 is removed, as ``vec_add_into`` does, so
        the images keep its key order.  One Fraction is built per entry."""
        res: dict = {wl: {} for wl in self.basis_at(wt)}
        if not vl:
            return {wl: {wl: F1} for wl in res} if h == -1 else res
        j, rest = self.voa.peel(vl)
        gen_apply = self.gen_apply
        den = 1
        # first sum: g_{j-l} u_{h+l}, dies once u_{h+l} hits weight < 0
        for l in range(0, weight_of(rest) + wt - h):
            b = gbinom(j, l)
            coef = -b if l % 2 else b
            for wl, t in self.mode_block(rest, h + l, wt).items():
                img = res[wl]
                for tl, tc in t.items():
                    tn, td = coef * tc.numerator, tc.denominator
                    for gl, gc in gen_apply(j - l, tl).items():
                        d = td * gc.denominator
                        if den % d:
                            den = _rescale(res, den, d)
                        s = img.get(gl, 0) + tn * gc.numerator * (den // d)
                        if s:
                            img[gl] = s
                        else:
                            img.pop(gl, None)
        # second sum: u_{j+h-l} g_l, dies once g_l hits weight < 0
        for l in range(0, self.voa.gen_weight + wt):
            b = gbinom(j, l)
            blk = self.mode_block(rest, j + h - l, wt + self.voa.gen_weight - 1 - l)
            if not blk:
                continue
            coef = b if (l + j) % 2 else -b
            for wl, img in res.items():
                for gl, gc in gen_apply(l, wl).items():
                    t = blk.get(gl)
                    if t:
                        gn, gd = coef * gc.numerator, gc.denominator
                        for tl, tc in t.items():
                            d = gd * tc.denominator
                            if den % d:
                                den = _rescale(res, den, d)
                            s = img.get(tl, 0) + gn * tc.numerator * (den // d)
                            if s:
                                img[tl] = s
                            else:
                                img.pop(tl, None)
        if den == 1:  # integer blocks (the Heisenberg VOA): Fraction(n) skips the gcd
            return {wl: {k: Fraction(n) for k, n in img.items()} for wl, img in res.items()}
        return {wl: {k: Fraction(n, den) for k, n in img.items()} for wl, img in res.items()}

    def L_apply(self, n: int, w: dict) -> dict:
        """L_n = Y_W(conformal vector)_{n+1}."""
        return self.mode_apply(self.voa.conformal_vector, n + 1, w)


class VOAModel(Module):
    """A VOA is in particular a module over itself (the vacuum module)."""

    c: Fraction
    gen_weight: int
    conformal_vector: dict
    vacuum: tuple = ()

    def __init__(self):
        super().__init__()
        self._twists: dict = {}  # label -> memoized gamma_twist terms

    def peel(self, label: tuple) -> tuple[int, tuple]:
        """Split a basis label as v = Y(g)_j u; returns (j, label of u)."""
        raise NotImplementedError

    def L_apply(self, n: int, w: dict) -> dict:
        """L_n label by label through the model's own ``_L(n, label)``."""
        out: dict = {}
        for label, c in w.items():
            vec_add_into(out, self._L(n, label), c)
        return out


class HeisenbergVOA(VOAModel):
    """Rank-1 free boson: basis alpha_{-n1}...alpha_{-nk} 1, c = 1."""

    def __init__(self):
        super().__init__()
        self.voa = self
        self.name = "heisenberg"
        self.c = F1
        self.delta = F0
        self.mu = F0
        self.gen_weight = 1
        self.conformal_vector = {(1, 1): Fraction(1, 2)}
        self._L_cache: dict = {}

    def basis_at(self, n: int) -> tuple:
        return partitions(n)

    def peel(self, label: tuple) -> tuple[int, tuple]:
        return -label[0], label[1:]

    def gen_apply(self, k: int, label: tuple) -> dict:
        # alpha_k on a partition word over the highest-weight vector
        if k < 0:
            return {tuple(sorted(label + (-k,), reverse=True)): F1}
        if k == 0:
            return {label: self.mu} if self.mu else {}
        cnt = label.count(k)
        if not cnt:
            return {}
        shorter = list(label)
        shorter.remove(k)
        return {tuple(shorter): Fraction(k * cnt)}

    def _L(self, n: int, label: tuple) -> MappingProxyType:
        """Sugawara form with annihilators to the right:
        L_n = sum_{b > n/2} alpha_{n-b} alpha_b + [n even] alpha_{n/2}^2 / 2,
        where alpha_b kills the label once b exceeds its weight."""
        key = (n, label)
        hit = self._L_cache.get(key)
        if hit is not None:
            return hit
        terms = [(b, F1) for b in range(n // 2 + 1, weight_of(label) + 1)]
        if n % 2 == 0:
            terms.append((n // 2, Fraction(1, 2)))
        res: dict = {}
        for b, c in terms:
            for l1, c1 in self.gen_apply(b, label).items():
                vec_add_into(res, self.gen_apply(n - b, l1), c * c1)
        res = self._L_cache[key] = MappingProxyType(res)
        return res


class FockModule(HeisenbergVOA):
    """Fock module F_mu: same partition basis, alpha_0 acts by mu,
    conformal weight Delta = mu^2/2."""

    def __init__(self, voa: HeisenbergVOA, mu):
        super().__init__()
        self.voa = voa
        self.mu = Fraction(mu)
        self.delta = self.mu ** 2 / 2
        self.name = f"fock({self.mu})"


class VirasoroVOA(VOAModel):
    """Universal Virasoro VOA: basis L_{-n1}...L_{-nk} 1 with parts >= 2,
    quotiented only by L_{-1} 1 = 0."""

    def __init__(self, c):
        super().__init__()
        self.voa = self
        self.c = Fraction(c)
        self.delta = F0
        self.name = f"virasoro(c={self.c})"
        self.gen_weight = 2
        self.conformal_vector = {(2,): F1}
        self._L_cache: dict = {}

    def basis_at(self, n: int) -> tuple:
        return partitions(n, min_part=2)

    def peel(self, label: tuple) -> tuple[int, tuple]:
        # L_{-n} = Y(conformal vector)_{-n+1}
        return -label[0] + 1, label[1:]

    def gen_apply(self, k: int, label: tuple) -> dict:
        return self._L(k - 1, label)

    def _L(self, n: int, label: tuple) -> MappingProxyType:
        """L_n on a PBW word, straightened through the Virasoro bracket."""
        key = (n, label)
        hit = self._L_cache.get(key)
        if hit is not None:
            return hit
        if not label:
            res = {(-n,): F1} if n <= -2 else {}
        elif n <= -label[0]:
            res = {(-n,) + label: F1}
        else:
            lam = label[0]
            rest = label[1:]
            res: dict = {}
            # L_n L_{-lam} = L_{-lam} L_n + (n+lam) L_{n-lam} + central
            for l2, c2 in self._L(n, rest).items():
                vec_add_into(res, self._L(-lam, l2), c2)
            inner = self._L(n - lam, rest)
            if inner:
                vec_add_into(res, inner, Fraction(n + lam))
            if n == lam:
                _, central = vir_bracket(n, -lam, self.c)
                if central:
                    vec_add_into(res, {rest: F1}, central)
        res = self._L_cache[key] = MappingProxyType(res)
        return res


class DualModule(Module):
    """Contragredient module on the same labels, modes via the transpose
    through the finite twist ``gamma_twist``."""

    def __init__(self, base: Module):
        super().__init__()
        self.base = base
        self._dual = base
        self.voa = base.voa
        self.delta = base.delta
        self.name = base.name + "'"

    def basis_at(self, n: int) -> tuple:
        return self.base.basis_at(n)

    def _block(self, vl: tuple, h: int, wt: int) -> dict:
        """Transpose of base blocks through U(gamma_{1/w}): the twist term at
        w^e reads the base block at mode e - h - 2 and source weight
        wt + wt(v) - h - 1; L_1^0 v first, which fixes the images' key order."""
        src = wt + weight_of(vl) - h - 1
        res: dict = {wl: {} for wl in self.basis_at(wt)}
        if src >= 0:
            for e, lv in reversed(gamma_twist(vl, self)):
                for ul, uc in lv.items():
                    for wl2, img in self.base.mode_block(ul, e - h - 2, src).items():
                        for wl, c in img.items():
                            vec_add_into(res[wl], {wl2: c}, uc)
        return res


def gamma_twist(v, module: Module) -> list:
    """U(gamma_{1/w}) v = e^{w^{-1} L_1} (-w^2)^{Ltilde0} v on the VOA of
    ``module``, as a sorted list of (w-exponent, vector) pairs: a Laurent
    polynomial in w with VOA-vector coefficients.  The sum is finite because
    L_1 lowers the weight by one.

    The twist of each VOA label is built once and kept on the VOA, with
    read-only vectors; a label returns its memoized terms, and a vector the
    linear combination of its label twists in fresh dicts."""
    voa = module.voa
    if isinstance(v, tuple):
        return list(_label_twist(voa, v))
    out: dict[int, dict] = {}
    for label, c in v.items():
        for e, vec in _label_twist(voa, label):
            vec_add_into(out.setdefault(e, {}), vec, c)
    return sorted((e, vec) for e, vec in out.items() if vec)


def _label_twist(voa: "VOAModel", label: tuple) -> tuple:
    """The memoized twist of one VOA label: (-1)^k label at w^{2k}, k its
    weight, then the term L_1^m / m! of e^{w^{-1} L_1} at w^{2k-m}."""
    tw = voa._twists.get(label)
    if tw is None:
        k = weight_of(label)
        terms = exp_terms(lambda x: voa.L_apply(1, x), {label: -F1 if k % 2 else F1})
        tw = voa._twists[label] = tuple(
            (2 * k - m, MappingProxyType(term)) for m, term in enumerate(terms))[::-1]
    return tw


# ---------------------------------------------------------------------------
# public constructors


def heisenberg_model() -> HeisenbergVOA:
    return HeisenbergVOA()


def fock_module(voa: HeisenbergVOA, mu) -> FockModule:
    return FockModule(voa, mu)


def virasoro_model(c) -> VirasoroVOA:
    return VirasoroVOA(c)


def contragredient(module: Module) -> Module:
    """The contragredient W' of W: one per module, built on first use and
    kept on W, so every caller reads the same W' memo.  (W')' is W itself."""
    if module._dual is None:
        module._dual = DualModule(module)
    return module._dual


# ---------------------------------------------------------------------------
# mode matrices


class ModeOperator:
    """Matrix of Y_W(v)_n between capped weight windows, by basis columns."""

    def __init__(self, module: Module, v, n: int, cap: int, columns: dict):
        self.module = module
        self.v = v
        self.n = n
        self.cap = cap
        self.columns = columns  # src label -> image dict

    def apply(self, w: dict) -> dict:
        out: dict = {}
        for label, c in w.items():
            vec_add_into(out, self.columns.get(label, {}), c)
        return out

    def entries(self):
        for src, img in self.columns.items():
            for dst, c in img.items():
                yield (dst, src, c)


def mode_matrix(module: Module, v, n: int, cap: int) -> ModeOperator:
    """Materialize Y_W(v)_n on all basis labels of weight <= cap.

    Raises CapError when a nonzero image component lands above the cap
    (never silently truncates).
    """
    columns = {}
    for wt in range(cap + 1):
        for wl in module.basis_at(wt):
            img = module.mode_apply(v, n, {wl: F1})  # exact zeros already dropped
            over = vec_max_weight(img)
            if over > cap:
                raise CapError(
                    f"mode image needs weight {over} > cap {cap} (source {wl}, mode {n})")
            columns[wl] = img
    return ModeOperator(module, v, n, cap, columns)


# ---------------------------------------------------------------------------
# Jacobi identity checker


class JacobiReport:
    def __init__(self, passed: bool, l_ranges: dict, witness: dict | None):
        self.passed = passed
        self.l_ranges = l_ranges
        self.witness = witness

    def __bool__(self):
        return self.passed

    def __repr__(self):
        status = "pass" if self.passed else f"FAIL witness={self.witness}"
        return f"JacobiReport({status}, l_ranges={self.l_ranges})"


def jacobi_check(module: Module, u, v, w: dict, m: int, n: int, h: int) -> JacobiReport:
    """Exact check of the mode Jacobi identity applied to w:

    sum_l C(m,l) Y(Y(u)_{n+l} v)_{m+h-l}
      = sum_l (-1)^l C(n,l) Y(u)_{m+n-l} Y(v)_{h+l}
      - sum_l (-1)^{l+n} C(n,l) Y(v)_{n+h-l} Y(u)_{m+l}

    All three sums are finite by lower truncation; the report records the
    l-ranges actually summed.
    """
    voa = module.voa
    if isinstance(u, tuple):
        u = {u: F1}
    if isinstance(v, tuple):
        v = {v: F1}
    wt_u = vec_max_weight(u)
    wt_v = vec_max_weight(v)
    wt_w = vec_max_weight(w)

    lhs: dict = {}
    lmax_L = wt_u + wt_v - 1 - n  # Y(u)_{n+l} v = 0 beyond
    for l in range(0, max(lmax_L, -1) + 1):
        b = gbinom(m, l)
        if b == 0:
            continue
        inner = voa.mode_apply(u, n + l, v)
        if inner:
            vec_add_into(lhs, module.mode_apply(inner, m + h - l, w), Fraction(b))

    rhs: dict = {}
    lmax_1 = wt_v + wt_w - 1 - h  # Y(v)_{h+l} w = 0 beyond
    for l in range(0, max(lmax_1, -1) + 1):
        b = gbinom(n, l)
        if b == 0:
            continue
        t = module.mode_apply(v, h + l, w)
        if t:
            coef = Fraction(-b if l % 2 else b)
            vec_add_into(rhs, module.mode_apply(u, m + n - l, t), coef)
    lmax_2 = wt_u + wt_w - 1 - m  # Y(u)_{m+l} w = 0 beyond
    for l in range(0, max(lmax_2, -1) + 1):
        b = gbinom(n, l)
        if b == 0:
            continue
        t = module.mode_apply(u, m + l, w)
        if t:
            coef = Fraction(b if (l + n) % 2 else -b)
            vec_add_into(rhs, module.mode_apply(v, n + h - l, t), coef)

    diff = vec_add_into(dict(lhs), rhs, Fraction(-1))
    passed = vec_is_zero(diff)
    ranges = {"lhs": (0, max(lmax_L, -1)), "rhs_uv": (0, max(lmax_1, -1)),
              "rhs_vu": (0, max(lmax_2, -1))}
    return JacobiReport(passed, ranges, None if passed else diff)
