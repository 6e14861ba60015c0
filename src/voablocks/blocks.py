"""Genus-0 conformal blocks on the Riemann sphere.

Marked points carry the local coordinates zeta - p (finite p) and 1/zeta
(at infinity).  Everything global is exact: meromorphic functions with
poles only at the marked points are stored in partial-fraction form

    f(zeta) = sum_k c_k zeta^k  +  sum_p sum_m a_{p,m} (zeta - p)^{-m},

so on P^1 such a function is the sum of its principal parts (Mittag-Leffler)
and gluing reads the global function straight off the Laurent tails.  The
solvability criterion is the strong residue theorem: the tails s_i glue to
a global function iff sum_i Res_i (s_i * lambda) = 0 for every 1-form
lambda with poles only at the marked points; a violated pairing is
reported as a witness of the shape lambda = zeta^m (zeta - z0)^n dzeta.

A ``RationalFunction`` keeps beside its Fraction maps the integer form its
constructor builds once: numerators over one denominator for the polynomial
part and for each pole part, whose point is kept as (num, den).  ``eval``
and the propagated evaluator read a value as an unreduced (num, den) pair
through one helper and build one Fraction per value; expansions and slot
tails come back as series born integer; ``strong_residue_check`` compares
crosswise on integer numerators and builds a Fraction only for a witness.
The constructor refuses a coefficient or point that is not an int or a
Fraction, naming it.

Block functionals are linear maps on tensors of capped module vectors.
Propagation inserts one extra VOA vector varying over the sphere; its
value at a rational point y is computed by assembling the Laurent tails of
the propagated section at every marked point, gluing them into the unique
global rational function, and evaluating at y.  That function does not
depend on y and is linear in every insertion, so ``propagate_block`` glues
one section per basis-label tuple, keeps it on the block it propagates and
evaluates the memoized sections at y; ``propagate_eval`` is the one-shot,
vector-level call.  At infinity the insertion
is twisted by U(gamma_{1/w}) = e^{w^{-1} L_1} (-w^2)^{Ltilde0}, the
``models.gamma_twist`` that also defines the contragredient action, and the
1-form bookkeeping uses dzeta = -w^{-2} dw.  ``hom_block`` checks that its
T: W1 -> W2' intertwines; ``identity_hom`` is the label pairing of W and W'.
The residue action of v on slot i is one series, the slot tail
sum_n phi(..., Y(v)_n w_i, ...) var^{-n-1} over the modes the slot cap can
see, so the slot caps set every window.  A tail skips each mode whose image
weight phi declares it does not read (``BlockFunctional.reads``); only
``identity_hom`` declares one, the weights of the other slot's labels, and
every other functional reads all.  Propagation glues these tails and
``block_property_check`` sums their residues against a global form g dzeta.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import comb, gcd, lcm

from .graded import vec_add_into, vec_is_zero, weight_of
from .models import Module, contragredient, gamma_twist
from .series import TruncSeries, _check_scalars, _integer_form, _series, series_mul

__all__ = [
    "INFINITY",
    "SpherePoints",
    "RationalFunction",
    "ResidueReport",
    "UnderdeterminedCap",
    "strong_residue_check",
    "rational_glue",
    "residue_pairing",
    "global_form_tails",
    "BlockFunctional",
    "IntertwinerError",
    "hom_block",
    "identity_hom",
    "three_point_block",
    "vertex_block",
    "propagate_eval",
    "propagate_block",
    "block_property_check",
]

F0 = Fraction(0)
F1 = Fraction(1)


class _Infinity:
    """The point at infinity on the sphere; local coordinate 1/zeta."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


class SpherePoints:
    """Ordered distinct marked points on P^1; at most one INFINITY, last."""

    def __init__(self, points):
        pts = [p if p is INFINITY else Fraction(p) for p in points]
        if len(set(pts)) != len(pts):
            raise ValueError("marked points must be distinct")
        if any(p is INFINITY for p in pts) and pts[-1] is not INFINITY:
            raise ValueError("INFINITY must come last")
        self.points = pts

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    @property
    def finite(self):
        return [p for p in self.points if p is not INFINITY]

    @property
    def has_infinity(self) -> bool:
        return bool(self.points) and self.points[-1] is INFINITY

    def __repr__(self):
        return f"SpherePoints({self.points})"


class RationalFunction:
    """Partial-fraction form: polynomial part + pole parts at finite points.
    ``poly`` and ``poles`` are read, never written: evaluation and expansion
    run on the integer form built from them (module docstring)."""

    def __init__(self, poly=None, poles=None):
        poly, poles = poly or {}, poles or {}
        _check_scalars([*poly.values(), *chain(*(part.values() for part in poles.values()))],
                       "a coefficient of a rational function")
        _check_scalars(poles, "a pole of a rational function")
        self.poly = {int(k): _rational(c) for k, c in poly.items() if c}
        if any(k < 0 for k in self.poly):
            raise ValueError("polynomial part needs exponents >= 0")
        self.poles = {}
        for p, part in poles.items():
            part = {int(m): _rational(c) for m, c in part.items() if c}
            if any(m < 1 for m in part):
                raise ValueError("pole orders must be >= 1")
            if part:
                self.poles[_rational(p)] = part
        self._poly_ints = _integer_form(_dense(self.poly, 0))
        self._pole_ints = [(p.numerator, p.denominator, *_integer_form(_dense(part, 1)))
                           for p, part in self.poles.items()]

    def __eq__(self, other):
        # the constructor drops zero coefficients, so equal functions have
        # equal maps
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.poly == other.poly and self.poles == other.poles

    def __hash__(self):
        return hash((tuple(sorted(self.poly.items())),
                     tuple(sorted((p, tuple(sorted(part.items())))
                                  for p, part in self.poles.items()))))

    # -- evaluation and expansion -------------------------------------

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        return Fraction(*self._value(x.numerator, x.denominator))

    def _value(self, a: int, b: int):
        """f(a/b), b > 0, as an unreduced pair (num, den), by Horner's rule:
        the polynomial part is sum_k n_k a^k b^(K-k) / (D b^K), and with
        x - p = u/v, u = a p_den - p_num b, a pole part is
        sum_m n_m v^m u^(M-m) / (D u^M)."""
        nums, den = self._poly_ints
        num, bk = 0, 1
        for n in reversed(nums):
            num = num * a + n * bk
            bk *= b
        num, den = num * b, den * bk
        for pn, pd, nums, pden in self._pole_ints:
            u, v = a * pd - pn * b, b * pd
            if not u:
                raise ZeroDivisionError(f"evaluation at the pole {Fraction(a, b)}")
            acc, uk = 0, 1
            for n in reversed(nums):
                acc = acc * v + n * uk
                uk *= u
            pden *= uk
            num, den = num * pden + acc * v * den, den * pden
        return num, den

    def expand_at(self, p, order: int, var: str = "t") -> TruncSeries:
        """Laurent expansion in the local coordinate t = zeta - p."""
        p = _rational(p)
        pn, pd = p.numerator, p.denominator
        nums, den = self._poly_ints
        k_top = len(nums) - 1
        # [t^j] of the polynomial part at zeta = t + p:
        # sum_k n_k C(k, j) p_num^(k-j) p_den^(K-k) / (D p_den^(K-j))
        terms = [(j, sum(n * comb(k, j) * pn ** (k - j) * pd ** (k_top - k)
                         for k, n in enumerate(nums[j:], j)), den * pd ** (k_top - j))
                 for j in range(min(k_top, order - 1) + 1)]
        poles = []
        for qn, qd, qnums, qden in self._pole_ints:
            if (qn, qd) == (pn, pd):
                terms += [(-m, n, qden) for m, n in enumerate(qnums, 1)]
            else:
                # (t + d)^{-m} = d^{-m} (1 - r t)^{-m} with d = p - q = dn/dd and r = -dd/dn
                dn, dd = pn * qd - qn * pd, pd * qd
                poles += [(n * dd ** m, qden * dn ** m, -dd, dn, m, 0)
                          for m, n in enumerate(qnums, 1) if n]
        return _expansion(terms, poles, order, var)

    def expand_at_infinity(self, order: int, var: str = "w") -> TruncSeries:
        """Laurent expansion in w = 1/zeta."""
        nums, den = self._poly_ints
        # (1/w - q)^{-m} = w^m (1 - q w)^{-m}
        return _expansion([(-k, n, den) for k, n in enumerate(nums)],
                          [(n, qden, qn, qd, m, m) for qn, qd, qnums, qden in self._pole_ints
                           for m, n in enumerate(qnums, 1) if n],
                          order, var)

    def expand_at_point(self, p, order: int, var: str | None = None) -> TruncSeries:
        if p is INFINITY:
            return self.expand_at_infinity(order, var or "w")
        return self.expand_at(p, order, var or "t")

    def __repr__(self):
        return f"RationalFunction(poly={self.poly}, poles={self.poles})"


def _rational(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _dense(cmap: dict, low: int) -> list:
    """The values of cmap at low, low + 1, ..., max(cmap), zeros filled in."""
    return [cmap.get(k, F0) for k in range(low, max(cmap, default=low - 1) + 1)]


def _expansion(terms: list, poles, order: int, var: str) -> TruncSeries:
    """The series known below var^order of the terms (e, num, den), each
    num/den x^e, plus the pole terms num/den (1 - r x)^{-m} x^shift given as
    (num, den, r_num, r_den, m, shift), whose x^{shift+e} coefficient
    C(m+e-1, e) r^e num/den is kept as integer factors from one e to the
    next.  The sum is integer numerators over one common denominator, from
    the lowest nonzero coefficient; its Fractions are built when read."""
    for num, den, rn, rd, m, shift in poles:
        binom = 1
        for e in range(0, order - shift):
            terms.append((e + shift, binom * num, den))
            binom = binom * (m + e) // (e + 1)
            num *= rn
            den *= rd
    terms = [t for t in terms if t[0] < order and t[1]]
    den = lcm(*(d for _, _, d in terms))
    acc: dict = {}
    for e, n, d in terms:
        acc[e] = acc.get(e, 0) + n * (den // d)
    floor = min((e for e, c in acc.items() if c), default=order)
    return _series(var, floor, [acc.get(e, 0) for e in range(floor, order)], den, order)


# ---------------------------------------------------------------------------
# strong residue theorem on P^1


class UnderdeterminedCap(Exception):
    """The declared windows are too short to certify the check."""


class _Witness:
    """A violated residue pairing lambda = zeta^m (zeta - z0)^n dzeta."""

    def __init__(self, kind, point, order, residue):
        self.kind = kind          # "pole" or "infinity"
        self.point = point
        self.order = order        # pole order m (kind=pole) or degree k
        self.residue = residue

    def __repr__(self):
        if self.kind == "infinity":
            return f"<lambda = zeta^{self.order} dzeta, residue sum {self.residue}>"
        return (f"<lambda = (zeta - {self.point})^(-{self.order}) dzeta, "
                f"residue sum {self.residue}>")


class ResidueReport:
    def __init__(self, passed, section, witness, conditions):
        self.passed = passed
        self.section = section      # RationalFunction on success
        self.witness = witness      # _Witness on failure
        self.conditions = conditions

    def __bool__(self):
        return self.passed


def _form_expansion(g: RationalFunction, p, order: int) -> TruncSeries:
    """Expansion of the 1-form g dzeta in the local coordinate at p; at
    infinity the Jacobian dzeta = -w^{-2} dw is included."""
    if p is INFINITY:
        s = g.expand_at_infinity(order + 2)
        return s.shift(-2).scale(-1).truncate(order)
    return g.expand_at(p, order)


def strong_residue_check(tails) -> ResidueReport:
    """Test the residue criterion for the declared tails; on pass, return
    the glued global meromorphic function as the section.

    ``tails`` maps each marked point (rational or INFINITY) to a
    TruncSeries in its local coordinate; the configuration must include
    INFINITY, which is visited last, after the finite points in the order
    of ``tails``.  A global function with poles only at the marked points is
    the sum of its principal parts, so the only candidate section f takes
    the pole parts of the finite tails and the polynomial part (constant
    included) of the tail at infinity.  The tails glue iff each one agrees
    with the re-expansion of f on its window.

    The conditions run over the spanning dual forms (zeta - p)^{-m} dzeta,
    1 <= m <= order_p, at each finite p in turn, then zeta^k dzeta,
    0 <= k <= order_inf - 2.  Since sum_p Res_p(f * lambda) = 0, pairing
    lambda with the tails equals pairing it with tail - f, which has no
    principal part anywhere; so only one coefficient of tail - f survives:
    exponent m - 1 at p, or k + 1 at infinity (with the sign of
    dzeta = -w^{-2} dw).  The first nonzero one is the witness.  Finite
    windows need order >= 0 and the window at infinity order >= 1, else
    UnderdeterminedCap names the short window.  Tails that are all zero
    glue to the zero section without re-expansion.
    """
    if INFINITY not in tails:
        raise ValueError("configurations must include the point at infinity")
    at_inf = tails[INFINITY]
    finite = [(p, tail) for p, tail in tails.items() if p is not INFINITY]
    points = finite + [(INFINITY, at_inf)]
    for p, tail in points:
        need = 1 if p is INFINITY else 0
        if tail.order < need:
            raise UnderdeterminedCap(
                f"tail at {p} has order {tail.order}; "
                f"the residue check needs order >= {need}")

    poles = {p: {m: tail.coeff(-m) for m in range(1, 1 - tail.floor)} for p, tail in finite}
    poly = {k: at_inf.coeff(-k) for k in range(0, 1 - at_inf.floor)}
    section = RationalFunction(poly, poles)

    if all(tail.is_zero() for _, tail in points):
        # the zero section re-expands to zero on every window
        conditions = sum(tail.order - (1 if p is INFINITY else 0) for p, tail in points)
        return ResidueReport(True, section, None, conditions)
    conditions = 0
    for p, tail in points:
        s = section.expand_at_point(p, tail.order)
        (ta, da), (sb, db) = tail._ints(), s._ints()
        for e in range(1 if p is INFINITY else 0, tail.order):
            conditions += 1
            # tail and s coefficients a / da and b / db, compared crosswise
            a = ta[e - tail.floor] * db if e >= tail.floor else 0
            b = sb[e - s.floor] * da if e >= s.floor else 0
            if a != b:
                d = Fraction(a - b, da * db)
                witness = (_Witness("infinity", INFINITY, e - 1, -d)
                           if p is INFINITY else _Witness("pole", p, e + 1, d))
                return ResidueReport(False, None, witness, conditions)
    return ResidueReport(True, section, None, conditions)


def rational_glue(exp0: TruncSeries, exp_z0: TruncSeries, exp_inf: TruncSeries,
                  z0) -> ResidueReport:
    """Glue expansions at 0, z0 and infinity into a global rational
    function, or report the first violated pairing as the witness: the form
    (zeta - p)^{-m} dzeta at a pole p (``kind`` "pole", ``point`` p,
    ``order`` m) or zeta^k dzeta at infinity (``kind`` "infinity",
    ``order`` k)."""
    z0 = Fraction(z0)
    if z0 == 0:
        raise ValueError("z0 must be nonzero")
    return strong_residue_check({F0: exp0, z0: exp_z0, INFINITY: exp_inf})


def residue_pairing(sigma: dict, t: RationalFunction) -> Fraction:
    """Sum over marked points of Res <sigma_p, t>: each sigma_p is the tail
    of 1-form-valued data in the local coordinate at p (already including
    the coordinate Jacobian at infinity); t is a global RationalFunction.
    sigma_p needs order >= -f, f the floor of t at p (its pole order, or
    its order of vanishing); else UnderdeterminedCap names that order."""
    return _residue_sum((p, s, t.expand_at_point(p, max(1, 1 - s.floor), s.var), None)
                        for p, s in sigma.items())


def _residue_sum(terms) -> Fraction:
    """Sum of Res (a * b) = [x^{-1}] series_mul(a, b) over (point, a, b, cap)
    terms.  x^{-1} needs a.order >= -b.floor and b.order >= -a.floor; else
    UnderdeterminedCap names the point, both windows, those orders and, for a
    slot tail a of cap ``cap``, the cap that gives a its order."""
    total = F0
    for p, a, b, cap in terms:
        prod = series_mul(a, b)
        if prod.order <= -1:
            need = f"order >= {-b.floor} on the first and >= {-a.floor} on the second"
            if cap is not None:
                need += f" (slot cap >= {cap - b.floor - a.order})"
            raise UnderdeterminedCap(
                f"residue at {p}: windows [{a.floor}, {a.order}) and [{b.floor}, {b.order}) "
                f"know the product below x^{prod.order} only; it needs {need}")
        total += prod.coeff(-1)
    return total


def global_form_tails(g: RationalFunction, points: SpherePoints, order: int) -> dict:
    """Tails of the global 1-form g dzeta at the marked points (a coboundary:
    its residue pairing with any global function vanishes)."""
    return {p: _form_expansion(g, p, order) for p in points}


# ---------------------------------------------------------------------------
# block functionals


class BlockFunctional:
    """Linear functional on a tensor of capped module vectors attached to
    marked points; ``caps[i]`` bounds the weights slot i can pair.

    ``evaluate`` receives one label -> coefficient mapping per slot.  The
    mappings may be read-only: the slot tails pass a module's memoized mode
    images uncopied, so an evaluator reads its arguments and never mutates
    them (an attempt raises TypeError).

    ``reads(i, w_vecs)``, if given, returns the weights at which slot i's
    evaluator can be nonzero while the other slots hold ``w_vecs``: a
    homogeneous vector of any other weight in slot i evaluates to 0.  The set
    may be larger than needed, never smaller; a slot tail computes no mode
    image of a weight outside it.  None means every weight."""

    def __init__(self, points: SpherePoints, modules, caps, evaluate, name="", reads=None):
        if len(modules) != len(points) or len(caps) != len(points):
            raise ValueError("one module and one cap per marked point")
        self.points = points
        self.modules = list(modules)
        self.caps = list(caps)
        self.evaluate = evaluate
        self.name = name
        self.reads = reads
        self._sections: dict = {}  # label tuple -> glued section, see propagate_block

    def __call__(self, *w_vecs) -> Fraction:
        if len(w_vecs) != len(self.modules):
            raise ValueError("wrong number of insertions")
        return self.evaluate(*w_vecs)

    def __repr__(self):
        return f"BlockFunctional({self.name or 'anonymous'}, {self.points})"


class IntertwinerError(Exception):
    """T failed the mode-commutation test; carries a witness."""

    def __init__(self, v, n, label, diff):
        super().__init__(f"T fails to intertwine mode (v={v}, n={n}) on {label}")
        self.witness = {"v": v, "n": n, "label": label, "difference": diff}


def hom_block(T: dict, w1: Module, w2: Module, cap: int) -> BlockFunctional:
    """phi_T(u (x) v) = <T u, v> on (P^1; 0, infinity) for T: W1 -> W2'
    given by its columns (label of W1 -> dual vector over W2 labels).

    T must commute with all modes; this is verified on the generating
    field's modes within the cap, and failures raise IntertwinerError.
    The evaluator pairs in one pass, sum c t v[l2] over the columns of T,
    and only reads u and v, which may be read-only mappings."""
    w2d = contragredient(w2)

    def apply_T(u: dict) -> dict:
        out: dict = {}
        for label, c in u.items():
            col = T.get(label)
            if col:
                vec_add_into(out, col, c)
        return out

    wt_v = w1.voa.gen_weight
    v = (wt_v,)
    for wt in range(cap + 1):
        for label in w1.basis_at(wt):
            col = T.get(label, {})
            for n in range(wt_v + wt - 1 - cap, wt_v + wt):
                # T Y(v)_n label - Y'(v)_n T label, from one-label images of W1 and W2'
                diff = apply_T(w1.mode_image(v, n, label) or {})
                for l2, t in col.items():
                    img = w2d.mode_image(v, n, l2)
                    if img:
                        vec_add_into(diff, img, -t)
                if not vec_is_zero(diff):
                    raise IntertwinerError(v, n, label, diff)

    def evaluate(u, v) -> Fraction:
        total = F0
        for label, c in u.items():
            col = T.get(label)
            if col:
                for l2, t in col.items():
                    if l2 in v:
                        total += c * t * v[l2]
        return total

    points = SpherePoints([F0, INFINITY])
    return BlockFunctional(points, [w1, w2], [cap, cap], evaluate, name="hom")


def identity_hom(module: Module, cap: int) -> BlockFunctional:
    """phi(u (x) v) = <u, v>, the canonical pairing of W with W' on
    (P^1; 0, infinity): dual-basis label matching over the labels of weight
    <= cap.  This is ``hom_block`` for T = identity, which intertwines by the
    definition of the contragredient action, so no check runs and no mode
    block is filled.  Slot i reads only the weights of the other slot's
    labels up to the cap."""

    def evaluate(u, v) -> Fraction:
        return sum((c * v[l] for l, c in u.items() if l in v and weight_of(l) <= cap), F0)

    def reads(i, w_vecs) -> set:
        return {wt for wt in map(weight_of, w_vecs[1 - i]) if wt <= cap}

    return BlockFunctional(SpherePoints([F0, INFINITY]), [module, contragredient(module)],
                           [cap, cap], evaluate, name="hom", reads=reads)


def three_point_block(module: Module, v, z0, w: dict, wp: dict) -> Fraction:
    """<Y_W(v, z0) w, w'> as an exact finite sum; w' lives in W'."""
    z0 = Fraction(z0)
    if z0 == 0:
        raise ValueError("z0 must be off the marked points 0 and infinity")
    if isinstance(v, tuple):
        v = {v: F1}
    total = F0
    dual_weights = {weight_of(label) for label in wp}
    for vl, vc in v.items():
        wt_v = weight_of(vl)
        for wl, wc in w.items():
            wt_w = weight_of(wl)
            for d in dual_weights:
                n = wt_v + wt_w - 1 - d
                img = module.mode_image(vl, n, wl)
                if img:  # paired with w' by dual-basis label matching
                    pair = sum((c * wp[label] for label, c in img.items() if label in wp), F0)
                    total += vc * wc * pair * z0 ** (-n - 1)
    return total


def vertex_block(module: Module, z0, cap: int) -> BlockFunctional:
    """The vertex-operator block phi(w (x) v (x) w') = <Y(v, z0) w, w'>
    on (P^1; 0, z0, infinity) with modules (W, V, W')."""
    z0 = Fraction(z0)
    points = SpherePoints([F0, z0, INFINITY])
    modules = [module, module.voa, contragredient(module)]

    def evaluate(w, v, wp):
        return three_point_block(module, v, z0, w, wp)

    return BlockFunctional(points, modules, [cap, cap, cap], evaluate, name="vertex")


def _slot_tail(phi: BlockFunctional, i: int, terms, w_vecs, var: str) -> TruncSeries:
    """The residue action on slot i as a Laurent tail, for the insertion
    given as (shift, vector) terms: [(0, v)] at a finite point, and
    gamma_twist(v, ...) at infinity.  The coefficient of var^{shift-n-1}
    collects phi(..., Y(vector)_n w_i, ...), certified for the modes the
    slot cap can see.  A mode whose image weight phi does not read
    (``BlockFunctional.reads``) is skipped: its image could only pair to 0,
    and the window is the same either way."""
    module = phi.modules[i]
    cap = phi.caps[i]
    w_i = w_vecs[i]
    weights = phi.reads(i, w_vecs) if phi.reads else None
    coeffs = []  # (exponent, num, den) of each nonzero term
    order = None
    for shift, vec in terms:
        for vl, vc in vec.items():
            wt_v = weight_of(vl)
            for wl, wc in w_i.items():
                wt_w = weight_of(wl)
                cn, cd = vc.numerator * wc.numerator, vc.denominator * wc.denominator
                n_min = wt_v + wt_w - 1 - cap  # Y(vector)_n w_i of weight in [0, cap]
                for n in range(n_min, n_min + cap + 1):
                    if weights is not None and wt_v + wt_w - 1 - n not in weights:
                        continue
                    img = module.mode_image(vl, n, wl)
                    if img:
                        args = list(w_vecs)
                        args[i] = img
                        val = phi(*args)
                        if val:
                            coeffs.append((shift - n - 1, cn * val.numerator,
                                           cd * val.denominator))
                top = shift - n_min  # exponents < top are fully certified
                order = top if order is None else min(order, top)
    if order is None:
        order = cap + 1
    return _expansion(coeffs, (), order, var)


def _tails(phi: BlockFunctional, v: dict, w_vecs) -> dict:
    """The slot tail of v at every marked point, v twisted at infinity."""
    return {p: _slot_tail(phi, i, gamma_twist(v, phi.modules[0]), w_vecs, "w")
            if p is INFINITY else _slot_tail(phi, i, [(0, v)], w_vecs, "t")
            for i, p in enumerate(phi.points)}


def _propagated_section(phi: BlockFunctional, v: dict, w_vecs) -> RationalFunction:
    report = strong_residue_check(_tails(phi, v, w_vecs))
    if not report.passed:
        raise AssertionError(
            f"propagated tails failed to glue; witness {report.witness}")
    return report.section


def propagate_eval(phi: BlockFunctional, v, y, w_vecs) -> Fraction:
    """Value of the propagated block (one extra V-insertion at y) in the
    standard global trivialization; exact.  For the vacuum insertion this
    returns phi(w_vecs) at every y off the marked points."""
    y = Fraction(y)
    if any(p is not INFINITY and p == y for p in phi.points):
        raise ValueError("y must avoid the marked points")
    if isinstance(v, tuple):
        v = {v: F1}
    vac = v.get((), F0)
    rest = {l: c for l, c in v.items() if l != () and c}
    total = vac * phi(*w_vecs) if vac else F0
    if rest:
        total += _propagated_section(phi, rest, w_vecs).eval(y)
    return total


def propagate_block(phi: BlockFunctional, y, cap: int) -> BlockFunctional:
    """The propagated block as a functional with one extra V-slot at y
    (inserted after the finite marked points, before INFINITY).

    The evaluator is multilinear: it splits (v, w_1, ..., w_k) into basis
    label tuples of nonzero coefficients and sums c_v c_w1 ... c_wk times
    the tuple's propagated section at y; the vacuum part of v contributes
    phi itself.  A section
    depends on phi and the labels, never on y, so each one is glued once and
    kept in ``phi._sections``, which serves every point phi is propagated
    to.  The memo stays private: the evaluator returns only values."""
    y = Fraction(y)
    a, b = y.numerator, y.denominator
    voa = phi.modules[0].voa
    finite_count = len(phi.points.finite)
    pts = SpherePoints(phi.points.finite + [y] +
                       ([INFINITY] if phi.points.has_infinity else []))
    sections = phi._sections

    def evaluate(*args):
        v = args[finite_count]
        w_vecs = args[:finite_count] + args[finite_count + 1:]
        vac = v.get((), F0)
        num, den = 0, 1
        if vac:
            val = phi(*w_vecs)
            num, den = vac.numerator * val.numerator, vac.denominator * val.denominator
        w_terms = [[(wl, wc.numerator, wc.denominator) for wl, wc in w.items() if wc]
                   for w in w_vecs]
        for vl, vc in v.items():
            if not vl or not vc:
                continue
            for combo in product(*w_terms):
                key = (vl,) + tuple(wl for wl, _, _ in combo)
                section = sections.get(key)
                if section is None:
                    section = sections[key] = _propagated_section(
                        phi, {vl: F1}, [{wl: F1} for wl in key[1:]])
                n, d = section._value(a, b)
                if n:
                    n, d = n * vc.numerator, d * vc.denominator
                    for _, cn, cd in combo:
                        n, d = n * cn, d * cd
                    g = gcd(den, d)
                    num, den = num * (d // g) + n * (den // g), den * (d // g)
        return Fraction(num, den)

    modules = phi.modules[:finite_count] + [voa] + phi.modules[finite_count:]
    # the inherited slots lose cap headroom: evaluating them goes through a
    # nested propagation whose windows shrink by the new insertion's weight
    old = [max(0, c - cap) for c in phi.caps]
    caps = old[:finite_count] + [cap] + old[finite_count:]
    return BlockFunctional(pts, modules, caps, evaluate,
                           name=f"{phi.name or 'block'}~propagated@{y}")


def block_property_check(phi: BlockFunctional, v, g: RationalFunction, w_vecs) -> bool:
    """The defining invariance of conformal blocks: the residue action of
    the global V-valued 1-form (v g dzeta) on the insertions sums to a
    vector that phi kills; by linearity of phi, the sum over the marked
    points of Res_p(tail_p * g dzeta) for the slot tails of v.  Exact; a pole
    of g deeper than a tail's window raises UnderdeterminedCap."""
    if set(g.poles) - set(phi.points.finite):
        raise ValueError("form has poles off the marked points")
    if isinstance(v, tuple):
        v = {v: F1}
    tails = _tails(phi, v, w_vecs)
    return _residue_sum((p, tail, _form_expansion(g, p, max(-tail.floor, 0)), cap)
                        for (p, tail), cap in zip(tails.items(), phi.caps)) == 0
