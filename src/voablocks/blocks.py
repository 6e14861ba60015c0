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
from itertools import product

from .graded import vec_add_into, vec_is_zero, weight_of
from .models import Module, contragredient, gamma_twist
from .series import TruncSeries, series_mul
from .virasoro import gbinom

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
    """Partial-fraction form: polynomial part + pole parts at finite points."""

    def __init__(self, poly=None, poles=None):
        self.poly = {int(k): Fraction(c) for k, c in (poly or {}).items() if c}
        if any(k < 0 for k in self.poly):
            raise ValueError("polynomial part needs exponents >= 0")
        self.poles = {}
        for p, part in (poles or {}).items():
            part = {int(m): Fraction(c) for m, c in part.items() if c}
            if any(m < 1 for m in part):
                raise ValueError("pole orders must be >= 1")
            if part:
                self.poles[Fraction(p)] = part

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
        if x in self.poles:
            raise ZeroDivisionError(f"evaluation at the pole {x}")
        total = sum((c * x ** k for k, c in self.poly.items()), F0)
        for p, part in self.poles.items():
            for m, c in part.items():
                total += c * (x - p) ** (-m)
        return total

    def expand_at(self, p, order: int, var: str = "t") -> TruncSeries:
        """Laurent expansion in the local coordinate t = zeta - p."""
        p = Fraction(p)
        cmap = {-m: c for m, c in self.poles.get(p, {}).items()}
        for k, c in self.poly.items():
            for j in range(0, min(k, max(order - 1, 0)) + 1):
                cmap[j] = cmap.get(j, F0) + c * gbinom(k, j) * p ** (k - j)
        terms = []
        for p2, part in self.poles.items():
            if p2 != p:
                # (t + d)^{-m} = d^{-m} (1 - r t)^{-m} with d = p - p2 and r = -1/d
                d = p - p2
                terms += [(c.numerator * d.denominator ** m, c.denominator * d.numerator ** m,
                           -d.denominator, d.numerator, m, 0) for m, c in part.items()]
        return _expansion(cmap, terms, order, var)

    def expand_at_infinity(self, order: int, var: str = "w") -> TruncSeries:
        """Laurent expansion in w = 1/zeta."""
        cmap = {-k: c for k, c in self.poly.items()}
        # (1/w - p)^{-m} = w^m (1 - p w)^{-m}
        return _expansion(cmap, [(c.numerator, c.denominator, p.numerator, p.denominator, m, m)
                                 for p, part in self.poles.items() for m, c in part.items()],
                          order, var)

    def expand_at_point(self, p, order: int, var: str | None = None) -> TruncSeries:
        if p is INFINITY:
            return self.expand_at_infinity(order, var or "w")
        return self.expand_at(p, order, var or "t")

    def __repr__(self):
        return f"RationalFunction(poly={self.poly}, poles={self.poles})"


def _expansion(cmap: dict, terms, order: int, var: str) -> TruncSeries:
    """The series known below var^order of cmap plus the pole terms
    num/den (1 - r x)^{-m} x^shift, given as (num, den, r_num, r_den, m,
    shift) in ints.  The x^{shift+e} coefficient of a term,
    C(m+e-1, e) r^e num/den, is kept as integer factors from one e to the
    next: no Fraction is formed but the one added to cmap."""
    for num, den, rn, rd, m, shift in terms:
        binom = 1
        for e in range(0, order - shift):
            cmap[e + shift] = cmap.get(e + shift, F0) + Fraction(binom * num, den)
            binom = binom * (m + e) // (e + 1)
            num *= rn
            den *= rd
    cmap = {e: c for e, c in cmap.items() if c and e < order}
    return TruncSeries.from_coeff_map(var, cmap, order)


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
        return s.shift(-2).scale(Fraction(-1)).truncate(order)
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
    finite = [p for p in tails if p is not INFINITY]
    points = finite + [INFINITY]
    for p in points:
        need = 1 if p is INFINITY else 0
        if tails[p].order < need:
            raise UnderdeterminedCap(
                f"tail at {p} has order {tails[p].order}; "
                f"the residue check needs order >= {need}")

    poles = {p: {m: tails[p].coeff(-m) for m in range(1, 1 - tails[p].floor)}
             for p in finite}
    at_inf = tails[INFINITY]
    poly = {k: at_inf.coeff(-k) for k in range(0, 1 - at_inf.floor)}
    section = RationalFunction(poly, poles)

    if all(tails[p].is_zero() for p in points):
        # the zero section re-expands to zero on every window
        conditions = sum(tails[p].order - (1 if p is INFINITY else 0) for p in points)
        return ResidueReport(True, section, None, conditions)
    conditions = 0
    for p in points:
        tail = tails[p]
        s = section.expand_at_point(p, tail.order)
        for e in range(1 if p is INFINITY else 0, tail.order):
            conditions += 1
            a, b = tail.coeff(e), s.coeff(e)
            if a != b:
                d = a - b
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
    cmap: dict = {}
    order = None
    for shift, vec in terms:
        for vl, vc in vec.items():
            wt_v = weight_of(vl)
            for wl, wc in w_i.items():
                wt_w = weight_of(wl)
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
                            e = shift - n - 1
                            cmap[e] = cmap.get(e, F0) + vc * wc * val
                top = shift - n_min  # exponents < top are fully certified
                order = top if order is None else min(order, top)
    if order is None:
        order = cap + 1
    cmap = {e: c for e, c in cmap.items() if c and e < order}
    return TruncSeries.from_coeff_map(var, cmap, order)


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
    voa = phi.modules[0].voa
    finite_count = len(phi.points.finite)
    pts = SpherePoints(phi.points.finite + [y] +
                       ([INFINITY] if phi.points.has_infinity else []))
    sections = phi._sections

    def evaluate(*args):
        v = args[finite_count]
        w_vecs = args[:finite_count] + args[finite_count + 1:]
        vac = v.get((), F0)
        total = vac * phi(*w_vecs) if vac else F0
        w_terms = [[(wl, wc) for wl, wc in w.items() if wc] for w in w_vecs]
        for vl, vc in v.items():
            if not vl or not vc:
                continue
            for combo in product(*w_terms):
                key = (vl,) + tuple(wl for wl, _ in combo)
                section = sections.get(key)
                if section is None:
                    section = sections[key] = _propagated_section(
                        phi, {vl: F1}, [{wl: F1} for wl in key[1:]])
                val = section.eval(y)
                if val:
                    for _, wc in combo:
                        val *= wc
                    total += vc * val
        return total

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
