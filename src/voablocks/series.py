"""Truncated formal series over exact rationals.

Three flavours:

* :class:`TruncSeries` -- truncated Laurent series in one named variable.
  A series stores a window ``[floor, order)`` of exponents; coefficients
  below ``floor`` are exactly zero, coefficients at exponents ``>= order``
  are unknown (discarded by truncation).  Every operation returns the
  largest window it can certify from its inputs and never pads with
  unverified zeros.

* :class:`BivarSeries` -- a series in two variables, kept as its nonzero
  monomials below a pair of orders (the pairing kernels f(xi, w) of the
  sewing identity).

* :class:`QExpansion` -- sum_{n >= 0} a_n q^(lam + n): a rational offset
  lam plus one TruncSeries in q with floor 0; the one q-series type of sewn
  series and characters.

A TruncSeries holds rationals only: its constructor refuses any coefficient
that is not an ``int`` or a ``Fraction``.  It adds, subtracts and compares
with series only; a rational scales it through ``scale`` or ``*``, and the
int 0 that ``sum`` starts from leaves it as it is.  It is an immutable tuple
of integer numerators over one positive denominator, in lowest terms
(gcd(den, *nums) == 1), the content/primitive-part form of exact polynomial
arithmetic.  ``coeffs`` is a read-only tuple view of the rationals.  Both
forms are made on demand, once: a series built from rationals keeps the
tuple it was given as its view and makes its integer form when a kernel
first needs it; a kernel output is born integer and makes its Fractions only
when they are read.  The ring operations, :func:`series_mul`,
:meth:`TruncSeries.reciprocal` and :func:`series_compose` run on the
integers and reduce once per result; :func:`series_comp_inverse` is built
from ``reciprocal`` and ``series_mul``.  The z-series c_n of Huang's
conjugation check live in a plain list (``coordchange._exp_factorization``),
and its U(rho_z) v and both sides of its comparison are {label: z-series}
maps of the check's own, built by ``series_mul`` and ``scale``; no graded
vector holds a series.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = [
    "TruncSeries",
    "BivarSeries",
    "QExpansion",
    "series_mul",
    "series_compose",
    "series_comp_inverse",
]

_ZERO = Fraction(0)
_RATIONAL_TYPES = {int, Fraction}


# Scalar helpers: the one scalar ring is the rationals (int or Fraction).


def _is_scalar(x) -> bool:
    """An exact type test: ``bool`` is refused though it subclasses int."""
    return type(x) in _RATIONAL_TYPES


def _check_scalars(values, what: str = "a series coefficient") -> None:
    """Refuse, naming it, the first of ``values`` (a collection) that is not
    an int or a Fraction: the one test of an exact scalar at a constructor."""
    if not _RATIONAL_TYPES.issuperset(map(type, values)):
        bad = next(x for x in values if not _is_scalar(x))
        raise ValueError(f"{what} must be an int or a Fraction, not {bad!r}")


def _integer_form(cs):
    """(integer numerators, common denominator) of a sequence of rationals,
    so that cs[i] == nums[i] / den, in lowest terms.

    The exact kernels run on these integers instead of normalizing a
    Fraction after every + and *."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _convolve(a, b, size: int) -> list:
    """The first ``size`` coefficients of the product of two integer
    coefficient sequences."""
    acc = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i], i):
                acc[j] += x * y
    return acc


def _on_window(nums, nfloor: int, floor: int, order: int, factor: int) -> list:
    """factor * nums, stored from exponent nfloor >= floor, on [floor, order)."""
    return [0] * min(nfloor - floor, order - floor) + \
        [factor * n for n in nums[:max(order - nfloor, 0)]]


def _new(var, floor, order, view, nums, den) -> "TruncSeries":
    s = object.__new__(TruncSeries)
    s.var, s.floor, s.order = var, floor, order
    s._view, s._nums, s._den = view, nums, den
    return s


def _series(var, floor: int, nums, den: int, order: int) -> "TruncSeries":
    """The series sum nums[i] / den x^(floor + i) on [floor, order), den > 0,
    reduced to lowest terms; its Fractions are built when first read."""
    g = gcd(den, *nums)
    if g == 1:
        return _new(var, floor, order, None, tuple(nums), den)
    return _new(var, floor, order, None, tuple(n // g for n in nums), den // g)


class TruncSeries:
    """Truncated Laurent series sum_{floor <= n < order} coeffs[n-floor] x^n,
    stored as integer numerators over one denominator (module docstring)."""

    __slots__ = ("var", "floor", "order", "_view", "_nums", "_den")

    def __init__(self, var: str, floor: int, coeffs: Sequence, order: int | None = None):
        coeffs = tuple(coeffs)
        if order is None:
            order = floor + len(coeffs)
        if order - floor != len(coeffs):
            raise ValueError("coeffs length must equal order - floor")
        _check_scalars(coeffs)
        self.var = var
        self.floor = floor
        self.order = order
        self._view = coeffs
        self._nums = None
        self._den = 1

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, var: str, order: int) -> "TruncSeries":
        """The canonical zero series: empty window with floor = order."""
        return cls(var, order, [], order)

    @classmethod
    def const(cls, var: str, value, order: int) -> "TruncSeries":
        if order <= 0:
            raise ValueError("constant needs order > 0")
        coeffs = [_ZERO] * order
        # a bool is no int here: the constructor refuses it
        coeffs[0] = Fraction(value) if type(value) is int else value
        return cls(var, 0, coeffs, order)

    @classmethod
    def from_coeff_map(cls, var: str, cmap: dict, order: int) -> "TruncSeries":
        """The series known below x^order; entries at or above it are truncated."""
        floor = min(min(cmap, default=order), order)
        coeffs = [cmap.get(n, _ZERO) for n in range(floor, order)]
        return cls(var, floor, coeffs, order)

    # -- the two forms --------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients on [floor, order) as a read-only tuple."""
        if self._view is None:
            den = self._den
            self._view = tuple(Fraction(n, den) for n in self._nums)
        return self._view

    def _ints(self) -> tuple:
        """(numerators, denominator) in lowest terms, made on first use."""
        if self._nums is None:
            nums, self._den = _integer_form(self._view)
            self._nums = tuple(nums)
        return self._nums, self._den

    def _slice(self, i: int, j: int, floor: int, order: int) -> "TruncSeries":
        """Stored coefficients i..j-1 as the series on [floor, order)."""
        view = None if self._view is None else self._view[i:j]
        if self._nums is None:
            return _new(self.var, floor, order, view, None, 1)
        s = _series(self.var, floor, self._nums[i:j], self._den, order)
        s._view = view
        return s

    # -- basics ---------------------------------------------------------

    def coeff(self, n: int):
        """Coefficient of x^n; exact zero below the floor, error at/above order.
        Before ``coeffs`` is built each call builds one Fraction."""
        if n >= self.order:
            raise IndexError(f"exponent {n} beyond truncation order {self.order}")
        if n < self.floor:
            return _ZERO
        if self._view is None:
            return Fraction(self._nums[n - self.floor], self._den)
        return self._view[n - self.floor]

    def is_zero(self) -> bool:
        return not any(self._view if self._nums is None else self._nums)

    def normalize(self) -> "TruncSeries":
        """Trim leading zero coefficients so the floor coefficient is nonzero
        (or the series is the canonical zero with floor = order)."""
        cs = self._view if self._nums is None else self._nums
        i = next((i for i, c in enumerate(cs) if c), len(cs))
        return self._slice(i, len(cs), self.floor + i, self.order)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b = self.normalize(), other.normalize()
        return (a.var, a.floor, a.order, a._ints()) == (b.var, b.floor, b.order, b._ints())

    # Equality normalizes both sides and compares their integer forms; no
    # set or dict is keyed by a series, so no hash repeats that work.
    __hash__ = None

    def __repr__(self):
        terms = [f"{c}*{self.var}^{n}" for n, c in enumerate(self.coeffs, self.floor) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O({self.var}^{self.order})>"

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        floor = min(self.floor, order)
        return self._slice(0, order - floor, floor, order)

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by x^k."""
        return _new(self.var, self.floor + k, self.order + k, self._view, self._nums, self._den)

    # -- ring operations ------------------------------------------------

    def _plus(self, other, sign: int):
        """self + sign * other for a series other; the int 0 that ``sum``
        starts from leaves self as it is."""
        if isinstance(other, int) and other == 0:
            return self
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")
        floor = min(self.floor, other.floor)
        order = min(self.order, other.order)
        (na, da), (nb, db) = self._ints(), other._ints()
        d = lcm(da, db)
        acc = [x + y for x, y in zip(_on_window(na, self.floor, floor, order, d // da),
                                     _on_window(nb, other.floor, floor, order, sign * (d // db)))]
        return _series(self.var, floor, acc, d, order)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s) -> "TruncSeries":
        """Multiply every coefficient by a rational scalar."""
        if not _is_scalar(s):
            raise ValueError(f"a series scales by an int or a Fraction, not {s!r}")
        nums, den = self._ints()
        p = s.numerator
        return _series(self.var, self.floor, [n * p for n in nums], den * s.denominator,
                       self.order)

    def __mul__(self, other):
        if _is_scalar(other):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return series_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("series powers must be integers")
        if k < 0:
            return self.reciprocal() ** (-k)
        if k == 0:
            # 1 known as far as f ** 0 * f keeps f's window
            order = max(self.order - min(self.floor, 0), 1)
            return TruncSeries.const(self.var, Fraction(1), order)
        if k == 1:
            return self
        # square-and-multiply on f itself: every product keeps the window of
        # the chain f * f * ... * f, which a start from the constant 1 cuts
        # when f has a negative floor
        half = self ** (k // 2)
        square = series_mul(half, half)
        return series_mul(square, self) if k & 1 else square

    def deriv(self) -> "TruncSeries":
        # derivative kills the constant term; the window shifts down by one
        nums, den = self._ints()
        d = [c * n for n, c in enumerate(nums, self.floor)]
        floor = self.floor - 1
        if self.floor == 0 and d:  # the constant's derivative is no coefficient at x^-1
            d, floor = d[1:], 0
        return _series(self.var, floor, d, den, self.order - 1)

    def reciprocal(self) -> "TruncSeries":
        """Multiplicative inverse 1/f for f with a nonzero leading coefficient."""
        f = self.normalize()
        A, d = f._ints()
        if not A:
            raise ZeroDivisionError("series has zero leading coefficient")
        v = f.floor
        rel = f.order - v  # number of known relative coefficients
        # f = x^v A(x) / d with A integral: C_n = A_0^{n+1} [x^n] 1/A
        # satisfies C_0 = 1, C_n = -sum_{j=1..n} A_j C_{n-j} A_0^{j-1}
        p = [1, A[0]]  # powers of A_0
        C = [1]
        for n in range(1, rel):
            C.append(-sum(A[j] * C[n - j] * p[j - 1] for j in range(1, n + 1) if A[j]))
            p.append(p[-1] * A[0])
        # [x^(n-v)] 1/f = d C_n / A_0^{n+1}, over the one denominator A_0^rel
        sign = -1 if p[rel] < 0 else 1
        b = [sign * d * c * p[rel - 1 - n] for n, c in enumerate(C)]
        return _series(self.var, -v, b, sign * p[rel], -v + rel)


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Product of truncated series; order = min(a.floor + b.order,
    b.floor + a.order).  The numerators are convolved and reduced once."""
    if a.var != b.var:
        raise ValueError(f"variable mismatch: {a.var!r} vs {b.var!r}")
    floor = a.floor + b.floor
    order = min(a.floor + b.order, b.floor + a.order)
    if order <= floor:
        return TruncSeries.zero(a.var, order)
    (na, da), (nb, db) = a._ints(), b._ints()
    return _series(a.var, floor, _convolve(na, nb, order - floor), da * db, order)


def series_compose(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """f(g(x)) for f with floor >= 0 and g with g(0) = 0, g'(0) free.

    The certified order is min(f.order, g.order + k0 - 1) where k0 is the
    smallest positive exponent of f with a (potentially) nonzero coefficient;
    a zero window g = O(x^m) takes the same rule, and an order 0 result is
    O(x^0).  g(0) = 0 must be certified, so g = O(x^0) is refused.
    With g = x^a G(x) / dg and f's coefficients f_k / df (G and f_k
    integral), the powers G^k and the sum of f_k x^{ka} G^k dg^{K-k} run on
    integers, and the result is that sum over df dg^K, reduced once.
    """
    fn = f.normalize()
    if fn.floor < 0:
        raise ValueError("composition needs f with floor >= 0")
    gn = g.normalize()
    if gn.floor < 0:
        raise ValueError(f"composition needs g without a pole at 0: its {g.var}^{gn.floor} "
                         "coefficient is nonzero")
    if gn.floor < 1:
        raise ValueError("composition needs g(0) = 0")
    k0 = max(fn.floor, 1)
    order = min(f.order, g.order + k0 - 1)
    if order <= 0:
        return TruncSeries.zero(g.var, 0)
    (fk, df), (G, dg) = fn._ints(), gn._ints()
    a = gn.floor
    # f_k g^k vanishes below x^{ka}, so the powers stop at K
    K = (order - 1) // a
    acc = [0] * order
    floor = order
    if fn.floor == 0:
        acc[0] = fk[0] * dg ** K
        floor = 0
    p = [1]  # numerators of G^k, x^{ka + i} at index i
    for k in range(1, K + 1):
        p = _convolve(p, G, order - k * a)
        c = fk[k - fn.floor] if k >= fn.floor else 0
        if c:
            c *= dg ** (K - k)
            floor = min(floor, k * a)
            for j, x in enumerate(p, k * a):
                acc[j] += c * x
    return _series(g.var, floor, acc[floor:], df * dg ** K, order)


def series_comp_inverse(f: TruncSeries) -> TruncSeries:
    """Compositional inverse g with f(g(x)) = x, for f(0)=0, f'(0) != 0.

    Lagrange inversion: [x^n] g = (1/n) [x^{n-1}] h^n with h = x / f(x),
    so each order costs one product h^{n-1} * h.
    """
    fn = f.normalize()
    if fn.is_zero() or fn.floor != 1:
        raise ValueError("compositional inverse needs f(0)=0 and f'(0) != 0")
    h = fn.shift(-1).reciprocal()
    hn = h
    terms = []  # [x^n] g as (numerator, denominator), n = 1, 2, ...
    for n in range(1, f.order):
        if n > 1:
            hn = series_mul(hn, h)
        nums, den = hn._ints()
        terms.append((nums[n - 1], den * n))
    den = lcm(*(d for _, d in terms))
    return _series(f.var, 1, [x * (den // d) for x, d in terms], den, f.order)


class BivarSeries:
    """Truncated series in two variables: the nonzero monomials
    ``coeffs = {(r, s): c}``, every one with r < orders[0] and s < orders[1].

    Mostly a container: the sewing identity consumes its monomials one by
    one after substituting (xi, q/xi) or (q/w, w).
    """

    __slots__ = ("vars", "orders", "coeffs")

    def __init__(self, variables, cmap: dict, orders):
        self.vars = tuple(variables)
        if len(self.vars) != 2:
            raise ValueError("need exactly two variables")
        self.orders = tuple(orders)
        for r, s in cmap:
            if r >= self.orders[0] or s >= self.orders[1]:
                raise ValueError(f"monomial {(r, s)} at or beyond the orders {self.orders}")
        _check_scalars(cmap.values())
        self.coeffs = {k: Fraction(c) if isinstance(c, int) else c
                       for k, c in sorted(cmap.items()) if c}

    @classmethod
    def from_monomials(cls, variables, cmap: dict, orders):
        return cls(variables, cmap, orders)

    def monomials(self):
        """Yield (r, s, coeff) for the nonzero coefficients, ascending in (r, s)."""
        return ((r, s, c) for (r, s), c in self.coeffs.items())


class QExpansion:
    """Series sum_{n=0}^{order-1} coeffs[n] * q^(offset + n): a rational offset
    and one q-series ``series`` at floor 0, given as it or as a coefficient list."""

    __slots__ = ("offset", "series")

    def __init__(self, offset, coeffs):
        self.offset = Fraction(offset)
        if not isinstance(coeffs, TruncSeries):
            coeffs = TruncSeries("q", 0, [Fraction(c) if type(c) is int else c for c in coeffs])
        elif coeffs.var != "q" or coeffs.floor != 0:
            raise ValueError(f"a q-expansion needs a q-series at floor 0, not {coeffs!r}")
        self.series = coeffs

    @property
    def coeffs(self) -> tuple:
        return self.series.coeffs

    @property
    def order(self) -> int:
        return self.series.order

    def shift_offset(self, delta) -> "QExpansion":
        return QExpansion(self.offset + Fraction(delta), self.series)

    def __eq__(self, other):
        """Equality on the common window after aligning the offsets."""
        if not isinstance(other, QExpansion):
            return NotImplemented
        d = other.offset - self.offset
        if d.denominator != 1:
            return self.series.is_zero() and other.series.is_zero()
        # for d < 0 the shift puts other's first -d coefficients below q^0,
        # where self is exactly zero
        b = other.series.shift(int(d))
        m = min(self.order, b.order)
        return self.series.truncate(m) == b.truncate(m)

    # Equality compares only the common window, so it is not transitive and
    # no non-constant hash can agree with it.
    __hash__ = None

    def q_ddq(self) -> "QExpansion":
        """Apply q d/dq: multiplies the q^(offset+n) coefficient by offset+n."""
        return QExpansion(self.offset, [c * (self.offset + n) for n, c in enumerate(self.coeffs)])

    def __repr__(self):
        terms = [f"{c}*q^{self.offset + n}" for n, c in enumerate(self.coeffs) if c]
        return "<" + (" + ".join(terms) if terms else "0") + f" + O(q^{self.offset + self.order})>"
