"""Truncated formal series over exact rationals.

Three flavours:

* :class:`TruncSeries` -- truncated Laurent series in one named variable.
  A series stores a window ``[floor, order)`` of exponents; coefficients
  below ``floor`` are exactly zero, coefficients at exponents ``>= order``
  are unknown (discarded by truncation).  Every operation returns the
  largest window it can certify from its inputs and never pads with
  unverified zeros.

* :class:`BivarSeries` -- a rectangular window of coefficients in two
  variables (used for the pairing kernels f(xi, w) of the sewing identity).

* :class:`QExpansion` -- sum_{n >= 0} a_n q^(lam + n) with a single rational
  exponent offset lam; the container for sewn series and characters.

Coefficients are ``fractions.Fraction`` in normal use, but any value
supporting ring arithmetic (e.g. a TruncSeries in another variable) works;
this is exercised when coordinate-change coefficients are themselves series.

When every coefficient is rational, :func:`series_mul` clears
denominators once, works on Python integers and builds one Fraction per
output coefficient (the content/primitive-part technique of exact
polynomial arithmetic); series coefficients take the generic loop, with
the same window and the same values.  :meth:`TruncSeries.reciprocal` runs
the same integer kernel and accepts rational coefficients only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

__all__ = [
    "TruncSeries",
    "BivarSeries",
    "QExpansion",
    "series_mul",
    "series_compose",
    "series_comp_inverse",
    "series_residue",
]

_ZERO = Fraction(0)


# Scalar helpers shared by every module whose coefficients may be either
# rationals or series in another variable.


def _is_scalar(x) -> bool:
    return isinstance(x, (int, Fraction))


def _nonzero(c) -> bool:
    """True when a coefficient is (known to be) nonzero."""
    if isinstance(c, Fraction):  # the common case, tested first
        return c != 0
    if isinstance(c, TruncSeries):
        return any(_nonzero(x) for x in c.coeffs)
    return c != 0


def _inv(x):
    """Multiplicative inverse of a rational or of a series coefficient."""
    return Fraction(1) / x if _is_scalar(x) else x.reciprocal()


def _integer_form(cs):
    """(integer numerators, common denominator) of a list of rationals, so
    that cs[i] == nums[i] / den; None when some entry is not a rational.

    The exact kernels run on these integers and build one Fraction per
    output, instead of normalizing a Fraction after every + and *."""
    if not all(isinstance(c, (int, Fraction)) for c in cs):
        return None
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


class TruncSeries:
    """Truncated Laurent series sum_{floor <= n < order} coeffs[n-floor] x^n."""

    __slots__ = ("var", "floor", "order", "coeffs")

    def __init__(self, var: str, floor: int, coeffs: Sequence, order: int | None = None):
        coeffs = list(coeffs)
        if order is None:
            order = floor + len(coeffs)
        if order - floor != len(coeffs):
            raise ValueError("coeffs length must equal order - floor")
        if order < floor:
            raise ValueError("order < floor")
        self.var = var
        self.floor = floor
        self.order = order
        self.coeffs = coeffs

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
        coeffs[0] = Fraction(value) if isinstance(value, int) else value
        return cls(var, 0, coeffs, order)

    @classmethod
    def from_coeff_map(cls, var: str, cmap: dict, order: int) -> "TruncSeries":
        if not cmap:
            return cls.zero(var, order)
        floor = min(cmap)
        coeffs = [cmap.get(n, _ZERO) for n in range(floor, order)]
        return cls(var, floor, coeffs, order)

    # -- basics ---------------------------------------------------------

    def coeff(self, n: int):
        """Coefficient of x^n; exact zero below the floor, error at/above order."""
        if n >= self.order:
            raise IndexError(f"exponent {n} beyond truncation order {self.order}")
        if n < self.floor:
            return _ZERO
        return self.coeffs[n - self.floor]

    def is_zero(self) -> bool:
        return not any(_nonzero(c) for c in self.coeffs)

    def normalize(self) -> "TruncSeries":
        """Trim leading zero coefficients so the floor coefficient is nonzero
        (or the series is the canonical zero with floor = order)."""
        i = 0
        while i < len(self.coeffs) and not _nonzero(self.coeffs[i]):
            i += 1
        return TruncSeries(self.var, self.floor + i, self.coeffs[i:], self.order)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if _is_scalar(other):
            if self.order <= 0:
                return NotImplemented
            other = TruncSeries.const(self.var, other, self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b = self.normalize(), other.normalize()
        return a.var == b.var and a.floor == b.floor and a.order == b.order and a.coeffs == b.coeffs

    # Equality with scalars and across windows is not transitive and the
    # coefficients are mutable, so no hash can agree with it.
    __hash__ = None

    def __repr__(self):
        terms = []
        for n in range(self.floor, self.order):
            c = self.coeff(n)
            if _nonzero(c):
                terms.append(f"{c}*{self.var}^{n}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O({self.var}^{self.order})>"

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        floor = min(self.floor, order)
        return TruncSeries(self.var, floor, self.coeffs[: order - floor], order)

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by x^k."""
        return TruncSeries(self.var, self.floor + k, self.coeffs, self.order + k)

    def map_coeffs(self, f) -> "TruncSeries":
        return TruncSeries(self.var, self.floor, [f(c) for c in self.coeffs], self.order)

    # -- ring operations ------------------------------------------------

    def _check_var(self, other: "TruncSeries"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if _is_scalar(other):
            if other == 0:
                return self
            if 0 >= self.order:
                raise IndexError("constant term beyond truncation order")
            floor = min(self.floor, 0)
            cmap = {n: self.coeff(n) for n in range(floor, self.order)}
            cmap[0] = cmap.get(0, _ZERO) + other
            return TruncSeries.from_coeff_map(self.var, cmap, self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_var(other)
        floor = min(self.floor, other.floor)
        order = min(self.order, other.order)
        if order < floor:
            floor = order
        coeffs = [self.coeff(n) + other.coeff(n) for n in range(floor, order)]
        return TruncSeries(self.var, floor, coeffs, order)

    __radd__ = __add__

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, s) -> "TruncSeries":
        """Multiply every coefficient by a scalar (which may live in another
        coefficient ring, e.g. a series in a different variable)."""
        return self.map_coeffs(lambda c: c * s)

    def __mul__(self, other):
        if _is_scalar(other):
            return self.map_coeffs(lambda c: c * other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_var(other)
        return series_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_scalar(other):
            inv = Fraction(1, 1) / other
            return self.map_coeffs(lambda c: c * inv)
        if isinstance(other, TruncSeries):
            self._check_var(other)
            return series_mul(self, other.reciprocal())
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("series powers must be integers")
        if k < 0:
            return self.reciprocal() ** (-k)
        result = TruncSeries.const(self.var, Fraction(1), max(self.order, 1))
        base = self
        # plain square-and-multiply; windows shrink per series_mul rules
        while k:
            if k & 1:
                result = series_mul(result, base)
            k >>= 1
            if k:
                base = series_mul(base, base)
        return result

    def deriv(self) -> "TruncSeries":
        # derivative kills the constant term; the window shifts down by one
        cmap = {n - 1: self.coeff(n) * n for n in range(self.floor, self.order) if n != 0}
        return TruncSeries.from_coeff_map(self.var, cmap, self.order - 1)

    def reciprocal(self) -> "TruncSeries":
        """Multiplicative inverse 1/f for f with rational coefficients and a
        nonzero leading coefficient; a coefficient that is not a rational
        (a series in another variable) raises ValueError."""
        f = self.normalize()
        if not f.coeffs or not _nonzero(f.coeffs[0]):
            raise ZeroDivisionError("series has zero leading coefficient")
        v = f.floor
        rel = f.order - v  # number of known relative coefficients
        ints = _integer_form(f.coeffs)
        if ints is None:
            raise ValueError("reciprocal needs rational coefficients")
        # f = x^v A(x) / d with A integral: C_n = A_0^{n+1} [x^n] 1/A
        # satisfies C_0 = 1, C_n = -sum_{j=1..n} A_j C_{n-j} A_0^{j-1}
        A, d = ints
        p = [1, A[0]]  # powers of A_0
        C = [1]
        for n in range(1, rel):
            C.append(-sum(A[j] * C[n - j] * p[j - 1] for j in range(1, n + 1) if A[j]))
            p.append(p[-1] * A[0])
        b = [Fraction(d * c, p[n + 1]) for n, c in enumerate(C)]
        return TruncSeries(self.var, -v, b, -v + rel)


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Product of truncated series; order = min(a.floor + b.order, b.floor + a.order)."""
    if a.var != b.var:
        raise ValueError(f"variable mismatch: {a.var!r} vs {b.var!r}")
    floor = a.floor + b.floor
    order = min(a.floor + b.order, b.floor + a.order)
    if order <= floor:
        return TruncSeries.zero(a.var, order)
    size = order - floor
    ia, ib = _integer_form(a.coeffs), _integer_form(b.coeffs)
    if ia is not None and ib is not None:
        # rational operands: convolve the numerators, divide once
        (na, da), (nb, db) = ia, ib
        acc = [0] * size
        for i, x in enumerate(na[:size]):
            if x:
                for j, y in enumerate(nb[:size - i], i):
                    acc[j] += x * y
        den = da * db
        return TruncSeries(a.var, floor, [Fraction(c, den) for c in acc], order)
    coeffs = [_ZERO] * size
    for i, ca in enumerate(a.coeffs):
        if not _nonzero(ca):
            continue
        na = a.floor + i
        for j, cb in enumerate(b.coeffs):
            n = na + b.floor + j
            if n >= order:
                break
            if _nonzero(cb):
                coeffs[n - floor] = coeffs[n - floor] + ca * cb
    return TruncSeries(a.var, floor, coeffs, order)


def series_compose(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """f(g(x)) for f with floor >= 0 and g with g(0) = 0, g'(0) free.

    The certified order is min(f.order, g.order + k0 - 1) where k0 is the
    smallest positive exponent of f with a (potentially) nonzero coefficient.
    """
    fn = f.normalize()
    if fn.floor < 0:
        raise ValueError("composition needs f with floor >= 0")
    gn = g.normalize()
    if gn.coeffs and gn.floor < 1:
        raise ValueError("composition needs g(0) = 0")
    if gn.is_zero():
        return TruncSeries.const(g.var, fn.coeff(0) if fn.order > 0 else _ZERO, max(f.order, 1))
    k0 = max(fn.floor, 1)
    order = min(f.order, g.order + k0 - 1)
    out = TruncSeries.zero(g.var, order)
    c0 = fn.coeff(0) if fn.floor == 0 and fn.order > 0 else _ZERO
    if _nonzero(c0):
        out = out + TruncSeries.const(g.var, c0, order)
    gp = TruncSeries.const(g.var, Fraction(1), order)  # g^k, truncated as we go
    for k in range(1, fn.order):
        gp = series_mul(gp, gn)
        if gp.floor >= order:
            break
        ck = fn.coeff(k)
        if _nonzero(ck):
            out = out + gp.map_coeffs(lambda c, ck=ck: ck * c)
    return out.truncate(order)


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
    b = {1: hn.coeff(0)}
    for n in range(2, f.order):
        hn = series_mul(hn, h)
        b[n] = hn.coeff(n - 1) / n
    return TruncSeries.from_coeff_map(f.var, b, f.order)


def series_residue(a: TruncSeries):
    """Coefficient of x^{-1}; errors when -1 lies outside the stored window."""
    if not (a.floor <= -1 <= a.order - 1):
        raise IndexError("exponent -1 outside the stored window")
    return a.coeff(-1)


class BivarSeries:
    """Rectangular truncated series in two variables.

    Mostly a container: the sewing identity consumes its monomials one by
    one after substituting (xi, q/xi) or (q/w, w).
    """

    __slots__ = ("vars", "floorA", "floorB", "orders", "coeffs")

    def __init__(self, variables, floorA, floorB, coeffs, orders=None):
        self.vars = tuple(variables)
        if len(self.vars) != 2:
            raise ValueError("need exactly two variables")
        coeffs = [list(row) for row in coeffs]
        rows = len(coeffs)
        cols = len(coeffs[0]) if rows else 0
        if any(len(row) != cols for row in coeffs):
            raise ValueError("coefficient array must be rectangular")
        if orders is None:
            orders = (floorA + rows, floorB + cols)
        if orders != (floorA + rows, floorB + cols):
            raise ValueError("orders inconsistent with array shape")
        self.floorA = floorA
        self.floorB = floorB
        self.orders = orders
        self.coeffs = coeffs

    @classmethod
    def from_monomials(cls, variables, cmap: dict, orders):
        if not cmap:
            return cls(variables, orders[0], orders[1], [], orders)
        floorA = min(k[0] for k in cmap)
        floorB = min(k[1] for k in cmap)
        rows = orders[0] - floorA
        cols = orders[1] - floorB
        arr = [[_ZERO] * cols for _ in range(rows)]
        for (r, s), c in cmap.items():
            arr[r - floorA][s - floorB] = Fraction(c) if isinstance(c, int) else c
        return cls(variables, floorA, floorB, arr, orders)

    def monomials(self):
        """Yield (r, s, coeff) for the nonzero stored coefficients."""
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c:
                    yield (self.floorA + i, self.floorB + j, c)


class QExpansion:
    """Series sum_{n=0}^{order-1} coeffs[n] * q^(offset + n), offset rational."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset, coeffs: Sequence):
        self.offset = Fraction(offset)
        self.coeffs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coeff_at(self, exponent):
        """Coefficient of q^exponent; exponent must differ from offset by an int."""
        d = Fraction(exponent) - self.offset
        if d.denominator != 1:
            return _ZERO
        n = int(d)
        if n < 0:
            return _ZERO
        if n >= len(self.coeffs):
            raise IndexError("exponent beyond truncation")
        return self.coeffs[n]

    def shift_offset(self, delta) -> "QExpansion":
        return QExpansion(self.offset + Fraction(delta), list(self.coeffs))

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if not isinstance(other, QExpansion):
            return NotImplemented
        d = other.offset - self.offset
        if d.denominator != 1:
            raise ValueError("offsets differ by a non-integer; not addable")
        d = int(d)
        if d < 0:
            return other + self
        # smaller offset wins; other shifts up by d
        order = min(self.order, other.order + d)
        coeffs = [self.coeffs[n] + (other.coeffs[n - d] if 0 <= n - d < other.order else _ZERO)
                  for n in range(order)]
        return QExpansion(self.offset, coeffs)

    def __neg__(self):
        return QExpansion(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        d = other.offset - self.offset
        if d.denominator != 1:
            return all(c == 0 for c in self.coeffs) and all(c == 0 for c in other.coeffs)
        d = int(d)
        if d < 0:
            return other == self
        if any(self.coeffs[n] != 0 for n in range(min(d, self.order))):
            return False
        n_common = min(self.order - d, other.order)
        if n_common < 0:
            n_common = 0
        return all(self.coeffs[n + d] == other.coeffs[n] for n in range(n_common))

    # Equality compares only the common window, so it is not transitive and
    # no non-constant hash can agree with it.
    __hash__ = None

    def q_ddq(self) -> "QExpansion":
        """Apply q d/dq: multiplies the q^(offset+n) coefficient by offset+n."""
        return QExpansion(self.offset, [c * (self.offset + n) for n, c in enumerate(self.coeffs)])

    def __repr__(self):
        terms = [f"{c}*q^{self.offset + n}" for n, c in enumerate(self.coeffs) if c]
        return "<" + (" + ".join(terms) if terms else "0") + f" + O(q^{self.offset + self.order})>"
