"""Weights and dict-vector helpers for N-graded spaces with labeled bases.

Basis labels throughout the library are partition tuples ``(n1, n2, ...)``
sorted in non-increasing order; the grading weight of a label is the sum of
its parts.  Dual spaces reuse the same labels (a dual basis vector is
identified by the label it pairs to 1 with), so the dual-basis pairing is
label equality.

Vectors are plain ``{label: coefficient}`` dicts of rationals: no vector
holds a series (see the series module notes).  s^{Ltilde0} on a vector is
U of the scaling z -> s z (``coordchange``).

Exact rational sums that build many entries run on the one private
accumulator ``_IntVectors``: integer numerators over one running common
denominator, one Fraction per entry at the end (the common-denominator
representation of ``series.series_mul``).  Its users are the weight blocks
in ``models`` (the Jacobi recursion and the contragredient transpose) and
``virasoro.apply_exp_raising``, which sums U(rho) and the contragredient
twist.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "weight_of",
    "vec_add_into",
    "vec_weight_project",
    "vec_max_weight",
    "vec_is_zero",
]

_ZERO = Fraction(0)


def weight_of(label: tuple) -> int:
    """L-tilde-0 weight of a basis label: the sum of its parts."""
    return sum(label)


def vec_add_into(dst: dict, src: dict, c=1) -> dict:
    """dst += c * src, dropping exact zeros. Mutates and returns dst."""
    for label, a in src.items():
        v = dst.get(label, _ZERO) + c * a
        if v:
            dst[label] = v
        elif label in dst:
            del dst[label]
    return dst


class _IntVectors:
    """Rational vectors summed as integer numerators over one running common
    denominator: ``vecs`` maps each target to {label: int}, and every entry
    is that int over ``den``."""

    __slots__ = ("vecs", "den")

    def __init__(self, vecs: dict, den: int = 1):
        self.vecs = vecs
        self.den = den

    def add(self, img: dict, items, n: int, d: int):
        """img += (n/d) * items, for ``img`` one of the ``vecs`` and ``items``
        (label, rational) pairs; ints count as rationals.  ``den`` grows to
        an lcm, rescaling every stored numerator, only when a term's
        denominator does not divide it.  An entry whose sum reaches 0 is
        popped, as ``vec_add_into`` does, so the keys keep its order."""
        den = self.den
        for k, c in items:
            cd = d * c.denominator
            if den % cd:
                s = lcm(den, cd) // den
                den *= s
                for vec in self.vecs.values():
                    for key in vec:
                        vec[key] *= s
            v = img.get(k, 0) + n * c.numerator * (den // cd)
            if v:
                img[k] = v
            else:
                img.pop(k, None)
        self.den = den

    def fractions(self) -> dict:
        """{target: {label: Fraction}}: one Fraction per entry."""
        den = self.den
        if den == 1:  # integer sums: Fraction(n) skips the gcd
            return {t: {k: Fraction(n) for k, n in vec.items()} for t, vec in self.vecs.items()}
        return {t: {k: Fraction(n, den) for k, n in vec.items()} for t, vec in self.vecs.items()}


def vec_weight_project(v: dict, n: int) -> dict:
    return {label: a for label, a in v.items() if weight_of(label) == n}


def vec_max_weight(v: dict) -> int:
    return max((weight_of(label) for label in v), default=-1)


def vec_is_zero(v: dict) -> bool:
    return not any(v.values())
