"""The Virasoro bracket and exponentials of raising operators.

``[L_m, L_n] = (m-n) L_{m+n} + (1/12)(m^3-m) delta_{m,-n} c``

with central charge c.  ``apply_exp_raising`` realizes the coordinate-change
representation factor c0^{Ltilde0} exp(sum_{n>0} c_n L_n) on any module that
provides an ``L_apply(n, vec)`` action; the exponential is a finite sum
because L_n with n > 0 lowers the grading weight by n.  ``exp_terms`` is the
one X^k w / k! loop; it also builds the e^{L_1} of ``models.gamma_twist``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .graded import vec_add_into, vec_scale, vec_scale_ltilde0
from .series import _is_scalar

__all__ = ["vir_bracket", "exp_terms", "apply_exp_raising", "gbinom"]


def vir_bracket(m: int, n: int, c) -> tuple[int, Fraction]:
    """[L_m, L_n] = (m-n) L_{m+n} + central; returns (m-n, central scalar)."""
    central = Fraction(m ** 3 - m, 12) * Fraction(c) if m == -n else Fraction(0)
    return m - n, central


def gbinom(j: int, l: int) -> int:
    """Generalized binomial C(j, l) for j in Z, l in N (always an integer),
    0 for l < 0; for j < 0 by upper negation C(j, l) = (-1)^l C(l-j-1, l)."""
    if l < 0:
        return 0
    if j >= 0:
        return comb(j, l)
    b = comb(l - j - 1, l)
    return -b if l % 2 else b


def exp_terms(step, w: dict) -> list:
    """The terms X^k w / k! of e^X w for k = 0, 1, ... while nonzero, with X
    given as ``step(vec) -> X vec``.  Exact zeros are dropped, so the list is
    finite whenever X lowers the grading weight."""
    terms = []
    k = 0
    while w:
        terms.append(w)
        k += 1
        w = {label: c for label, c in vec_scale(step(w), Fraction(1, k)).items() if c}
    return terms


def apply_exp_raising(coeffs, c0, w: dict, module) -> dict:
    """c0^{Ltilde0} . exp(sum_{k>=1} coeffs[k-1] L_k) . w on a graded module.

    ``coeffs`` lists c_1, c_2, ...; ``w`` is a label->coefficient dict.
    Scalars may be Fractions or series-valued (the grading power c0^n is an
    integer power either way).
    """
    if _is_scalar(c0) and c0 == 0:
        raise ValueError("c0 = 0 is not a coordinate change")

    def raising(vec: dict) -> dict:
        out: dict = {}
        for i, ci in enumerate(coeffs, start=1):
            if not (_is_scalar(ci) and ci == 0):
                vec_add_into(out, module.L_apply(i, vec), ci)
        return out

    out = dict(w)
    for term in exp_terms(raising, w)[1:]:
        vec_add_into(out, term)
    return vec_scale_ltilde0(out, c0)
