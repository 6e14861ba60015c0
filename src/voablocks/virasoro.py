"""The Virasoro bracket and exponentials of raising operators.

``[L_m, L_n] = (m-n) L_{m+n} + (1/12)(m^3-m) delta_{m,-n} c``

with central charge c.  ``apply_exp_raising`` realizes the coordinate-change
representation factor c0^{Ltilde0} exp(sum_{n>0} c_n L_n) on any module that
provides an ``L_apply(n, vec)`` action; the exponential is a finite sum
because L_n with n > 0 lowers the grading weight by n.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import vec_add_into, vec_scale, weight_of
from .series import _is_scalar

__all__ = ["vir_bracket", "apply_exp_raising", "gbinom"]


def vir_bracket(m: int, n: int, c) -> tuple[int, Fraction]:
    """[L_m, L_n] = (m-n) L_{m+n} + central; returns (m-n, central scalar)."""
    central = Fraction(m ** 3 - m, 12) * Fraction(c) if m == -n else Fraction(0)
    return m - n, central


def gbinom(j: int, l: int) -> int:
    """Generalized binomial C(j, l) for j in Z, l in N (always an integer)."""
    if l < 0:
        return 0
    num = 1
    for i in range(l):
        num *= j - i
    for i in range(2, l + 1):
        num //= i
    return num


def apply_exp_raising(coeffs, c0, w: dict, module) -> dict:
    """c0^{Ltilde0} . exp(sum_{k>=1} coeffs[k-1] L_k) . w on a graded module.

    ``coeffs`` lists c_1, c_2, ...; ``w`` is a label->coefficient dict.
    Scalars may be Fractions or series-valued (the grading power c0^n is an
    integer power either way).
    """
    if _is_scalar(c0) and c0 == 0:
        raise ValueError("c0 = 0 is not a coordinate change")
    out = dict(w)
    term = dict(w)
    k = 0
    while term:
        k += 1
        nxt: dict = {}
        for i, ci in enumerate(coeffs, start=1):
            if _is_scalar(ci) and ci == 0:
                continue
            vec_add_into(nxt, module.L_apply(i, term), ci)
        term = vec_scale(nxt, Fraction(1, k))
        # drop exact zeros so the weight-lowering loop terminates
        term = {lab: c for lab, c in term.items() if c}
        if term:
            vec_add_into(out, term)
    return {label: a * c0 ** weight_of(label) for label, a in out.items()}
