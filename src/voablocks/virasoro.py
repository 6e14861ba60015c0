"""The Virasoro bracket and exponentials of raising operators.

``[L_m, L_n] = (m-n) L_{m+n} + (1/12)(m^3-m) delta_{m,-n} c``

with central charge c.  ``apply_exp_raising`` realizes the coordinate-change
representation factor c0^{Ltilde0} exp(sum_{n>0} c_n L_n) on any module that
provides the per-label L_n images ``_L(n, label)``; the exponential is a
finite sum because L_n with n > 0 lowers the grading weight by n.  Its
scalars are rationals only: it sums the terms X^k w / k! on the integer
accumulator ``graded._IntVectors``, the one the weight blocks use, and
builds one Fraction per output entry.  It is the library's one e^{L_1}:
``models.gamma_twist`` reads the contragredient twist off e^{L_1} v.  Only
Huang's check, whose c_n are z-series, sums its own exponential.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .graded import _IntVectors, weight_of
from .series import _integer_form, _is_scalar

__all__ = ["vir_bracket", "apply_exp_raising", "gbinom"]


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


def apply_exp_raising(coeffs, c0, w: dict, module) -> dict:
    """c0^{Ltilde0} . exp(sum_{k>=1} coeffs[k-1] L_k) . w on a graded module.

    ``coeffs`` lists c_1, c_2, ...; ``w`` is a label->coefficient dict.
    c0, every c_n and every value of w must be rationals (int or
    Fraction); any other scalar raises ValueError naming it.  The terms
    X^k w / k! are summed as integer numerators over one running common
    denominator on the accumulator ``graded._IntVectors``: each step
    adds c_i n times the module's memoized read-only image ``_L(i, label)``
    of every (mode i, label) pair straight into the next term, whose
    denominator grows to an lcm only when an image needs it.  One Fraction
    is built per output entry, with c0^{wt} folded in once per weight.
    Modes are the outer loop and labels the inner one, so a term's entries
    appear, cancel and reappear in the order of ``vec_add_into`` adding the
    (mode, label) images in that one pass, and the output's in the order of
    adding the terms in turn.
    """
    for x in (c0, *coeffs, *w.values()):
        if not _is_scalar(x):
            raise ValueError(f"U(rho) needs rational scalars, not {x!r}")
    if c0 == 0:
        raise ValueError("c0 = 0 is not a coordinate change")
    (cn, dc), (wn, den) = _integer_form(coeffs), _integer_form(list(w.values()))
    modes = [(i, c) for i, c in enumerate(cn, start=1) if c]
    out = _IntVectors({0: dict(zip(w, wn))}, den)
    term, tden = {label: n for label, n in zip(w, wn) if n}, den  # X^k w / k! over tden
    k = 0
    while term:
        k += 1
        nxt = _IntVectors({0: {}})  # dc X of the term's numerators
        img = nxt.vecs[0]
        for i, c in modes:
            for label, n in term.items():
                nxt.add(img, module._L(i, label).items(), c * n, 1)
        term, tden = img, tden * nxt.den * dc * k
        out.add(out.vecs[0], term.items(), 1, tden)
    p, q = c0.numerator, c0.denominator
    powers: dict = {}
    res = {}
    for label, n in out.vecs[0].items():
        wt = weight_of(label)
        pq = powers.get(wt)
        if pq is None:
            pq = powers[wt] = (p ** wt, out.den * q ** wt)
        res[label] = Fraction(n * pq[0], pq[1])
    return res
