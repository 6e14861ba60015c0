"""The Virasoro bracket and exponentials of raising operators.

``[L_m, L_n] = (m-n) L_{m+n} + (1/12)(m^3-m) delta_{m,-n} c``

with central charge c.  ``apply_exp_raising`` realizes the coordinate-change
representation factor c0^{Ltilde0} exp(sum_{n>0} c_n L_n) on any module that
provides an ``L_apply(n, vec)`` action; the exponential is a finite sum
because L_n with n > 0 lowers the grading weight by n.  ``exp_terms`` is the
one X^k w / k! loop over generic scalars; it also builds the e^{L_1} of
``models.gamma_twist``.  With rational c0, c_n and vector, ``apply_exp_raising``
sums the same terms on the integer accumulator ``graded._IntVectors``, the one
the weight blocks use, and builds one Fraction per output entry, with the
same values and key order; series-valued scalars take ``exp_terms``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .graded import _IntVectors, vec_add_into, vec_scale, vec_scale_ltilde0, weight_of
from .series import _integer_form, _is_scalar

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
    integer power either way).  When c0 is a Fraction and every c_n and
    every value of w is a rational, the terms X^k w / k! are summed as
    integer numerators over one running common denominator: L_n images
    are the module's memoized read-only ``_L`` images per label, and the
    denominator grows to an lcm only when an image needs it.  One
    Fraction is built per output entry, with c0^{wt} folded in.  Modes are
    the outer loop and labels the inner one, as in ``exp_terms`` over the
    generic step, so the result has the same key order.  Series-valued
    scalars take the generic loop.
    """
    if _is_scalar(c0) and c0 == 0:
        raise ValueError("c0 = 0 is not a coordinate change")
    cf, wf = _integer_form(coeffs), _integer_form(list(w.values()))
    if isinstance(c0, Fraction) and cf is not None and wf is not None:
        return _exp_raising_integer(cf, wf, c0, w, module)

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


def _exp_raising_integer(cf, wf, c0: Fraction, w: dict, module) -> dict:
    """``apply_exp_raising`` on integer numerators: ``cf`` and ``wf`` are
    the integer forms of c_1, c_2, ... and of w's values.  The output, and
    per term the images L_i and dc X of its numerators, are accumulators
    ``graded._IntVectors``.  L_i of a term is summed label by label from
    the module's per-label ``_L``, as ``L_apply`` does, and then added to the
    term's image, as the generic ``raising`` does, so entries appear, cancel
    and reappear in the same order."""
    (cn, dc), (wn, den) = cf, wf
    modes = [(i, c) for i, c in enumerate(cn, start=1) if c]
    out = _IntVectors({0: dict(zip(w, wn))}, den)
    term, tden = {label: n for label, n in zip(w, wn) if n}, den  # X^k w / k! over tden
    k = 0
    while term:
        k += 1
        nxt = _IntVectors({0: {}})  # dc X of the term's numerators
        for i, c in modes:
            part = _IntVectors({0: {}})  # L_i of the term's numerators
            for label, n in term.items():
                part.add(part.vecs[0], module._L(i, label).items(), n, 1)
            nxt.add(nxt.vecs[0], part.vecs[0].items(), c, part.den)
        term, tden = nxt.vecs[0], tden * nxt.den * dc * k
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
