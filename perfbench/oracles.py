"""Independent oracles for the benchmark's checks.

Nothing here imports voablocks: every expected value is computed from a
closed form or from a short textbook algorithm on plain lists of
Fractions, so a defect in the library cannot hide behind a check that
repeats the library's own code path.
"""

from __future__ import annotations

import cmath
from fractions import Fraction as F
from math import comb

# ---------------------------------------------------------------------------
# partition counting


def partition_counts(n_max: int, min_part: int = 1) -> list[int]:
    """p(n) for n = 0..n_max with every part >= min_part (coin-change DP)."""
    table = [1] + [0] * n_max
    for part in range(min_part, n_max + 1):
        for m in range(part, n_max + 1):
            table[m] += table[m - part]
    return table


def heisenberg_omega_trace(K: int, mu: F) -> list[F]:
    """tr_{M(n)} L_0 = (n + mu^2/2) p(n) on the Fock module F_mu."""
    p = partition_counts(K)
    return [(n + mu * mu / 2) * p[n] for n in range(K + 1)]


def virasoro_omega_trace(K: int) -> list[F]:
    """tr_{V(n)} L_0 = n p_{>=2}(n) on the Virasoro vacuum module."""
    p = partition_counts(K, 2)
    return [F(n * p[n]) for n in range(K + 1)]


def graded_character(K: int, model: str) -> list[F]:
    return [F(x) for x in partition_counts(K, 2 if model == "virasoro" else 1)]


def partitions(n: int, min_part: int = 1) -> list[tuple]:
    """Partitions of n into parts >= min_part, as non-increasing tuples."""
    if n == 0:
        return [()]
    return [(first,) + rest
            for first in range(n, min_part - 1, -1)
            for rest in partitions(n - first, min_part)
            if not rest or rest[0] <= first]


def pairing(u: dict, v: dict) -> F:
    """Dual-basis pairing of two label -> coefficient vectors."""
    return sum((c * v[label] for label, c in u.items() if label in v), F(0))


def weight(label: tuple) -> int:
    return sum(label)


# ---------------------------------------------------------------------------
# truncated power series on coefficient lists (index = exponent)


def ps_mul(a: list, b: list, n: int) -> list:
    out = [F(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def ps_compose(f: list, g: list, n: int) -> list:
    """f(g(z)) mod z^n by Horner's rule; needs g[0] == 0."""
    if g and g[0]:
        raise ValueError("composition needs g(0) = 0")
    out = [F(0)] * n
    for c in reversed(f[:n]):
        out = ps_mul(out, g, n)
        out[0] += c
    return out


def ps_reciprocal(a: list, n: int) -> list:
    inv0 = 1 / F(a[0])
    out = [inv0]
    for k in range(1, n):
        s = sum((a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)), F(0))
        out.append(-s * inv0)
    return out


def ps_deriv(a: list) -> list:
    return [k * a[k] for k in range(1, len(a))]


def schwarzian(f: list, n: int) -> list:
    """S f = f'''/f' - (3/2)(f''/f')^2 mod z^n, for f'(0) != 0."""
    f1 = ps_deriv(f)
    f2 = ps_deriv(f1)
    f3 = ps_deriv(f2)
    inv = ps_reciprocal(f1, n)
    r = ps_mul(f2, inv, n)
    t = ps_mul(f3, inv, n)
    rr = ps_mul(r, r, n)
    return [t[k] - F(3, 2) * rr[k] for k in range(n)]


def poly_list(poly: dict, n: int) -> list:
    out = [F(0)] * n
    for k, c in poly.items():
        if k < n:
            out[k] = F(c)
    return out


def extraction_closed_forms(poly: dict) -> list:
    """c0, c1, c2 of rho = c0 exp(sum c_n z^{n+1} d/dz) z from the Taylor
    coefficients a_k of rho: c0 = a1, c1 = a2/a1, c2 = a3/a1 - (a2/a1)^2."""
    a1, a2, a3 = (F(poly.get(k, 0)) for k in (1, 2, 3))
    return [a1, a2 / a1, a3 / a1 - (a2 / a1) ** 2]


def poly_compose(p1: dict, p2: dict) -> dict:
    n = max(p1) * max(p2) + 1
    out = ps_compose(poly_list(p1, n), poly_list(p2, n), n)
    return {k: c for k, c in enumerate(out) if c}


# ---------------------------------------------------------------------------
# the pole ODE q d/dq psi = a q/(1-q) psi, solved by psi = (1-q)^{-a}


def pochhammer_modes(a: F, K: int) -> list[F]:
    """Taylor coefficients of (1-q)^{-a}: (a)_n / n!."""
    out = [F(1)]
    for n in range(1, K + 1):
        out.append(out[-1] * (a + n - 1) / n)
    return out


def pole_ode_value(a: F, q: complex) -> complex:
    return cmath.exp(-float(a) * cmath.log(1 - q))


# ---------------------------------------------------------------------------
# Laurent tails of a rational function in partial-fraction form


def _expand_finite(poly: dict, poles: dict, p: F, order: int) -> dict:
    """Coefficients of f in t = zeta - p for exponents < order."""
    cmap: dict = {}

    def add(e, c):
        if e < order and c:
            cmap[e] = cmap.get(e, F(0)) + c

    for m, c in poles.get(p, {}).items():
        add(-m, c)
    for k, c in poly.items():
        for j in range(k + 1):
            add(j, c * comb(k, j) * p ** (k - j))
    for p2, part in poles.items():
        if p2 == p:
            continue
        d = p - p2
        for m, c in part.items():
            # (t + d)^{-m} = sum_e C(-m, e) d^{-m-e} t^e
            for e in range(order):
                add(e, c * (-1) ** e * comb(m + e - 1, e) / d ** (m + e))
    return cmap


def _expand_infinity(poly: dict, poles: dict, order: int) -> dict:
    """Coefficients of f in w = 1/zeta for exponents < order."""
    cmap: dict = {}

    def add(e, c):
        if e < order and c:
            cmap[e] = cmap.get(e, F(0)) + c

    for k, c in poly.items():
        add(-k, c)
    for p, part in poles.items():
        for m, c in part.items():
            # (1/w - p)^{-m} = w^m sum_e C(m+e-1, e) p^e w^e
            for e in range(max(order - m, 0)):
                add(m + e, c * comb(m + e - 1, e) * p ** e)
    return cmap


def laurent_tail(poly: dict, poles: dict, point, order: int, var: str):
    """(var, floor, coeffs, order) of f at a finite point or at "inf"."""
    if point == "inf":
        cmap = _expand_infinity(poly, poles, order)
    else:
        cmap = _expand_finite(poly, poles, point, order)
    cmap = {e: c for e, c in cmap.items() if c}
    floor = min(cmap, default=order)
    return (var, floor, [cmap.get(e, F(0)) for e in range(floor, order)], order)


# ---------------------------------------------------------------------------
# the Heisenberg generator mode alpha_n on partition labels


def alpha_mode(n: int, label: tuple, mu: F) -> dict:
    if n < 0:
        return {tuple(sorted(label + (-n,), reverse=True)): F(1)}
    if n == 0:
        return {label: mu} if mu else {}
    cnt = label.count(n)
    if not cnt:
        return {}
    rest = list(label)
    rest.remove(n)
    return {tuple(rest): F(n * cnt)}


def three_point_alpha(z0: F, w: dict, wp: dict, mu: F) -> F:
    """<Y(alpha_{-1} 1, z0) w, w'> = sum_n <alpha_n w, w'> z0^{-n-1}."""
    total = F(0)
    for wl, wc in w.items():
        for dl, dc in wp.items():
            n = weight(wl) - weight(dl)
            c = alpha_mode(n, wl, mu).get(dl)
            if c:
                total += wc * dc * c * z0 ** (-n - 1)
    return total
