"""Genus one: Zhu's recursion for torus traces of descendant insertions.

For a VOA V, a V-module M and a, b in V (Y. Zhu, J. AMS 9, 1996, 4.3; in
the normalization of Mason-Tuite, without factors 2 pi i):

    Z(a[-1]b) = tr o(a) o(b) q^{L_0} + sum_{k>=1} E_2k(q) Z(a[2k-1]b),

with Z(v) = sum_n tr_{M(n)} o(v) q^n, o(v) = v_{wt v - 1} on homogeneous v,
E_2k(q) = -B_2k/(2k)! + (2/(2k-1)!) sum_{n>=1} sigma_{2k-1}(n) q^n, and the
square-bracket modes of Y[a, z] = Y(e^{z L_0} a, e^z - 1):

    a[n] = sum_{m>=n} [z^{-n-1}] e^{z wt a} (e^z - 1)^{-m-1} a_m,

finite on b because a_m b = 0 once m >= wt a + wt b.  The Bernoulli
numbers, sigma_k and the Laurent coefficients come from plain Fraction
loops here, not from the series kernels, so the identity ties the mode
blocks and the torus traces to an independent q-series computation.
"""

from fractions import Fraction as F
from functools import lru_cache
from math import comb, factorial

from hypothesis import given, settings, strategies as st

from voablocks.graded import vec_add_into, weight_of
from voablocks.models import fock_module, heisenberg_model, virasoro_model
from voablocks.sewing import torus_character


@lru_cache(maxsize=None)
def bernoulli(n):
    """B_0..B_n with B_1 = -1/2: sum_{k<=m} C(m+1, k) B_k = 0 for m >= 1."""
    B = [F(1)]
    for m in range(1, n + 1):
        B.append(-sum(comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))
    return tuple(B)


def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(two_k, K):
    """[q^0..q^K] of E_2k."""
    return [-bernoulli(two_k)[two_k] / factorial(two_k)] + [
        F(2 * sigma(two_k - 1, n), factorial(two_k - 1)) for n in range(1, K + 1)]


def mul(a, b, N):
    """Product of two power series, coefficient lists to degree N."""
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(N + 1)]


@lru_cache(maxsize=None)
def bracket_coeff(wt, n, m):
    """[z^{-n-1}] e^{z wt} (e^z - 1)^{-m-1} = [z^{m-n}] e^{z wt} (z/(e^z - 1))^{m+1}."""
    d = m - n
    if d < 0:
        return F(0)
    if m + 1 >= 0:  # z/(e^z - 1) = sum B_k z^k / k!
        base = [bernoulli(d)[k] / factorial(k) for k in range(d + 1)]
    else:  # (e^z - 1)/z = sum z^k / (k+1)!
        base = [F(1, factorial(k + 1)) for k in range(d + 1)]
    power = [F(1)] + [F(0)] * d
    for _ in range(abs(m + 1)):
        power = mul(power, base, d)
    return sum(power[i] * F(wt ** (d - i), factorial(d - i)) for i in range(d + 1))


def bracket_mode(voa, a, n, b):
    """a[n] b for VOA labels a, b."""
    out = {}
    for m in range(n, weight_of(a) + weight_of(b)):
        c = bracket_coeff(weight_of(a), n, m)
        if c:
            vec_add_into(out, voa.mode_apply(a, m, {b: F(1)}), c)
    return out


def Z(M, v, K):
    """sum_n tr_{M(n)} o(v) q^n to q^K, summed over the homogeneous parts of v."""
    out = [F(0)] * (K + 1)
    parts = {}
    for label, c in v.items():
        parts.setdefault(weight_of(label), {})[label] = c
    for part in parts.values():
        out = [x + y for x, y in zip(out, torus_character(M, part, K).coeffs)]
    return out


def zero_mode_pair_trace(M, a, b, K):
    """sum_n tr_{M(n)} o(a) o(b) q^n."""
    out = []
    for n in range(K + 1):
        tr = F(0)
        for w in M.basis_at(n):
            ob = M.mode_apply(b, weight_of(b) - 1, {w: F(1)})
            tr += M.mode_apply(a, weight_of(a) - 1, ob).get(w, F(0))
        out.append(tr)
    return out


def zhu_sides(M, a, b, K):
    voa = M.voa
    lhs = Z(M, bracket_mode(voa, a, -1, b), K)
    rhs = zero_mode_pair_trace(M, a, b, K)
    k = 1
    while 2 * k - 1 < weight_of(a) + weight_of(b):
        term = mul(eisenstein(2 * k, K), Z(M, bracket_mode(voa, a, 2 * k - 1, b), K), K)
        rhs = [x + y for x, y in zip(rhs, term)]
        k += 1
    return lhs, rhs


@lru_cache(maxsize=None)
def model(kind, param):
    if kind == "heisenberg":
        return heisenberg_model()
    if kind == "fock":
        return fock_module(model("heisenberg", None), param)
    return virasoro_model(param)


params = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
models = st.one_of(
    st.just(("heisenberg", None)),
    st.tuples(st.just("fock"), params),
    st.tuples(st.just("virasoro"), params))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(models, st.integers(0, 8), st.data())
def test_zhu_recursion(kind_param, K, data):
    M = model(*kind_param)
    labels = [l for wt in range(1, 5) for l in M.voa.basis_at(wt)]
    a = data.draw(st.sampled_from(labels))
    b = data.draw(st.sampled_from(labels))
    lhs, rhs = zhu_sides(M, a, b, K)
    assert lhs == rhs, (M.name, a, b, K)


def test_zhu_recursion_euler_anchor():
    # a = b = alpha on F_mu: a[-1]b = alpha_{-1}^2 1 - 1/12, a[1]b = 1, and the
    # identity reduces to Euler's sum n p(n) q^n = (sum sigma_1(n) q^n)(sum p(n) q^n)
    M = model("fock", F(2, 3))
    assert bracket_mode(M.voa, (1,), -1, (1,)) == {(1, 1): F(1), (): F(-1, 12)}
    assert bracket_mode(M.voa, (1,), 1, (1,)) == {(): F(1)}
    lhs, rhs = zhu_sides(M, (1,), (1,), 8)
    assert lhs == rhs
    assert lhs[:4] == [F(4, 9) - F(1, 12), F(4, 9) + 2 - F(1, 12),
                       2 * (F(4, 9) + 4 - F(1, 12)), 3 * (F(4, 9) + 6 - F(1, 12))]


def test_L0_bracket_anchor():
    # L[0] = omega[1] = L_0 + sum_{i>=1} (-1)^{i-1} L_i / (i(i+1)), with L_n
    # from the models' own Sugawara resp. PBW form
    for voa in (model("heisenberg", None), virasoro_model(F(-22, 5))):
        omega, = voa.conformal_vector
        scale = voa.conformal_vector[omega]
        for wt in range(5):
            for label in voa.basis_at(wt):
                got = {k: scale * c for k, c in bracket_mode(voa, omega, 1, label).items()}
                want = {label: F(wt)} if wt else {}
                for i in range(1, wt + 1):
                    vec_add_into(want, voa.L_apply(i, {label: F(1)}),
                                 F((-1) ** (i - 1), i * (i + 1)))
                assert got == want, (voa.name, label)
