"""The ODE q d/dq psi = A(q) psi with a simple pole at q = 0.

Formal side (exact): with A(q) = sum_n Ahat_n q^n the modes of a solution
psi = sum psihat_n q^n satisfy

    (n - Ahat_0) psihat_n = sum_{j<n} Ahat_{n-j} psihat_j,

solved order by order.  PoleODE keeps A(q) as its entries and, built from
them once, as integer rows: each row of Ahat_0..Ahat_{order-1} as integer
numerators over one denominator.  The sum on the right, in the recursion
and in the residual, is one integer dot product per row: the modes are
kept over one common denominator (``formal_solve`` extends it as each mode
is found, and a FormalSolution converts its modes once for every
residual), and one Fraction is built per row.  At a resonance
(n - Ahat_0 singular) no mode is ever invented: a seed must be supplied
and is verified against the recursion.  The convergence certificate
mirrors the classical majorant argument: with M the resonance bound,
beta = M + 1 dominates ||(n - Ahat_0)^{-1}|| for n > M via the Neumann
series (n - Ahat_0)^{-1} = n^{-1} sum_j (Ahat_0/n)^j, alpha = C / (1 - g r1)
bounds sum ||Ahat_n|| r1^n for a geometric majorant ||Ahat_n|| <= C g^n,
gamma = max(1, alpha beta), and every radius r0 < r1/gamma works; we
certify r0 = r1/(2 gamma) together with the inequality
r1^n ||psihat_n|| <= gamma n^{-1} sum_{j<n} r1^j ||psihat_j||
on all computed modes beyond M, exactly, on integers: the column sums of
the integer rows, running powers of g, the modes' integer numerators, the
numerators and denominators of r1 and gamma, and the sum kept as a
running integer.

Numeric side (the only floating-point code in the package): classical
fixed-step RK4 transport of psi' = A(q) psi / q along straight segments
between waypoints, with a step-halving Richardson error estimate.  Each
transport evaluates, by Horner's rule, one private complex copy of the
entries, each on its own window [floor, order).  A(q) is evaluated at two
points per step: the midpoint serves k2 and k3, and the step's end serves
k4 and the next step's k1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .linalg import mat_vec, solve_linear
from .series import TruncSeries, _integer_form

__all__ = [
    "PoleODE",
    "FormalSolution",
    "RadiusEstimate",
    "ResonanceError",
    "formal_solve",
    "radius_estimate",
    "NumericPath",
    "numeric_continue",
]

F1 = Fraction(1)


class PoleODE:
    """q d/dq psi = A(q) psi with A an N x N matrix of q-series that are
    holomorphic at 0 (entry floors >= 0)."""

    def __init__(self, entries):
        n = len(entries)
        if not n:
            raise ValueError("A must be at least 1 x 1, not 0 x 0")
        if any(len(row) != n for row in entries):
            raise ValueError("A must be square")
        self.dim = n

        def entry(e):
            if not isinstance(e, TruncSeries):
                raise ValueError(f"an entry must be a q-series, not {e!r}")
            if e.floor < 0:
                raise ValueError("entries must be holomorphic at q = 0")
            return e

        self.entries = [[entry(e) for e in row] for row in entries]
        self.order = min(e.order for row in self.entries for e in row)
        # per row i, Ahat_m[i][k] flattened over m = order-1 .. 0 (then k) in
        # integer form, so the (j, k) terms of a mode sum are one slice
        self._rows = tuple(_integer_form([e.coeff(m) for m in range(self.order - 1, -1, -1)
                                          for e in row]) for row in self.entries)

    def _check(self, k: int):
        if not 0 <= k < self.order:
            raise IndexError(f"coefficient {k} outside the common window")

    def coeff_matrix(self, k: int):
        """Ahat_k, defined for 0 <= k < order, as fresh read-only tuples."""
        self._check(k)
        return tuple(tuple(e.coeff(k) for e in row) for row in self.entries)

    def __repr__(self):
        return f"PoleODE(dim={self.dim}, order={self.order})"


def _mode_sum(ode: PoleODE, nums, den: int, n: int):
    """sum_{j<=n} Ahat_{n-j} psihat_j over the modes psihat_0, psihat_1, ...
    given flattened as integer numerators over den, exactly: per row one
    integer dot product over the flattened (j, k) terms, divided once.
    The row from Ahat_n on ends at Ahat_0, so modes beyond n are not read,
    and modes not given count as zero."""
    ode._check(n)
    start = (ode.order - 1 - n) * ode.dim
    return [Fraction(sum(map(mul, row[start:], nums)), d * den) for row, d in ode._rows]


class ResonanceError(Exception):
    """(n - Ahat_0) is singular at a required n and no valid seed exists."""

    def __init__(self, n, reason):
        super().__init__(f"resonance at n = {n}: {reason}")
        self.n = n


class FormalSolution:
    """Modes psihat_0..psihat_K of a formal solution; the recursion
    residual is re-verified on construction."""

    def __init__(self, ode: PoleODE, modes):
        self.ode = ode
        self.modes = [list(map(Fraction, v)) for v in modes]
        if any(len(v) != ode.dim for v in self.modes):
            raise ValueError(f"each mode must have length {ode.dim}")
        # the modes' integer form, built once for every residual
        self._nums, self._den = _integer_form([x for v in self.modes for x in v])
        for n in range(len(self.modes)):
            r = self.residual(n)
            if any(r):
                raise AssertionError(f"recursion residual nonzero at n = {n}")

    @property
    def K(self) -> int:
        return len(self.modes) - 1

    def residual(self, n: int):
        """n psihat_n - sum_{j<=n} Ahat_{n-j} psihat_j, exactly."""
        img = _mode_sum(self.ode, self._nums, self._den, n)
        return [n * x - y for x, y in zip(self.modes[n], img)]

    def __repr__(self):
        return f"FormalSolution(K={self.K}, dim={self.ode.dim})"


def formal_solve(ode: PoleODE, seeds: dict, K: int) -> FormalSolution:
    """Run the mode recursion to order K.  ``seeds`` maps a resonant index
    n to the chosen psihat_n; each seed is verified against the recursion
    (fail closed: no seed is ever invented, and an inconsistent or missing
    seed raises ResonanceError naming n)."""
    if K >= ode.order:
        raise ValueError(f"order {K} beyond the coefficient window {ode.order}")
    A0 = ode.coeff_matrix(0)
    N = ode.dim
    if any(len(v) != N for v in seeds.values()):
        raise ValueError(f"each seed must have length {N}")
    modes = []
    nums, den = [], 1  # the modes so far, flattened, over one running denominator
    for n in range(K + 1):
        rhs = _mode_sum(ode, nums, den, n)
        mat = [[(n if i == k else 0) - A0[i][k] for k in range(N)] for i in range(N)]
        res = solve_linear(mat, rhs)
        if res.unique:
            if n in seeds and [Fraction(x) for x in seeds[n]] != res.solution:
                raise ResonanceError(n, "seed supplied at a non-resonant index "
                                        "disagrees with the recursion")
            mode = res.solution
        elif n not in seeds:
            kind = "no solution" if not res.consistent else \
                f"kernel of dimension {len(res.free)}"
            raise ResonanceError(n, f"(n - Ahat_0) singular ({kind}); seed required")
        else:
            mode = [Fraction(x) for x in seeds[n]]
            if mat_vec(mat, mode) != rhs:
                raise ResonanceError(n, "seed violates the recursion")
        modes.append(mode)
        grown = lcm(den, *(x.denominator for x in mode))
        nums = [x * (grown // den) for x in nums] + \
            [x.numerator * (grown // x.denominator) for x in mode]
        den = grown
    return FormalSolution(ode, modes)


class RadiusEstimate:
    def __init__(self, r0, r1, alpha, beta, gamma, M, growth_checked):
        self.r0 = r0
        self.r1 = r1
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.M = M
        self.growth_checked = growth_checked

    def __repr__(self):
        return (f"RadiusEstimate(r0={self.r0}, alpha={self.alpha}, "
                f"beta={self.beta}, gamma={self.gamma}, M={self.M})")


def radius_estimate(ode: PoleODE, r1, majorant,
                    solution: FormalSolution | None = None) -> RadiusEstimate:
    """Certify a convergence radius r0 for formal solutions.

    alpha, the bound on sum_n ||Ahat_n|| r1^n, is derived from a declared
    geometric majorant (C, g) with ||Ahat_n|| <= C g^n — the declaration is
    verified against every computed coefficient (sound up to the truncation
    order) and requires g r1 < 1, giving alpha = C / (1 - g r1).  When a
    FormalSolution of ``ode`` is passed, the growth inequality

        r1^n ||psihat_n|| <= gamma n^{-1} sum_{j<n} r1^j ||psihat_j||

    is checked exactly for every computed n > M (``_growth_checked``); a
    solution of another PoleODE is refused before any check runs."""
    if solution is not None and solution.ode is not ode:
        raise ValueError("solution is a formal solution of another PoleODE, "
                         "not of the one whose radius is estimated")
    r1 = Fraction(r1)
    if r1 <= 0:
        raise ValueError("r1 must be positive")
    ode._check(0)
    # ||Ahat_m|| = norms[m] / L, the max column sum of the integer rows brought
    # over the one lcm L of their denominators
    L = lcm(*(d for _, d in ode._rows))
    cols = [sum(c) for c in zip(*([abs(x) * (L // d) for x in row] for row, d in ode._rows))]
    dim, order = ode.dim, ode.order
    norms = [max(cols[(order - 1 - m) * dim:(order - m) * dim], default=0) for m in range(order)]
    M = -(-norms[0] // L)  # ceil
    beta = Fraction(M + 1)
    C, g = Fraction(majorant[0]), Fraction(majorant[1])
    bn, bd = C.numerator, C.denominator  # C g^n = bn / bd, running powers
    for n, nn in enumerate(norms):
        if nn * bd > bn * L:
            raise ValueError(f"majorant fails at coefficient {n}: ||Ahat_{n}|| = "
                             f"{Fraction(nn, L)} > {Fraction(bn, bd)}")
        bn, bd = bn * g.numerator, bd * g.denominator
    if g * r1 >= 1:
        raise ValueError("majorant gives no finite bound on |q| <= r1")
    alpha = C / (1 - g * r1)
    gamma = max(F1, alpha * beta)
    r0 = r1 / (2 * gamma)
    growth_checked = 0 if solution is None else _growth_checked(solution, r1, gamma, M)
    return RadiusEstimate(r0, r1, alpha, beta, gamma, M, growth_checked)


def _growth_checked(solution: FormalSolution, r1: Fraction, gamma: Fraction, M: int) -> int:
    """The number of modes n > M of ``solution`` checked against the growth
    inequality of ``radius_estimate``; the first n that fails it raises
    AssertionError naming n.  A solution of the ODE whose majorant gave
    gamma and M passes at every n, by the majorant argument."""
    # on the integer form: with r1 = p/q, gamma = a/b and ||psihat_n|| =
    # S_n / den, the inequality at n is b n p^n S_n <= a T_n, where
    # T_n = sum_{j<n} p^j S_j q^{n-j}, so T_{n+1} = q (T_n + p^n S_n)
    p, q = r1.numerator, r1.denominator
    a, b = gamma.numerator, gamma.denominator
    dim, nums = solution.ode.dim, solution._nums
    checked, T, pn = 0, 0, 1  # T_n and p^n
    for n in range(solution.K + 1):
        w = pn * sum(map(abs, nums[n * dim:(n + 1) * dim]))  # p^n S_n
        if n > M:
            if b * n * w > a * T:
                raise AssertionError(f"growth inequality fails at n = {n}")
            checked += 1
        T = q * (T + w)
        pn *= p
    return checked


class NumericPath:
    """Ordered waypoints in the punctured disc; transport runs along the
    straight segments between consecutive waypoints."""

    def __init__(self, waypoints):
        self.waypoints = [complex(w) for w in waypoints]
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least two waypoints")
        if any(abs(w) < 1e-15 for w in self.waypoints):
            raise ValueError("path must avoid the pole at q = 0")

    def segments(self):
        return list(zip(self.waypoints, self.waypoints[1:]))


def _rk4_transport(ode: PoleODE, path: NumericPath, psi, steps: int):
    # the float copy of A: per entry its floor and its coefficients on the
    # entry's own window [floor, order), highest power first for Horner
    table = [[(e.floor, [complex(c) for c in reversed(e.coeffs)]) for e in row]
             for row in ode.entries]

    def entry(q, floor, coeffs):
        acc = 0j
        for c in coeffs:
            acc = acc * q + c
        return acc * q ** floor if floor else acc

    def matrix(q):
        return [[entry(q, *fc) for fc in row] for row in table]

    def field(q, A, v):
        return [sum(a * x for a, x in zip(row, v)) / q for row in A]

    v = [complex(x) for x in psi]
    for a, b in path.segments():
        h = (b - a) / steps
        if abs(h) == 0.0:
            raise ValueError("step underflow: degenerate segment")
        q = a
        A = matrix(q)
        for _ in range(steps):
            if min(abs(q), abs(q + h)) < 10 * abs(h):
                raise ValueError("pole proximity: step size comparable to |q|")
            # A at the midpoint serves k2 and k3; A at q + h serves k4 and
            # is the next step's A(q)
            mid, end = q + h / 2, q + h
            A_mid, A_end = matrix(mid), matrix(end)
            k1 = field(q, A, v)
            k2 = field(mid, A_mid, [x + h / 2 * k for x, k in zip(v, k1)])
            k3 = field(mid, A_mid, [x + h / 2 * k for x, k in zip(v, k2)])
            k4 = field(end, A_end, [x + h * k for x, k in zip(v, k3)])
            v = [x + h / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
                 for x, a1, a2, a3, a4 in zip(v, k1, k2, k3, k4)]
            q, A = end, A_end
    return v


def numeric_continue(ode: PoleODE, psi_start, path, steps: int = 1000):
    """Transport psi along the path with classical RK4; returns
    (value, error_estimate) where the estimate is the step-halving
    Richardson difference |psi_h - psi_{h/2}| / 15.  Deterministic."""
    if not isinstance(path, NumericPath):
        path = NumericPath(path)
    if steps < 1:
        raise ValueError("steps must be positive")
    if ode.order < 1:
        raise ValueError(f"A(q) is known to order {ode.order}; numeric continuation "
                         f"needs order >= 1")
    coarse = _rk4_transport(ode, path, psi_start, steps)
    fine = _rk4_transport(ode, path, psi_start, 2 * steps)
    err = max(abs(x - y) for x, y in zip(coarse, fine)) / 15.0
    return fine, err
