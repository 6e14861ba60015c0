"""Exact linear algebra over the rationals.

Everything rests on one Gauss-Jordan reduction of the augmented rows
[A | b | I] with deterministic pivoting (first nonzero entry in column
order, scanning rows top to bottom).  Solving A x = b reads off a solution
and its free columns, or an inconsistency certificate: the identity block
y of the first zero row of A with nonzero b, so y A = 0 and y b != 0.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["LinSolve", "solve_linear", "mat_vec", "identity_matrix"]

F0 = Fraction(0)
F1 = Fraction(1)


class LinSolve:
    """Outcome of an exact linear solve.

    ``solution`` is a particular solution (free variables set to 0) or None;
    ``free`` lists the free column indices; ``certificate`` is a left-kernel
    row witnessing inconsistency (None when consistent)."""

    def __init__(self, solution, free, certificate, rank):
        self.solution = solution
        self.free = free
        self.certificate = certificate
        self.rank = rank

    @property
    def consistent(self) -> bool:
        return self.certificate is None

    @property
    def unique(self) -> bool:
        return self.consistent and not self.free


def _reduce(rows, rhs):
    """Gauss-Jordan reduction of the augmented rows [A | b | I].

    Returns the reduced rows and the (row, col) pivots of A.  The identity
    block records the row operations: it ends as T with T A = reduced A.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    if len(b) != m or any(len(row) != ncols for row in a):
        raise ValueError("shape mismatch")
    aug = [row + [y] + e for row, y, e in zip(a, b, identity_matrix(m))]
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = next((r for r in range(prow, m) if aug[r][col]), None)
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        inv = F1 / aug[prow][col]
        aug[prow] = [x * inv for x in aug[prow]]
        for r in range(m):
            f = aug[r][col]
            if r != prow and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == m:
            break
    return aug, pivots


def solve_linear(rows, rhs) -> LinSolve:
    """Solve (rows) x = rhs exactly; rows is a list of equal-length lists."""
    aug, pivots = _reduce(rows, rhs)
    ncols = len(rows[0]) if rows else 0
    rank = len(pivots)
    for row in aug[rank:]:
        if row[ncols]:
            return LinSolve(None, [], row[ncols + 1:], rank)
    pivot_cols = {col for _, col in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    x = [F0] * ncols
    for r, col in pivots:
        x[col] = aug[r][ncols]
    return LinSolve(x, free, None, rank)


def identity_matrix(n: int):
    return [[F1 if i == j else F0 for j in range(n)] for i in range(n)]


def _shape(a) -> str:
    widths = {len(row) for row in a} or {0}
    return f"{len(a)} x {widths.pop()}" if len(widths) == 1 else f"ragged {len(a)}-row"


def mat_vec(a, v):
    if any(len(row) != len(v) for row in a):
        raise ValueError(f"cannot multiply a {_shape(a)} matrix by a vector of length {len(v)}")
    return [sum((row[j] * v[j] for j in range(len(v))), F0) for row in a]
