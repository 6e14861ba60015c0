"""Size sweep of single kernels, with a fitted scaling exponent each.

Each kernel runs at three sizes on inputs drawn from the seed; a size's
time is the median of REPS runs and ``scaling_exp`` is the least-squares
slope of log(ms) against log(size).  Every run starts cold: the ops build
fresh models and the ``partitions`` cache is emptied before each run.
Every result is checked: the kernels that are also ops use the op's
runner and oracle from ``ops``; dense ``solve_linear`` is checked by
multiplying its solution back.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction as F
from time import perf_counter

import ops

REPS = 3

# kernel name -> sizes; the ms of the ROADMAP item 1 re-anchor table
# (CPython 3.11, one run) sit beside each size
SIZES = {
    "solve_linear": ((10, 20, 30), (8, 89, 304)),
    "extract_coeffs": ((10, 20, 30), (10, 131, 800)),
    "series_comp_inverse": ((10, 20, 30), (6, 101, 516)),
    "heisenberg_trace": ((8, 12, 16), (22, 197, 995)),
    "virasoro_trace": ((6, 8, 10), (1, 3, 6)),
    "huang_conjugation_check": ((5, 8, 11), (34, 87, 211)),
}


def _kernels(seed: int, s: ops.Session):
    """kernel name -> size -> (run(), check(out) -> passed)."""
    rng = random.Random(f"sweep/{seed}")

    def frac():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    poly = {1: F(rng.randint(1, 5), rng.randint(1, 3))} | {k: frac() for k in range(2, 5)}
    alpha = {1: F(1), 2: frac()}

    def op(kind, params):
        def build(n):
            run, check = ops.RUNNERS[kind]
            p = params(n)
            return lambda: run(s, p), lambda out: check(p, out)[0]
        return build

    def solve(n):
        import voablocks.linalg as linalg

        # diagonally dominant, so the system is regular and has one solution
        rows = [[frac() + (10 * n if i == j else 0) for j in range(n)] for i in range(n)]
        rhs = [frac() for _ in range(n)]

        def check(out):
            x = out.solution
            return (out.unique and x is not None
                    and all(sum(a * b for a, b in zip(row, x)) == r for row, r in zip(rows, rhs)))
        return lambda: linalg.solve_linear(rows, rhs), check

    return {
        "solve_linear": solve,
        "extract_coeffs": op("extract", lambda n: {"count": n, "poly": poly}),
        "series_comp_inverse": op("compinv", lambda n: {"order": n, "poly": poly}),
        "heisenberg_trace": op("heis_trace", lambda n: {"K": n, "mu": F(0)}),
        "virasoro_trace": op("vir_trace", lambda n: {"K": n, "c": F(1, 2)}),
        "huang_conjugation_check": op("huang", lambda n: {"z_order": n, "alpha": alpha,
                                                          "w": {(2, 1): F(1)}}),
    }


def _slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def run_sweep(seed: int) -> tuple[dict, list, list]:
    """Returns (metrics, table rows of (kernel, size, ms, roadmap ms),
    descriptions of the runs whose result failed its check)."""
    s = ops.Session("sweep", {})
    metrics, rows, failures = {}, [], []
    for name, build in _kernels(seed, s).items():
        sizes, roadmap = SIZES[name]
        ms = []
        for size, ref in zip(sizes, roadmap):
            run, check = build(size)
            times = []
            for _ in range(REPS):
                s.models.partitions.cache_clear()
                t0 = perf_counter()
                out = run()
                times.append((perf_counter() - t0) * 1000)
                if not check(out):
                    failures.append(f"sweep {name} at size {size}")
            ms.append(statistics.median(times))
            metrics[f"sweep.{name}.n{size}_ms"] = ms[-1]
            rows.append((name, size, ms[-1], ref))
        metrics[f"sweep.{name}.scaling_exp"] = _slope(sizes, ms)
    return metrics, rows, failures
