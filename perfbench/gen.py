"""Seeded input generator for every workload.

The stream of operations is cut into rounds.  Every round of a workload
holds the same multiset of (kind, size) pairs, so a run's cost does not
hinge on which sizes the seed happened to draw; the seed picks every
rational parameter, vector, point and fixture, and the order of the ops
inside the round.  Round r of workload w under seed s depends only on
(w, s, r), so two runs with one seed see the same inputs op for op.

This module imports nothing from voablocks: ops receive plain data
(dicts, tuples, Fractions) and build library objects themselves.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as F
from typing import NamedTuple

import oracles

WORKLOADS = ("modes-cold", "series-kernels", "blocks-warm", "cli")


class Op(NamedTuple):
    kind: str
    params: dict


def _rng(workload: str, seed: int, tag) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{tag}")


def _frac(rng, lo=-5, hi=5, den=3, nonzero=False) -> F:
    while True:
        x = F(rng.randint(lo, hi), rng.randint(1, den))
        if x or not nonzero:
            return x


def _label(rng, wt_max: int, min_part: int = 1, wt_min: int = 0) -> tuple:
    wt = rng.randint(wt_min, wt_max)
    labels = oracles.partitions(wt, min_part)
    while not labels:  # no Virasoro label of weight 1
        wt += 1
        labels = oracles.partitions(wt, min_part)
    return rng.choice(labels)


def _vector(rng, wt_max: int, terms: int, min_part: int = 1) -> dict:
    return {_label(rng, wt_max, min_part): _frac(rng, 1, 7) for _ in range(terms)}


MODELS = ("heisenberg", "fock", "virasoro")


def _model(rng, kind=None) -> dict:
    """A fresh-model recipe: Heisenberg, a Fock module or Virasoro."""
    kind = kind or rng.choice(MODELS)
    return {"model": kind,
            "mu": _frac(rng, 1, 5, 2, nonzero=True) if kind == "fock" else F(0),
            "c": _central_charge(rng) if kind == "virasoro" else F(1)}


def _central_charge(rng) -> F:
    return _frac(rng, -25, 25, 5)


def _min_part(model: str) -> int:
    return 2 if model == "virasoro" else 1


def _coord_poly(rng, degree: int) -> dict:
    poly = {1: _frac(rng, 1, 5, 3, nonzero=True)}
    for k in range(2, degree + 1):
        c = _frac(rng)
        if c:
            poly[k] = c
    return poly


# ---------------------------------------------------------------------------
# modes-cold


MUS = (F(0), F(1, 2), F(1), F(3, 2))


def _modes_cold(rng, session, r) -> list:
    # Sizes, mu and the model kind of each size are fixed, so every round
    # costs about the same; the seed picks c and the vectors.  The costliest
    # op, the K = 12 trace, runs four times per round, so that op_tail_ms
    # (10 samples above it) lands inside one group of like ops, away from
    # its edges.
    mus = (F(1), F(1, 2), F(0), F(1, 2), F(3, 2), F(3, 2))
    ops = [Op("heis_trace", {"K": K, "mu": mu}) for K, mu in zip((10, 11, 12, 12, 12, 12), mus)]
    ops += [Op("vir_trace", {"K": K, "c": _central_charge(rng)}) for K in range(12, 17)]
    ops += [Op("graded_char", {"K": K, **_model(rng, kind)})
            for K, kind in zip(range(16, 23), MODELS * 2 + MODELS[:1])]
    for cap, kind in zip((5, 6, 7), reversed(MODELS)):
        m = _model(rng, kind)
        mp = _min_part(m["model"])
        probes = [(_vector(rng, cap, 3, mp), _vector(rng, cap, 3, mp)) for _ in range(3)]
        ops.append(Op("dual_sweep", {"cap": cap, **m, "probes": probes}))
    # three cheap batches of each kind: as many ops per round cost less
    # than the five ops of 16-30 ms (graded K = 19, 20, Virasoro K = 12,
    # 13, dual cap 6) as cost more, so that op_p50_ms lands in the middle
    # of that group, away from its edges
    for kind in MODELS:
        m = _model(rng, kind)
        mp = _min_part(m["model"])
        checks = []
        for _ in range(6):
            u, v = _label(rng, 3, mp), _label(rng, 3, mp)
            w = {_label(rng, 3, mp): F(rng.randint(1, 5))}
            checks.append((u, v, w, rng.randint(-2, 3), rng.randint(-2, 3), rng.randint(-2, 3)))
        ops.append(Op("jacobi", {**m, "checks": checks}))
    for model in ("heisenberg", "virasoro", "heisenberg"):
        us = ([{(): F(1)}, {(1, 1): F(1, 2)}, {(1,): F(1)}, {(1,): F(1), (): F(1)}]
              if model == "heisenberg" else [{(): F(1)}, {(2,): F(1)}])
        checks = []
        for _ in range(2):
            monos = {(rng.randint(0, 2), rng.randint(0, 2)): _frac(rng, nonzero=True)
                     for _ in range(rng.randint(1, 2))}
            checks.append((rng.choice(us), monos))
        ops.append(Op("two_sided", {"model": model, "c": _central_charge(rng),
                                    "K": 5, "checks": checks}))
    return ops


# ---------------------------------------------------------------------------
# series-kernels


AVALS = (F(1), F(1, 2), F(3, 2), F(2))


def _series_kernels(rng, session, r) -> list:
    # every size below is tied to the op's place in the round, not drawn
    ops = [Op("extract", {"count": n, "poly": _coord_poly(rng, deg)})
           for n, deg in zip((10, 13, 16, 20), (3, 4, 5, 4))]
    ops += [Op("compinv", {"order": n, "poly": _coord_poly(rng, deg)})
            for n, deg in zip((10, 13, 16, 20), (2, 3, 4, 3))]
    for model, wt in zip(("heisenberg", "virasoro", "heisenberg", "virasoro"), (4, 4, 6, 6)):
        ops.append(Op("group_law", {
            "model": model, "c": _central_charge(rng),
            "r1": _coord_poly(rng, 4), "r2": _coord_poly(rng, 4),
            "w": {_label(rng, wt, _min_part(model), wt_min=wt): F(1)}}))
    ops += [Op("huang", {"z_order": zo, "alpha": _coord_poly(rng, 3),
                         "w": {_label(rng, 3, wt_min=3): F(1)}})
            for zo in (5, 6, 7, 8)]
    # twelve cocycle checks of one shape: the median op of a round falls
    # inside this group
    for _ in range(12):
        pairs = [(_coord_poly(rng, 4), _coord_poly(rng, 4)) for _ in range(3)]
        ops.append(Op("cocycle", {"order": 10, "pairs": pairs}))
    for order in (8, 12):
        ops.append(Op("uniformize", {"order": order,
                                     "Q": {k: _frac(rng) for k in range(5)}}))
    for K, dim in zip((30, 45, 60), (2, 2, 1)):
        ops.append(Op("formal", {"K": K, "avals": [rng.choice(AVALS) for _ in range(dim)],
                                 "r1": F(1, 2)}))
    # RK4 is costly per step: one continuation per round, its step count
    # cycling with the round index so every run sees the same mix
    q0 = complex(rng.choice((0.05, 0.1, 0.15)), 0.0)
    end = complex(0.45, rng.uniform(-0.2, 0.2))
    ops.append(Op("numeric", {"steps": (200, 300, 400)[r % 3], "a": rng.choice(AVALS),
                              "path": [q0, end]}))
    return ops


# ---------------------------------------------------------------------------
# blocks-warm


# the pool of points that nested propagation draws from is the same for
# every seed, so that the cost of the nested ops, and with it op_tail_ms,
# does not depend on the seed; the seed picks the pairs
POOL = (F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3, 2), F(-3, 2))


def _blocks_session() -> dict:
    """Long-lived inputs: the pool of 8 points that nested propagation draws
    from, so point configurations repeat."""
    return {"pool": list(POOL), "cap": 10}


def _rational_function(rng, points, orders, degree: int):
    """Random partial fractions with the given pole order at each point."""
    poly = {k: _frac(rng) for k in range(degree + 1)}
    poly = {k: c for k, c in poly.items() if c}
    poles = {}
    for p, order in zip(points, orders):
        part = {m: _frac(rng) for m in range(1, order)}
        part[order] = _frac(rng, nonzero=True)
        poles[p] = {m: c for m, c in part.items() if c}
    return poly, poles


def _blocks_warm(rng, session, r) -> list:
    pool = session["pool"]
    ops = []
    for u_ins, v_ins in (((1,), (2,)), ((2,), (1,)), ((1, 1), (1,))):
        x, y = rng.sample(pool, 2)
        ops.append(Op("nested", {
            "x": x, "y": y,
            "u_ins": u_ins,
            "v_ins": v_ins,
            "w1": {(1,): _frac(rng, 1, 5), (2,): _frac(rng, 1, 5)},
            "w2": {(1,): _frac(rng, 1, 5), (1, 1): _frac(rng, 1, 5)}}))
    ops.append(Op("vacuum", {"cases": [
        (rng.choice(pool), _vector(rng, 6, 3), _vector(rng, 6, 3)) for _ in range(3)]}))
    # six glue ops of one shape: the median op of a round falls inside
    # this group, so it must not straddle a gap between costlier and
    # cheaper shapes.  Three are clean; the others each perturb one of the
    # three tails, so that every round fails at the same places
    for perturb in (None, None, None, 0, 1, 2):
        orders = (3, 2)
        z0 = _frac(rng, -7, 7, 5, nonzero=True)
        poly, poles = _rational_function(rng, [F(0), z0], orders, 2)
        tails = [oracles.laurent_tail(poly, poles, F(0), 4, "t"),
                 oracles.laurent_tail(poly, poles, z0, 4, "t"),
                 oracles.laurent_tail(poly, poles, "inf", 5, "w")]
        if perturb is not None:
            var, floor, coeffs, order = tails[perturb]
            coeffs = list(coeffs)
            coeffs[rng.randrange(len(coeffs))] += _frac(rng, 1, 3)
            tails[perturb] = (var, floor, coeffs, order)
        ops.append(Op("glue", {"z0": z0, "tails": tails, "poly": poly, "poles": poles,
                               "perturbed": perturb is not None}))
    for npts in (3, 4):
        pts: list = []
        while len(pts) < npts:
            x = _frac(rng, -7, 7, 5)
            if x not in pts:
                pts.append(x)
        poly, poles = _rational_function(rng, pts, (2, 1, 2, 1)[:npts], 1)
        tails = [(p, oracles.laurent_tail(poly, poles, p, 4, "t")) for p in pts]
        tails.append(("inf", oracles.laurent_tail(poly, poles, "inf", 4, "w")))
        ops.append(Op("residue", {"tails": tails, "poly": poly, "poles": poles}))
    cases = []
    for _ in range(5):
        g_poly = {k: _frac(rng) for k in range(rng.randint(0, 2) + 1)}
        g_poles = {F(0): {m: _frac(rng) for m in range(1, rng.randint(1, 2) + 1)}}
        cases.append((rng.choice(((1,), (2,), (1, 1))),
                      {k: c for k, c in g_poly.items() if c},
                      {p: {m: c for m, c in part.items() if c} for p, part in g_poles.items()},
                      [{_label(rng, 3): _frac(rng, 1, 5)}, {_label(rng, 3): _frac(rng, 1, 5)}]))
    ops.append(Op("block_property", {"cases": cases}))
    return ops


# ---------------------------------------------------------------------------
# cli


def _enc(x) -> dict:
    x = F(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _enc_series(tail) -> dict:
    var, floor, coeffs, order = tail
    return {"var": var, "floor": floor, "order": order, "coeffs": [_enc(c) for c in coeffs]}


def _enc_vec(vec: dict) -> dict:
    return {",".join(map(str, label)): _enc(c) for label, c in vec.items()}


def _poly_text(poly: dict, var: str = "z") -> str:
    terms = []
    for k in sorted(poly):
        c = poly[k]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = (f"{mag}*{var}^{k}" if k > 1 else f"{mag}*{var}" if k == 1 else f"{mag}")
        terms.append((sign, body))
    text = " ".join(f"{s} {b}" for s, b in terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _ode_fixture(a: F, order: int) -> dict:
    coeffs = [_enc(0)] + [_enc(a)] * (order - 1)
    return {"entries": [[{"var": "q", "floor": 0, "order": order, "coeffs": coeffs}]],
            "seeds": {"0": [_enc(1)]}}


def _cli_valid(rng, session, r) -> list:
    ops = []
    models = ["heisenberg", "fock", "virasoro", rng.choice(("heisenberg", "fock"))]
    # sizes keep every command within about 2x of the cheapest, so that the
    # tail of a short run is not decided by which few heavy commands it drew
    for model, cap in zip(models, (16, 18, 20, 22)):
        argv = ["character", "--model", model, "--cap", str(cap)]
        mu, c = F(0), F(1)
        if model == "fock":
            mu = _frac(rng, 1, 5, 2, nonzero=True)
            argv.append(f"--mu={mu}")
        if model == "virasoro":
            c = _central_charge(rng)
            argv.append(f"--c={c}")
        ops.append(("character", argv, {}, {"model": model, "cap": cap, "mu": mu, "c": c}))
    for order in (12, 14):
        poly = _coord_poly(rng, 4)
        ops.append(("extract", ["coord", "extract", "--series", _poly_text(poly),
                                "--order", str(order)], {}, {"poly": poly, "order": order}))
    for cap, model in ((3, "virasoro"), (3, "heisenberg")):
        argv = ["coord", "huang", "--alpha", _poly_text(_coord_poly(rng, 3)),
                "--cap", str(cap), "--model", model]
        if model == "virasoro":
            argv.append(f"--c={_central_charge(rng)}")
        ops.append(("huang", argv, {}, {}))
    poly = _coord_poly(rng, 4)
    ops.append(("schwarzian", ["schwarzian", "--series", _poly_text(poly), "--order", "12"],
                {}, {"poly": poly, "order": 12}))
    Q = {k: _frac(rng, 1, 5) for k in range(4)}
    ops.append(("uniformize", ["uniformize", "--series", _poly_text(Q), "--order", "10"],
                {}, {"Q": Q, "order": 10}))
    # three-point: alpha insertion on a Fock module, or the vacuum insertion
    mu = rng.choice(MUS)
    w, wp = _vector(rng, 4, 2), _vector(rng, 4, 3)
    v = rng.choice(({(1,): F(1)}, {(): F(1)}))
    z0 = _frac(rng, -7, 7, 5, nonzero=True)
    fx = {"model": "fock", "mu": str(mu), "v": _enc_vec(v), "z0": _enc(z0), "w": _enc_vec(w),
          "wp": _enc_vec(wp)}
    ops.append(("three_point", ["blocks", "three-point", "--fixture", "tp.json"],
                {"tp.json": fx}, {"v": v, "w": w, "wp": wp, "mu": mu, "z0": z0}))
    perturb = r % 2 == 1
    z0 = _frac(rng, -7, 7, 5, nonzero=True)
    poly, poles = _rational_function(rng, [F(0), z0], (3, 2), 2)
    tails = [oracles.laurent_tail(poly, poles, F(0), 4, "t"),
             oracles.laurent_tail(poly, poles, z0, 4, "t"),
             oracles.laurent_tail(poly, poles, "inf", 5, "w")]
    if perturb:
        var, floor, coeffs, order = tails[0]
        coeffs = list(coeffs)
        coeffs[rng.randrange(len(coeffs))] += 1
        tails[0] = (var, floor, coeffs, order)
    fx = {"at0": _enc_series(tails[0]), "atz0": _enc_series(tails[1]),
          "atinf": _enc_series(tails[2]), "z0": _enc(z0)}
    ops.append(("glue", ["blocks", "glue", "--fixture", "glue.json"], {"glue.json": fx},
                {"poly": poly, "poles": poles, "perturbed": perturb}))
    pts: list = []
    while len(pts) < 3:
        x = _frac(rng, -7, 7, 5)
        if x not in pts:
            pts.append(x)
    poly, poles = _rational_function(rng, pts, (2, 1, 2), 1)
    fx = {"tails": {str(p): _enc_series(oracles.laurent_tail(poly, poles, p, 4, "t"))
                    for p in pts}}
    fx["tails"]["inf"] = _enc_series(oracles.laurent_tail(poly, poles, "inf", 4, "w"))
    ops.append(("residue", ["blocks", "residue-check", "--fixture", "rc.json"],
                {"rc.json": fx}, {"poly": poly, "poles": poles}))
    a = rng.choice(AVALS)
    order = (20, 30)[r % 2]
    ops.append(("ode_solve", ["ode", "solve", "--matrix", "ode.json", "--order", str(order - 1)],
                {"ode.json": _ode_fixture(a, order)}, {"a": a, "K": order - 1}))
    a = rng.choice(AVALS)
    q0, q1 = rng.choice((0.05, 0.1)), complex(0.4, rng.uniform(-0.2, 0.2))
    steps = 200
    ops.append(("ode_continue",
                ["ode", "continue", "--matrix", "odec.json", "--path", "path.json",
                 "--steps", str(steps)],
                {"odec.json": _ode_fixture(a, 60),
                 "path.json": {"waypoints": [[q0, 0.0], [q1.real, q1.imag]],
                               "start": [[oracles.pole_ode_value(a, q0).real, 0.0]]}},
                {"a": a, "end": q1}))
    seed = rng.choice(session["report_seeds"])
    ops.append(("report", ["report", "--seed", str(seed)], {}, {"seed": seed}))
    return ops


# Malformed invocations whose documented answer is exit 2 (config error).
MALFORMED = (
    ("bad-model", ["character", "--model", "bogus", "--cap", "5"], {}),
    ("bad-cap", ["character", "--model", "heisenberg", "--cap", "0"], {}),
    ("flat-rho", ["coord", "extract", "--series", "z^2 + z^3"], {}),
    ("bad-poly", ["schwarzian", "--series", "z + * z"], {}),
    ("missing-file", ["ode", "solve", "--matrix", "absent.json", "--order", "5"], {}),
    ("missing-arg", ["coord", "extract"], {}),
)

# Malformed invocations that hit known contract defects (ROADMAP item 5):
# their documented answer is also exit 2, and until the defect is fixed
# they count as failed ops.
KNOWN_DEFECTS = (
    ("glue-missing-atz0", "5(c): KeyError traceback, exit 1",
     ["blocks", "glue", "--fixture", "bad_glue.json"],
     {"bad_glue.json": {"at0": {"var": "t", "floor": 0, "order": 1, "coeffs": [_enc(1)]},
                        "atinf": {"var": "w", "floor": 0, "order": 1, "coeffs": [_enc(1)]},
                        "z0": _enc(1)}}),
    ("ode-entry-string", "5(c): TypeError traceback, exit 1",
     ["ode", "solve", "--matrix", "bad_ode.json", "--order", "3"],
     {"bad_ode.json": {"entries": [["x"]]}}),
    ("huang-negative-cap", "5(d): checks nothing and exits 0",
     ["coord", "huang", "--alpha", "z + 1/2*z^2", "--cap", "-1"], {}),
)


def _cli(rng, session, r) -> list:
    ops = [Op("cli", {"name": name, "argv": argv, "files": files, "expect": expect})
           for name, argv, files, expect in _cli_valid(rng, session, r)]
    name, argv, files = MALFORMED[(r + session["offset"]) % len(MALFORMED)]
    ops.append(Op("cli", {"name": "malformed", "argv": argv, "files": files,
                          "expect": {"case": name}}))
    name, defect, argv, files = KNOWN_DEFECTS[(r + session["offset"]) % len(KNOWN_DEFECTS)]
    ops.append(Op("cli", {"name": "malformed", "argv": argv, "files": files,
                          "expect": {"case": name, "known_defect": defect}}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


class Plan:
    """The op stream of one workload under one seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        rng = _rng(workload, seed, "session")
        if workload == "blocks-warm":
            self.session = _blocks_session()
        elif workload == "cli":
            self.session = {"report_seeds": [rng.randint(0, 999) for _ in range(3)],
                            "offset": rng.randrange(6)}
        else:
            self.session = {}

    def round(self, r: int) -> list:
        rng = _rng(self.workload, self.seed, r)
        if self.workload == "cli":
            return _cli(rng, self.session, r)
        make = {"modes-cold": _modes_cold, "series-kernels": _series_kernels,
                "blocks-warm": _blocks_warm}[self.workload]
        ops = make(rng, self.session, r)
        rng.shuffle(ops)
        return ops


def fixture_bytes(files: dict) -> bytes:
    return json.dumps(files, sort_keys=True).encode()
