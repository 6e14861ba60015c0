"""Command-line front end: fixtures in, JSON/CSV out, deterministic goldens.

Subcommands
    character    graded/torus characters with optional q^{-c/24} shift
    coord        extract  |  huang     (coordinate-change utilities)
    schwarzian   Schwarzian derivative of a polynomial series
    uniformize   solve S f = Q for a polynomial Q
    blocks       three-point  |  glue  |  residue-check  (JSON fixtures)
    ode          solve  |  continue
    report       seeded deterministic property-suite run

Output is JSON (schema "voa-blocks/1") or CSV where it makes sense; with
a fixed configuration and seed, output bytes are identical across runs.
Exit status: 0 on success, 1 on any failed check, 2 on a config error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from . import jsonio
from .blocks import (INFINITY, RationalFunction, UnderdeterminedCap,
                     rational_glue, strong_residue_check, three_point_block)
from .coordchange import CoordChange, extract_coeffs, huang_conjugation_check
from .jsonio import (SCHEMA, decode_rational, decode_series, dumps,
                     encode_float, encode_qexpansion, encode_rational,
                     encode_series, parse_poly)
from .models import fock_module, heisenberg_model, virasoro_model
from .odepole import (NumericPath, PoleODE, ResonanceError, formal_solve,
                      numeric_continue)
from .schwarzian import cocycle_check, schwarzian, uniformize
from .series import TruncSeries
from .sewing import normalize_character, torus_character
from .virasoro import vir_bracket

__all__ = ["main", "build_parser", "run_report"]


class ConfigError(Exception):
    pass


def _fraction_flag(args, name: str, default: str) -> Fraction:
    text = getattr(args, name, None) or default
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ConfigError(f"--{name} has a zero denominator: {text!r}") from None


def _build_model(args):
    name = args.model
    if name == "heisenberg":
        return heisenberg_model()
    if name == "virasoro":
        return virasoro_model(_fraction_flag(args, "c", "1/2"))
    if name == "fock":
        voa = heisenberg_model()
        return fock_module(voa, _fraction_flag(args, "mu", "0"))
    raise ConfigError(f"unknown model {name!r}")


def _emit(args, payload, csv_rows=None) -> None:
    payload = {"schema": SCHEMA, **payload}
    if getattr(args, "seed", None) is not None:
        payload["seed"] = args.seed
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            raise ConfigError("csv output not available for this command")
        text = "\n".join(",".join(str(x) for x in row) for row in csv_rows) + "\n"
    else:
        text = dumps(payload) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_fixture(path, *keys) -> dict:
    """Read a JSON fixture object and check that it has ``keys``."""
    with open(path) as fh:
        fx = json.load(fh)
    if not isinstance(fx, dict):
        raise ConfigError(f"fixture {path} must be a JSON object")
    missing = [k for k in keys if k not in fx]
    if missing:
        raise ConfigError(f"fixture {path} lacks {', '.join(missing)}")
    return fx


def _series_arg(text, var, order):
    if var is None:
        import re
        m = re.search(r"[A-Za-z]\w*", text)
        var = m.group(0) if m else "z"
    poly = parse_poly(text, var)
    if any(k >= order for k in poly):
        raise ConfigError(f"--order {order} too small for the polynomial")
    return TruncSeries.from_coeff_map(var, poly, order)


# ---------------------------------------------------------------------------
# subcommands


def cmd_character(args):
    if args.cap <= 0:
        raise ConfigError("--cap must be positive")
    module = _build_model(args)
    s = torus_character(module, (), args.cap)
    q = s.standard
    if args.normalize:
        q = normalize_character(s, module.voa.c)
    payload = {"command": "character", "model": module.name,
               "cap": args.cap, "normalized": bool(args.normalize),
               "character": encode_qexpansion(q)}
    rows = [["n", "coeff"]] + [[i, c] for i, c in enumerate(q.coeffs)]
    _emit(args, payload, csv_rows=rows)
    return 0


def _non_negative(args, *names):
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise ConfigError(f"--{name} must be non-negative")


def cmd_coord_extract(args):
    _non_negative(args, "count")
    rho = _series_arg(args.series, None, args.order)
    count = args.count if args.count is not None else max(rho.order - 2, 0)
    cs = extract_coeffs(rho, count)
    payload = {"command": "coord extract",
               "coeffs": [encode_rational(c) for c in cs]}
    _emit(args, payload)
    return 0


def cmd_coord_huang(args):
    _non_negative(args, "cap", "order")
    module = _build_model(args)
    alpha = CoordChange(parse_poly(args.alpha))
    gen = (module.voa.gen_weight,)
    failures = []
    for wt in range(args.cap + 1):
        for label in module.basis_at(wt):
            rep = huang_conjugation_check(alpha, gen, {label: Fraction(1)},
                                          module, args.order)
            if not rep:
                failures.append({"w": str(label)})
    payload = {"command": "coord huang", "model": module.name,
               "cap": args.cap, "order": args.order,
               "passed": not failures, "failures": failures}
    _emit(args, payload)
    return 0 if not failures else 1


def cmd_schwarzian(args):
    f = _series_arg(args.series, None, args.order)
    payload = {"command": "schwarzian", "series": encode_series(schwarzian(f))}
    _emit(args, payload)
    return 0


def cmd_uniformize(args):
    Q = _series_arg(args.series, None, args.order)
    payload = {"command": "uniformize", "series": encode_series(uniformize(Q))}
    _emit(args, payload)
    return 0


def _decode_vec(obj):
    if not isinstance(obj, dict):
        raise ConfigError(f"not a vector encoding: {obj!r}")
    return {tuple(int(p) for p in key.split(",") if p): decode_rational(val)
            for key, val in obj.items()}


def cmd_blocks_three_point(args):
    fx = _load_fixture(args.fixture, "model", "v", "z0", "w", "wp")
    module = _build_model(argparse.Namespace(
        model=fx["model"], c=fx.get("c"), mu=fx.get("mu")))
    val = three_point_block(module, _decode_vec(fx["v"]),
                            decode_rational(fx["z0"]),
                            _decode_vec(fx["w"]), _decode_vec(fx["wp"]))
    _emit(args, {"command": "blocks three-point",
                 "value": encode_rational(val)})
    return 0


def _report_payload(report):
    out = {"passed": report.passed, "conditions": report.conditions}
    if report.passed:
        out["section"] = {
            "poly": {str(k): encode_rational(c)
                     for k, c in report.section.poly.items()},
            "poles": {str(p): {str(m): encode_rational(c)
                               for m, c in part.items()}
                      for p, part in report.section.poles.items()}}
    else:
        w = report.witness
        out["witness"] = {"kind": w.kind, "point": str(w.point),
                          "order": w.order,
                          "residue": encode_rational(w.residue)}
    return out


def _emit_residue(args, command, check, *check_args):
    """Run a residue check and emit its report; a window too short to
    certify the check fails it (exit 1) and names the window."""
    try:
        rep = check(*check_args)
    except UnderdeterminedCap as e:
        _emit(args, {"command": command, "passed": False, "underdetermined": str(e)})
        return 1
    _emit(args, {"command": command, **_report_payload(rep)})
    return 0 if rep.passed else 1


def cmd_blocks_glue(args):
    fx = _load_fixture(args.fixture, "at0", "atz0", "atinf", "z0")
    return _emit_residue(args, "blocks glue", rational_glue,
                         decode_series(fx["at0"]), decode_series(fx["atz0"]),
                         decode_series(fx["atinf"]), decode_rational(fx["z0"]))


def cmd_blocks_residue_check(args):
    fx = _load_fixture(args.fixture, "tails")
    if not isinstance(fx["tails"], dict):
        raise ConfigError("tails must map marked points to series")
    tails = {}
    for key, sobj in fx["tails"].items():
        p = INFINITY if key in ("inf", "infinity") else decode_rational(key)
        if p in tails:
            raise ConfigError(f"tails name the point {p} twice")
        tails[p] = decode_series(sobj)
    return _emit_residue(args, "blocks residue-check", strong_residue_check, tails)


def _decode_ode(fx) -> PoleODE:
    entries = fx["entries"]
    if not (isinstance(entries, list) and all(isinstance(row, list) for row in entries)):
        raise ConfigError("entries must be a list of rows of series")
    return PoleODE([[decode_series(e) for e in row] for row in entries])


def _decode_complex(obj, what) -> list:
    if not (isinstance(obj, list) and all(
            isinstance(z, list) and len(z) == 2 and
            all(isinstance(x, (int, float)) for x in z) for z in obj)):
        raise ConfigError(f"{what} must be a list of [re, im] pairs")
    return [complex(z[0], z[1]) for z in obj]


def cmd_ode_solve(args):
    _non_negative(args, "order")
    fx = _load_fixture(args.matrix, "entries")
    ode = _decode_ode(fx)
    seeds = fx.get("seeds", {})
    if not (isinstance(seeds, dict) and all(isinstance(v, list) for v in seeds.values())):
        raise ConfigError("seeds must map indices to lists of rationals")
    seeds = {int(n): [decode_rational(x) for x in vec] for n, vec in seeds.items()}
    try:
        sol = formal_solve(ode, seeds, args.order)
    except ResonanceError as e:
        _emit(args, {"command": "ode solve", "error": str(e), "resonance": e.n})
        return 1
    payload = {"command": "ode solve", "order": args.order,
               "modes": [[encode_rational(x) for x in v] for v in sol.modes]}
    _emit(args, payload)
    return 0


def cmd_ode_continue(args):
    ode = _decode_ode(_load_fixture(args.matrix, "entries"))
    pfx = _load_fixture(args.path, "waypoints", "start")
    waypoints = _decode_complex(pfx["waypoints"], "waypoints")
    start = _decode_complex(pfx["start"], "start")
    if len(start) != ode.dim:
        raise ConfigError(f"start has {len(start)} entries; the system has {ode.dim}")
    value, err = numeric_continue(ode, start, NumericPath(waypoints),
                                  steps=args.steps)
    payload = {"command": "ode continue", "steps": args.steps,
               "value": [{"re": encode_float(z.real), "im": encode_float(z.imag)}
                         for z in value],
               "error_estimate": encode_float(err)}
    _emit(args, payload)
    return 0


# ---------------------------------------------------------------------------
# the seeded report runner


def _rand_frac(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 6))


def run_report(seed: int) -> dict:
    """Deterministic property-suite run; every check lists pass/fail and a
    witness on failure."""
    rng = random.Random(seed)
    checks = []

    def record(name, passed, witness=None):
        entry = {"name": name, "passed": bool(passed)}
        if witness is not None:
            entry["witness"] = witness
        checks.append(entry)

    # Virasoro bracket closed form on random indices
    ok = True
    for _ in range(20):
        m, n = rng.randint(-5, 5), rng.randint(-5, 5)
        coeff, central = vir_bracket(m, n, Fraction(1, 2))
        if coeff != m - n:
            ok = False
        want = Fraction(m ** 3 - m, 24) if m == -n else Fraction(0)
        if central != want:
            ok = False
    record("virasoro-bracket", ok)

    # Schwarzian chain rule on random polynomial pairs
    ok = True
    for _ in range(10):
        f = TruncSeries.from_coeff_map(
            "z", {1: Fraction(rng.randint(1, 4)),
                  2: _rand_frac(rng), 3: _rand_frac(rng)}, 10)
        g = TruncSeries.from_coeff_map(
            "z", {1: Fraction(rng.randint(1, 4)), 2: _rand_frac(rng)}, 10)
        if not cocycle_check(f, g):
            ok = False
    record("schwarzian-cocycle", ok)

    # glue pass/fail on random rational functions
    ok = True
    for _ in range(6):
        z0 = Fraction(rng.randint(1, 5))
        f = RationalFunction(
            poly={0: _rand_frac(rng), 1: _rand_frac(rng)},
            poles={0: {1: _rand_frac(rng)}, z0: {1: _rand_frac(rng), 2: _rand_frac(rng)}})
        rep = rational_glue(f.expand_at(0, 4), f.expand_at(z0, 4),
                            f.expand_at_infinity(5), z0)
        if not (rep.passed and rep.section == f):
            ok = False
        t = f.expand_at(0, 4)
        bad = TruncSeries(t.var, t.floor, list(t.coeffs), t.order)
        bad.coeffs[0] += Fraction(1)
        rep = rational_glue(bad, f.expand_at(z0, 4), f.expand_at_infinity(5), z0)
        if rep.passed:
            ok = False
    record("glue-roundtrip", ok)

    # Heisenberg character vs an independent partition counter
    table = [[0] * 13 for _ in range(13)]
    for k in range(13):
        table[0][k] = 1
    for n in range(1, 13):
        for k in range(1, 13):
            table[n][k] = table[n][k - 1] + (table[n - k][k] if n >= k else 0)
    ch = torus_character(heisenberg_model(), (), 12)
    record("character-partitions",
           list(ch.coeffs) == [Fraction(table[n][n]) for n in range(13)])

    # scalar pole ODE: 1/(1-q)
    a = TruncSeries.from_coeff_map("q", {k: Fraction(1) for k in range(1, 20)}, 20)
    sol = formal_solve(PoleODE([[a]]), {0: [Fraction(1)]}, 19)
    record("ode-recursion", all(v == [Fraction(1)] for v in sol.modes))

    passed = all(c["passed"] for c in checks)
    return {"schema": SCHEMA, "command": "report", "seed": seed,
            "passed": passed, "checks": checks}


def cmd_report(args):
    payload = run_report(args.seed if args.seed is not None else 0)
    _emit(args, payload)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a negative rational such as ``--c -22/5`` or a series text
    with a leading minus such as ``--series -z+z^2`` as a value, not as an
    option; subparsers are built from the same class.  argparse consults
    the matcher only for strings that match no option, so ``-h`` and the
    ``--`` options still parse as options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$|^-[\w/*^ ]+([+-][\w/*^ ]+)*$")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="voablocks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, order_default=8):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)
        return sp

    sp = common(sub.add_parser("character"))
    sp.add_argument("--model", required=True)
    sp.add_argument("--cap", type=int, required=True)
    sp.add_argument("--c", default=None)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--normalize", action="store_true")
    sp.set_defaults(func=cmd_character)

    coord = sub.add_parser("coord")
    csub = coord.add_subparsers(dest="subcommand", required=True)
    sp = common(csub.add_parser("extract"))
    sp.add_argument("--series", required=True)
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--count", type=int, default=None)
    sp.set_defaults(func=cmd_coord_extract)
    sp = common(csub.add_parser("huang"))
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--model", default="heisenberg")
    sp.add_argument("--c", default=None)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--cap", type=int, default=3)
    sp.add_argument("--order", type=int, default=5)
    sp.set_defaults(func=cmd_coord_huang)

    sp = common(sub.add_parser("schwarzian"))
    sp.add_argument("--series", required=True)
    sp.add_argument("--order", type=int, default=8)
    sp.set_defaults(func=cmd_schwarzian)

    sp = common(sub.add_parser("uniformize"))
    sp.add_argument("--series", required=True)
    sp.add_argument("--order", type=int, default=8)
    sp.set_defaults(func=cmd_uniformize)

    blocks = sub.add_parser("blocks")
    bsub = blocks.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("three-point", cmd_blocks_three_point),
                     ("glue", cmd_blocks_glue),
                     ("residue-check", cmd_blocks_residue_check)):
        sp = common(bsub.add_parser(name))
        sp.add_argument("--fixture", required=True)
        sp.set_defaults(func=fn)

    ode = sub.add_parser("ode")
    osub = ode.add_subparsers(dest="subcommand", required=True)
    sp = common(osub.add_parser("solve"))
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.set_defaults(func=cmd_ode_solve)
    sp = common(osub.add_parser("continue"))
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--path", required=True)
    sp.add_argument("--steps", type=int, default=1000)
    sp.set_defaults(func=cmd_ode_continue)

    sp = common(sub.add_parser("report"))
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
