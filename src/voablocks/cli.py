"""Command-line front end: fixtures in, JSON/CSV out, deterministic goldens.

Subcommands
    character    graded/torus characters with optional q^{-c/24} shift
    coord        extract  |  huang     (coordinate-change utilities)
    schwarzian   Schwarzian derivative of a polynomial series
    uniformize   solve S f = Q for a polynomial Q
    blocks       three-point  |  glue  |  residue-check  (JSON fixtures)
    ode          solve  |  continue
    report       seeded deterministic property-suite run

Fixtures and ``--c``/``--mu`` are decoded by ``jsonio``, one decoder per value type.
Output is JSON (schema "voa-blocks/1") or CSV where it makes sense; with
a fixed configuration and seed, output bytes are identical across runs.
Exit status: 0 on success, 1 on any failed check, 2 on bad input.

``character --cap`` is at most ``CHARACTER_CAP_MAX`` (40): weight spaces
grow like p(cap), so a larger cap exits 2 before any model is built.
``--order`` of ``coord extract``, ``schwarzian`` and ``uniformize`` is at
most ``SERIES_ORDER_MAX`` (100): ``coord extract`` takes seconds there and
its cost grows about as order^3, so a larger order exits 2 before the
series is built.  ``ode continue --steps`` is at most ``CONTINUE_STEPS_MAX``
(10^4): a 1 x 1 order-30 system takes about a second per path segment there
and ten times as long at 10^5 steps, while the error estimate is already at
float round-off, so a larger count exits 2 before any fixture is read.
``coord extract --count`` needs no bound of its own: it cannot exceed the
series order, which ``SERIES_ORDER_MAX`` bounds.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from fractions import Fraction

from .blocks import (RationalFunction, UnderdeterminedCap, rational_glue,
                     strong_residue_check, three_point_block)
from .coordchange import CoordChange, extract_coeffs, huang_conjugation_check, poly_series
from .jsonio import (SCHEMA, decode_complex, decode_field, decode_point, decode_rational,
                     decode_series, decode_text, dumps, encode_float,
                     encode_qexpansion, encode_rational, encode_series, list_of,
                     load_fixture, map_of, parse_poly, vector_of)
from .models import fock_module, heisenberg_model, virasoro_model
from .odepole import (NumericPath, PoleODE, ResonanceError, formal_solve,
                      numeric_continue)
from .schwarzian import cocycle_check, schwarzian, uniformize
from .series import TruncSeries
from .sewing import normalize_character, torus_character
from .virasoro import vir_bracket

__all__ = ["main", "build_parser", "run_report"]

CHARACTER_CAP_MAX = 40
SERIES_ORDER_MAX = 100
CONTINUE_STEPS_MAX = 10_000


def _build_model(name, c=None, mu=None):
    if name == "heisenberg":
        return heisenberg_model()
    if name == "virasoro":
        return virasoro_model(Fraction(1, 2) if c is None else c)
    if name == "fock":
        return fock_module(heisenberg_model(), Fraction(0) if mu is None else mu)
    raise ValueError(f"unknown model {name!r}")


def _model_flags(args):
    c, mu = (None if text is None else decode_field(f"--{flag}", text, decode_rational)
             for flag, text in (("c", args.c), ("mu", args.mu)))
    return _build_model(args.model, c, mu)


def _emit(args, payload, csv_rows=None) -> None:
    payload = {"schema": SCHEMA, **payload}
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.format == "csv":
        if csv_rows is None:
            raise ValueError("csv output not available for this command")
        text = "\n".join(",".join(str(x) for x in row) for row in csv_rows) + "\n"
    else:
        text = dumps(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_arg(text, order):
    if order > SERIES_ORDER_MAX:
        raise ValueError(f"--order must be at most {SERIES_ORDER_MAX}")
    m = re.search(r"[A-Za-z]\w*", text)
    var = m.group(0) if m else "z"
    return poly_series(parse_poly(text, var), var, order)


# ---------------------------------------------------------------------------
# subcommands


def cmd_character(args):
    if args.cap <= 0:
        raise ValueError("--cap must be positive")
    if args.cap > CHARACTER_CAP_MAX:
        raise ValueError(f"--cap must be at most {CHARACTER_CAP_MAX}")
    module = _model_flags(args)
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
            raise ValueError(f"--{name} must be non-negative")


def cmd_coord_extract(args):
    _non_negative(args, "count")
    rho = _series_arg(args.series, args.order)
    count = args.count if args.count is not None else max(rho.order - 2, 0)
    cs = extract_coeffs(rho, count)
    _emit(args, {"command": "coord extract", "coeffs": [encode_rational(c) for c in cs]})
    return 0


def cmd_coord_huang(args):
    _non_negative(args, "cap", "order")
    module = _model_flags(args)
    alpha = CoordChange(parse_poly(args.alpha))
    gen = (module.voa.gen_weight,)
    failures = []
    for wt in range(args.cap + 1):
        for label in module.basis_at(wt):
            rep = huang_conjugation_check(alpha, gen, {label: Fraction(1)},
                                          module, args.order)
            if not rep:
                failures.append({"w": str(label)})
    _emit(args, {"command": "coord huang", "model": module.name, "cap": args.cap,
                 "order": args.order, "passed": not failures, "failures": failures})
    return 0 if not failures else 1


def cmd_series_map(args):
    """``schwarzian`` and ``uniformize``: the map comes from the subparser."""
    f = _series_arg(args.series, args.order)
    _emit(args, {"command": args.command, "series": encode_series(args.series_map(f))})
    return 0


def cmd_blocks_three_point(args):
    fx = load_fixture(args.fixture, {"model": decode_text},
                      {"c": decode_rational, "mu": decode_rational})
    module = _build_model(fx["model"], fx.get("c"), fx.get("mu"))
    # vectors decode against the model: basis labels have parts >= the generator's weight
    vector = vector_of(module.voa.gen_weight)
    fx = load_fixture(args.fixture, {"v": vector, "z0": decode_rational,
                                     "w": vector, "wp": vector})
    val = three_point_block(module, fx["v"], fx["z0"], fx["w"], fx["wp"])
    _emit(args, {"command": "blocks three-point", "value": encode_rational(val)})
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
    fx = load_fixture(args.fixture, {"at0": decode_series, "atz0": decode_series,
                                     "atinf": decode_series, "z0": decode_rational})
    return _emit_residue(args, "blocks glue", rational_glue,
                         fx["at0"], fx["atz0"], fx["atinf"], fx["z0"])


def cmd_blocks_residue_check(args):
    fx = load_fixture(args.fixture, {"tails": map_of(decode_point, decode_series)})
    return _emit_residue(args, "blocks residue-check", strong_residue_check, fx["tails"])


def cmd_ode_solve(args):
    _non_negative(args, "order")
    fx = load_fixture(args.matrix, {"entries": list_of(list_of(decode_series))},
                      {"seeds": map_of(int, list_of(decode_rational))})
    try:
        sol = formal_solve(PoleODE(fx["entries"]), fx.get("seeds", {}), args.order)
    except ResonanceError as e:
        _emit(args, {"command": "ode solve", "error": str(e), "resonance": e.n})
        return 1
    _emit(args, {"command": "ode solve", "order": args.order,
                 "modes": [[encode_rational(x) for x in v] for v in sol.modes]})
    return 0


def cmd_ode_continue(args):
    if args.steps > CONTINUE_STEPS_MAX:
        raise ValueError(f"--steps must be at most {CONTINUE_STEPS_MAX}")
    ode = PoleODE(load_fixture(args.matrix,
                               {"entries": list_of(list_of(decode_series))})["entries"])
    fx = load_fixture(args.path, {"waypoints": list_of(decode_complex),
                                  "start": list_of(decode_complex)})
    start = fx["start"]
    if len(start) != ode.dim:
        raise ValueError(f"start has {len(start)} entries; the system has {ode.dim}")
    value, err = numeric_continue(ode, start, NumericPath(fx["waypoints"]), steps=args.steps)
    _emit(args, {"command": "ode continue", "steps": args.steps,
                 "value": [{"re": encode_float(z.real), "im": encode_float(z.imag)}
                           for z in value],
                 "error_estimate": encode_float(err)})
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

    def common(sp, func, **defaults):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=func, **defaults)
        return sp

    sp = common(sub.add_parser("character"), cmd_character)
    sp.add_argument("--model", required=True)
    sp.add_argument("--cap", type=int, required=True)
    sp.add_argument("--c", default=None)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--normalize", action="store_true")

    csub = sub.add_parser("coord").add_subparsers(dest="subcommand", required=True)
    sp = common(csub.add_parser("extract"), cmd_coord_extract)
    sp.add_argument("--series", required=True)
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--count", type=int, default=None)
    sp = common(csub.add_parser("huang"), cmd_coord_huang)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--model", default="heisenberg")
    sp.add_argument("--c", default=None)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--cap", type=int, default=3)
    sp.add_argument("--order", type=int, default=5)

    for name, series_map in (("schwarzian", schwarzian), ("uniformize", uniformize)):
        sp = common(sub.add_parser(name), cmd_series_map, series_map=series_map)
        sp.add_argument("--series", required=True)
        sp.add_argument("--order", type=int, default=8)

    bsub = sub.add_parser("blocks").add_subparsers(dest="subcommand", required=True)
    for name, fn in (("three-point", cmd_blocks_three_point),
                     ("glue", cmd_blocks_glue),
                     ("residue-check", cmd_blocks_residue_check)):
        common(bsub.add_parser(name), fn).add_argument("--fixture", required=True)

    osub = sub.add_parser("ode").add_subparsers(dest="subcommand", required=True)
    sp = common(osub.add_parser("solve"), cmd_ode_solve)
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--order", type=int, required=True)
    sp = common(osub.add_parser("continue"), cmd_ode_continue)
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--path", required=True)
    sp.add_argument("--steps", type=int, default=1000)

    common(sub.add_parser("report"), cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
