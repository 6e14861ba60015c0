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
``jsonio`` is the one layer this module imports at load time; each subcommand
imports the layers it calls when it runs, so ``ode solve`` loads no model and
input that argparse rejects loads no layer but ``jsonio`` and ``series``.
Output is JSON (schema "voa-blocks/1"); ``character --format csv`` writes
CSV, and only ``report`` takes a ``--seed`` (default 0).  With a fixed
configuration and seed, output bytes are identical across runs.
Exit status: 0 on success, 1 on any failed check, 2 on bad input, with
one ``error:`` line on stderr, also for input that argparse rejects.

``character --cap`` is at most ``CHARACTER_CAP_MAX`` (40): weight spaces
grow like p(cap), so a larger cap exits 2 before any model is built.
A ``blocks three-point`` fixture label (in ``v``, ``w`` or ``wp``) has weight
at most ``FIXTURE_WEIGHT_MAX`` (10): the block of v fills the whole weight
space of w for every suffix of v's label, so the cost grows with both
weights.  One label of each at the bound takes about 1 s (F_{2/3} with
v = alpha_{-1}^10 1, the slowest shape; at weight 12 it took 4.6 s, and on
the Heisenberg VOA v = alpha_{-1}^2 1 against w of weight 40 took 6.9 s);
a heavier label exits 2 before any block is built.  Each of the three
vectors holds at most ``FIXTURE_LABELS_MAX`` (16) labels: the block is read
once per label of v, label of w and weight of w', and a fixture that lists
all 139 labels up to the weight bound in each vector took 15 s on F_{2/3}.
At the cap, the 16 longest labels of weight 9 and 10 in v and in w, with
w' on every weight 0..10, take about 2 s on F_{2/3} (0.45 s on Vir_{7/3}); a
longer vector exits 2 before any block is built.
``--order`` of ``coord extract``, ``schwarzian`` and ``uniformize`` is at
most ``SERIES_ORDER_MAX`` (100): ``coord extract`` takes seconds there and
its cost grows about as order^3, so a larger order exits 2 before the
series is built.  ``ode continue --steps`` is at most ``CONTINUE_STEPS_MAX``
(10^4): a 1 x 1 order-30 system takes about a second per path segment there
and ten times as long at 10^5 steps, while the error estimate is already at
float round-off, so a larger count exits 2 before any fixture is read.
Its cost is steps x path segments, so the path has at most
``CONTINUE_SEGMENTS_MAX`` (3) segments, 4 waypoints: about 2 s at 10^4 steps
on that system; a longer path exits 2 before any transport runs.
``coord extract --count`` needs no bound of its own: it cannot exceed the
series order, which ``SERIES_ORDER_MAX`` bounds.  ``coord huang`` runs one
conjugation check per basis label up to ``--cap``, each on a z-window that
grows with ``--order`` and not with the degree of ``--alpha``: every series
of a(z) is cut at the window, so a term of a(z) beyond it costs nothing.
``--cap`` is at most ``HUANG_CAP_MAX`` (6) and ``--order`` at most
``HUANG_ORDER_MAX`` (12): both at the bound take about 3 s on F_{2/3} and
about 2 s on the Heisenberg VOA, and a larger value exits 2 before any
model is built.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from fractions import Fraction

from .jsonio import (SCHEMA, decode_complex, decode_field, decode_point, decode_rational,
                     decode_series, decode_text, dumps, encode_float,
                     encode_qexpansion, encode_rational, encode_series, list_of,
                     load_fixture, map_of, parse_poly, vector_of)

__all__ = ["main", "build_parser", "run_report"]

CHARACTER_CAP_MAX = 40
FIXTURE_WEIGHT_MAX = 10
FIXTURE_LABELS_MAX = 16
SERIES_ORDER_MAX = 100
HUANG_CAP_MAX = 6
HUANG_ORDER_MAX = 12
CONTINUE_STEPS_MAX = 10_000
CONTINUE_SEGMENTS_MAX = 3


def _build_model(name, c=None, mu=None):
    from .models import fock_module, heisenberg_model, virasoro_model

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
    if csv_rows is not None:
        text = "\n".join(",".join(str(x) for x in row) for row in csv_rows) + "\n"
    else:
        text = dumps({"schema": SCHEMA, **payload}) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _series_arg(text, order):
    if order > SERIES_ORDER_MAX:
        raise ValueError(f"--order must be at most {SERIES_ORDER_MAX}")
    from .coordchange import poly_series

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
    from .sewing import normalize_character, torus_character

    s = torus_character(module, (), args.cap)
    q = s.standard
    if args.normalize:
        q = normalize_character(s, module.voa.c)
    payload = {"command": "character", "model": module.name,
               "cap": args.cap, "normalized": bool(args.normalize),
               "character": encode_qexpansion(q)}
    rows = [["n", "coeff"], *enumerate(q.coeffs)] if args.format == "csv" else None
    _emit(args, payload, rows)
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
    if count > rho.order - 2:
        raise ValueError("series order too small for requested coefficient count: "
                         f"--count {count} needs --order >= {count + 2}")
    from .coordchange import extract_coeffs

    cs = extract_coeffs(rho, count)
    _emit(args, {"command": "coord extract", "coeffs": [encode_rational(c) for c in cs]})
    return 0


def cmd_coord_huang(args):
    _non_negative(args, "cap", "order")
    if args.cap > HUANG_CAP_MAX:
        raise ValueError(f"--cap must be at most {HUANG_CAP_MAX}")
    if args.order > HUANG_ORDER_MAX:
        raise ValueError(f"--order must be at most {HUANG_ORDER_MAX}")
    module = _model_flags(args)
    from .coordchange import CoordChange, huang_conjugation_check

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
    """``schwarzian`` and ``uniformize``: the map is the function of the
    command's name."""
    f = _series_arg(args.series, args.order)
    from .schwarzian import schwarzian, uniformize

    series_map = {"schwarzian": schwarzian, "uniformize": uniformize}[args.command]
    _emit(args, {"command": args.command, "series": encode_series(series_map(f))})
    return 0


def cmd_blocks_three_point(args):
    fx = load_fixture(args.fixture, {"model": decode_text},
                      {"c": decode_rational, "mu": decode_rational})
    module = _build_model(fx["model"], fx.get("c"), fx.get("mu"))
    # vectors decode against the model: basis labels have parts >= the
    # generator's weight, and weight at most FIXTURE_WEIGHT_MAX
    vector = vector_of(module.voa.gen_weight, FIXTURE_WEIGHT_MAX)
    fx = load_fixture(args.fixture, {"v": vector, "z0": decode_rational,
                                     "w": vector, "wp": vector})
    for key in ("v", "w", "wp"):
        if len(fx[key]) > FIXTURE_LABELS_MAX:
            raise ValueError(f"fixture {args.fixture}: {key}: {len(fx[key])} labels, "
                             f"must be at most {FIXTURE_LABELS_MAX}")
    from .blocks import three_point_block

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
    from .blocks import UnderdeterminedCap

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
    from .blocks import rational_glue

    return _emit_residue(args, "blocks glue", rational_glue,
                         fx["at0"], fx["atz0"], fx["atinf"], fx["z0"])


def cmd_blocks_residue_check(args):
    fx = load_fixture(args.fixture, {"tails": map_of(decode_point, decode_series)})
    from .blocks import strong_residue_check

    return _emit_residue(args, "blocks residue-check", strong_residue_check, fx["tails"])


def cmd_ode_solve(args):
    _non_negative(args, "order")
    fx = load_fixture(args.matrix, {"entries": list_of(list_of(decode_series))},
                      {"seeds": map_of(int, list_of(decode_rational))})
    from .odepole import PoleODE, ResonanceError, formal_solve

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
    from .odepole import NumericPath, PoleODE, numeric_continue

    ode = PoleODE(load_fixture(args.matrix,
                               {"entries": list_of(list_of(decode_series))})["entries"])
    fx = load_fixture(args.path, {"waypoints": list_of(decode_complex),
                                  "start": list_of(decode_complex)})
    if len(fx["waypoints"]) - 1 > CONTINUE_SEGMENTS_MAX:
        raise ValueError(f"the path must have at most {CONTINUE_SEGMENTS_MAX} segments "
                         f"({CONTINUE_SEGMENTS_MAX + 1} waypoints)")
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
    """Deterministic property-suite run; every check lists pass/fail and,
    on failure, a witness: its first failing draw's index and inputs (the
    seed is in the payload), or for the two fixed checks the first failing
    coefficient index."""
    from .blocks import RationalFunction, rational_glue
    from .models import heisenberg_model
    from .odepole import PoleODE, formal_solve
    from .schwarzian import cocycle_check
    from .series import TruncSeries
    from .sewing import torus_character
    from .virasoro import vir_bracket

    rng = random.Random(seed)
    checks = []

    def record(name, witness):
        entry = {"name": name, "passed": witness is None}
        if witness is not None:
            entry["witness"] = witness
        checks.append(entry)

    # Virasoro bracket closed form on random indices; every draw is taken,
    # so that a failure does not shift the later checks' draws
    witness = None
    for draw in range(20):
        m, n = rng.randint(-5, 5), rng.randint(-5, 5)
        coeff, central = vir_bracket(m, n, Fraction(1, 2))
        want = Fraction(m ** 3 - m, 24) if m == -n else Fraction(0)
        if (coeff != m - n or central != want) and witness is None:
            witness = {"draw": draw, "m": m, "n": n}
    record("virasoro-bracket", witness)

    # Schwarzian chain rule on random polynomial pairs
    witness = None
    for draw in range(10):
        f = TruncSeries.from_coeff_map(
            "z", {1: Fraction(rng.randint(1, 4)),
                  2: _rand_frac(rng), 3: _rand_frac(rng)}, 10)
        g = TruncSeries.from_coeff_map(
            "z", {1: Fraction(rng.randint(1, 4)), 2: _rand_frac(rng)}, 10)
        if not cocycle_check(f, g) and witness is None:
            witness = {"draw": draw, "f": encode_series(f), "g": encode_series(g)}
    record("schwarzian-cocycle", witness)

    # glue pass/fail on random rational functions: the expansions of f glue
    # back to f, and a tampered expansion at 0 does not glue
    witness = None
    for draw in range(6):
        z0 = Fraction(rng.randint(1, 5))
        f = RationalFunction(
            poly={0: _rand_frac(rng), 1: _rand_frac(rng)},
            poles={0: {1: _rand_frac(rng)}, z0: {1: _rand_frac(rng), 2: _rand_frac(rng)}})
        tails = [f.expand_at(0, 4), f.expand_at(z0, 4), f.expand_at_infinity(5)]
        t = tails[0]
        bad = TruncSeries(t.var, t.floor, [t.coeffs[0] + 1, *t.coeffs[1:]], t.order)
        for glues, inputs in ((True, tails), (False, [bad] + tails[1:])):
            rep = rational_glue(*inputs, z0)
            if (rep.passed != glues or (glues and rep.section != f)) and witness is None:
                witness = {"draw": draw, "z0": encode_rational(z0), "glues": glues,
                           "tails": [encode_series(x) for x in inputs]}
    record("glue-roundtrip", witness)

    # Heisenberg character vs an independent partition counter
    table = [[0] * 13 for _ in range(13)]
    for k in range(13):
        table[0][k] = 1
    for n in range(1, 13):
        for k in range(1, 13):
            table[n][k] = table[n][k - 1] + (table[n - k][k] if n >= k else 0)
    ch = torus_character(heisenberg_model(), (), 12)
    wrong = [n for n in range(13) if ch.coeffs[n] != table[n][n]]
    record("character-partitions",
           {"n": wrong[0], "coeff": encode_rational(ch.coeffs[wrong[0]]),
            "partitions": table[wrong[0]][wrong[0]]} if wrong else None)

    # scalar pole ODE: 1/(1-q)
    a = TruncSeries.from_coeff_map("q", {k: Fraction(1) for k in range(1, 20)}, 20)
    sol = formal_solve(PoleODE([[a]]), {0: [Fraction(1)]}, 19)
    wrong = [n for n, v in enumerate(sol.modes) if v != [Fraction(1)]]
    record("ode-recursion",
           {"n": wrong[0], "mode": [encode_rational(x) for x in sol.modes[wrong[0]]]}
           if wrong else None)

    passed = all(c["passed"] for c in checks)
    return {"schema": SCHEMA, "command": "report", "seed": seed,
            "passed": passed, "checks": checks}


def cmd_report(args):
    payload = run_report(args.seed)
    _emit(args, payload)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a negative rational such as ``--c -22/5`` or a series text
    with a leading minus such as ``--series -z+z^2`` as a value, not as an
    option; subparsers are built from the same class.  argparse consults
    the matcher only for strings that match no option, so ``-h`` and the
    ``--`` options still parse as options.  Input that argparse rejects
    exits 2 with one ``error:`` line, as every other bad input does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$|^-[\w/*^ ]+([+-][\w/*^ ]+)*$")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="voablocks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, func):
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=func)
        return sp

    sp = common(sub.add_parser("character"), cmd_character)
    sp.add_argument("--model", required=True)
    sp.add_argument("--cap", type=int, required=True)
    sp.add_argument("--c", default=None)
    sp.add_argument("--mu", default=None)
    sp.add_argument("--normalize", action="store_true")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

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

    for name in ("schwarzian", "uniformize"):
        sp = common(sub.add_parser(name), cmd_series_map)
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

    common(sub.add_parser("report"), cmd_report).add_argument("--seed", type=int, default=0)
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
