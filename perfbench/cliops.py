"""CLI operations: one ``python -m voablocks.cli`` subprocess per op.

The op's fixture files are written into the work directory before the
clock starts; the clock covers the whole subprocess, interpreter start-up
and import included, because a one-shot CLI user waits for all of it.
Every result is checked against ``oracles``; a repeated invocation (same
argv, same fixture bytes) must print byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction as F
from time import perf_counter

import gen
import oracles

SCHEMA = "voa-blocks/1"
TIMEOUT_S = 30


def _dec(obj) -> F:
    return F(int(obj["num"]), int(obj["den"]))


def _section(doc) -> tuple:
    sec = doc["section"]
    poly = {int(k): _dec(c) for k, c in sec["poly"].items()}
    poles = {F(p): {int(m): _dec(c) for m, c in part.items()} for p, part in sec["poles"].items()}
    return poly, poles


def _want_section(e) -> tuple:
    return e["poly"], {p: part for p, part in e["poles"].items() if part}


def _check_valid(name: str, e: dict, code: int, doc: dict) -> bool:
    if name == "character":
        mu = e["mu"] if e["model"] == "fock" else F(0)
        ch = doc["character"]
        return (code == 0 and [_dec(c) for c in ch["coeffs"]]
                == oracles.graded_character(e["cap"], e["model"])
                and _dec(ch["offset"]) == mu * mu / 2)
    if name == "extract":
        cs = [_dec(c) for c in doc["coeffs"]]
        return (code == 0 and len(cs) == e["order"] - 1
                and cs[:3] == oracles.extraction_closed_forms(e["poly"]))
    if name == "huang":
        return code == 0 and doc["passed"] is True and not doc["failures"]
    if name == "schwarzian":
        s = doc["series"]
        n = e["order"] - 3
        want = oracles.schwarzian(oracles.poly_list(e["poly"], e["order"]), n)
        got = [F(0)] * s["floor"] + [_dec(c) for c in s["coeffs"]]
        return code == 0 and s["order"] == n and got == want[:len(got)] and len(got) == n
    if name == "uniformize":
        s = doc["series"]
        f = [F(0)] * s["floor"] + [_dec(c) for c in s["coeffs"]]
        n = e["order"] - 1
        return (code == 0 and s["order"] == e["order"] + 2
                and oracles.schwarzian(f, n) == oracles.poly_list(e["Q"], n))
    if name == "three_point":
        if () in e["v"]:
            want = oracles.pairing(e["w"], e["wp"])
        else:
            want = oracles.three_point_alpha(e["z0"], e["w"], e["wp"], e["mu"])
        return code == 0 and _dec(doc["value"]) == want
    if name == "glue":
        if e["perturbed"]:
            return (code == 1 and doc["passed"] is False
                    and _dec(doc["witness"]["residue"]) != 0)
        return code == 0 and doc["passed"] is True and _section(doc) == _want_section(e)
    if name == "residue":
        return code == 0 and doc["passed"] is True and _section(doc) == _want_section(e)
    if name == "ode_solve":
        modes = [_dec(v[0]) for v in doc["modes"]]
        return code == 0 and modes == oracles.pochhammer_modes(e["a"], e["K"])
    if name == "ode_continue":
        v = doc["value"][0]
        got = complex(v["re"]["value"], v["im"]["value"])
        want = oracles.pole_ode_value(e["a"], e["end"])
        return (code == 0 and abs(got - want) <= 1e-7 * abs(want)
                and v["re"]["provenance"] == "float")
    if name == "report":
        return code == 0 and doc["passed"] is True and doc["seed"] == e["seed"]
    raise ValueError(f"unknown cli op {name!r}")


class CliRunner:
    """Runs CLI ops as subprocesses in ``workdir``, optionally traced."""

    def __init__(self, env: dict, workdir, bootstrap=None):
        self.env = env
        self.workdir = workdir
        self.bootstrap = bootstrap  # argv prefix that replaces ``-m voablocks.cli``
        self.seen: dict = {}

    def command(self, argv: list) -> list:
        if self.bootstrap is not None:
            return [sys.executable, *self.bootstrap, "--", *argv]
        return [sys.executable, "-m", "voablocks.cli", *argv]

    def execute(self, p: dict):
        """Returns (latency_s, passed, known_defect or None, canonical text)."""
        for fname, obj in p["files"].items():
            (self.workdir / fname).write_text(json.dumps(obj))
        cmd = self.command(p["argv"])
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              timeout=TIMEOUT_S)
        latency = perf_counter() - t0
        out, err, code = proc.stdout, proc.stderr, proc.returncode
        text = f"{code}:{hashlib.sha256(out).hexdigest()}"
        key = (tuple(p["argv"]), gen.fixture_bytes(p["files"]))
        repeat_ok = self.seen.setdefault(key, text) == text
        e = p["expect"]
        clean = b"Traceback" not in err
        if p["name"] == "malformed":
            passed = code == 2 and clean and not out
            return latency, passed and repeat_ok, e.get("known_defect"), text
        try:
            doc = json.loads(out)
            passed = doc["schema"] == SCHEMA and _check_valid(p["name"], e, code, doc)
        except (ValueError, KeyError, TypeError, IndexError):
            passed = False
        return latency, passed and clean and repeat_ok, None, text
