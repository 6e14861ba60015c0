"""JSON encoding for the CLI: exact rationals, series, q-expansions.

Every numeric value carries a provenance tag: rationals are
{"num": "...", "den": "...", "provenance": "exact"}, floats are
{"value": ..., "provenance": "float"}.  Dumps are deterministic
(sorted keys, fixed separators) so golden files are byte-stable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .series import QExpansion, TruncSeries

__all__ = [
    "encode_rational",
    "decode_rational",
    "encode_float",
    "encode_series",
    "decode_series",
    "encode_qexpansion",
    "dumps",
    "parse_poly",
    "SCHEMA",
]

SCHEMA = "voa-blocks/1"


def encode_rational(x) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator),
            "provenance": "exact"}


def decode_rational(obj) -> Fraction:
    try:
        if isinstance(obj, dict):
            return Fraction(int(obj["num"]), int(obj["den"]))
        if isinstance(obj, (str, int)):
            return Fraction(obj)
    except (KeyError, TypeError, ZeroDivisionError) as e:
        raise ValueError(f"not a rational encoding: {obj!r}") from e
    raise ValueError(f"not a rational encoding: {obj!r}")


def encode_float(x) -> dict:
    return {"value": float(x), "provenance": "float"}


def encode_series(s: TruncSeries) -> dict:
    return {"var": s.var, "floor": s.floor, "order": s.order,
            "coeffs": [encode_rational(c) for c in s.coeffs]}


def decode_series(obj) -> TruncSeries:
    if not isinstance(obj, dict) or not {"var", "floor", "order", "coeffs"} <= obj.keys():
        raise ValueError(f"not a series encoding: {obj!r}")
    coeffs = [decode_rational(c) for c in obj["coeffs"]]
    return TruncSeries(obj["var"], int(obj["floor"]), coeffs, int(obj["order"]))


def encode_qexpansion(s: QExpansion) -> dict:
    return {"offset": encode_rational(s.offset),
            "coeffs": [encode_rational(c) for c in s.coeffs]}


def dumps(obj) -> str:
    """Deterministic dump: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


# ---------------------------------------------------------------------------
# restricted polynomial strings: rational coefficients, one variable, +, -, ^

_TERM = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?
        (?:(?P<var>[A-Za-z]\w*)\s*(?:\^\s*(?P<exp>\d+))?)?\s*""",
    re.VERBOSE)


def parse_poly(text: str, var: str | None = None) -> dict:
    """Parse e.g. "z + 3/2z^2 - z^3" to an exponent -> Fraction map.

    Grammar: signed terms `[rational][*]var[^k]` or bare rationals; a
    single variable name throughout."""
    out: dict = {}
    pos = 0
    seen_var = var
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial")
    while pos < len(text):
        m = _TERM.match(text[pos:])
        if not m or m.end() == 0:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = m.group("coef")
        vname = m.group("var")
        if coef is None and vname is None:
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        c = Fraction(coef) if coef else Fraction(1)
        if vname is None:
            k = 0
        else:
            if seen_var is None:
                seen_var = vname
            elif vname != seen_var:
                raise ValueError(f"mixed variables {seen_var!r} and {vname!r}")
            k = int(m.group("exp") or 1)
        out[k] = out.get(k, Fraction(0)) + sign * c
        pos += m.end()
    return {k: c for k, c in out.items() if c}
