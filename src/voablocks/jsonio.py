"""JSON for the CLI: exact encodings out, one strict decoder of fixtures in.

Every numeric value carries a provenance tag: rationals are
{"num": "...", "den": "...", "provenance": "exact"}, floats are
{"value": ..., "provenance": "float"}.  Dumps are deterministic
(sorted keys, fixed separators) so golden files are byte-stable.

The fixture format lives here alone: ``load_fixture`` decodes each key a
command declares by a strict decoder below; an error names the key and
echoes at most a short cut of the bad value.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from fractions import Fraction

from .blocks import INFINITY
from .series import QExpansion, TruncSeries

__all__ = ["SCHEMA", "encode_rational", "encode_float", "encode_series", "encode_qexpansion",
           "dumps", "parse_poly", "decode_rational", "decode_int", "decode_text",
           "decode_complex", "decode_point", "vector_of", "decode_series", "list_of",
           "map_of", "decode_field", "decode_object", "load_fixture"]

SCHEMA = "voa-blocks/1"

# a decode error echoes at most this many characters of the offending value
_SHOWN_CHARS = 60


def _shown(obj) -> str:
    """A short repr of a decoded value for an error message: ``reprlib``
    bounds its depth and width, and the text is cut to _SHOWN_CHARS."""
    text = reprlib.repr(obj)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def encode_rational(x) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator),
            "provenance": "exact"}


def decode_int(obj) -> int:
    # JSON true and false load as bools, which Python counts as ints
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise ValueError(f"not an integer: {_shown(obj)}")


def decode_text(obj) -> str:
    if isinstance(obj, str):
        return obj
    raise ValueError(f"not a string: {_shown(obj)}")


def decode_rational(obj) -> Fraction:
    """{"num", "den"} as ``encode_rational`` writes it (integers or integer
    strings; other keys are ignored), a JSON integer, or a string "-22/5"."""
    num, den = (obj.get("num"), obj.get("den")) if isinstance(obj, dict) else (obj, 1)
    try:
        if all(isinstance(x, (int, str)) and not isinstance(x, bool) for x in (num, den)):
            return Fraction(int(num), int(den)) if isinstance(obj, dict) else Fraction(num)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"not a rational encoding: {_shown(obj)}")


def decode_complex(obj) -> complex:
    """A complex number written as the pair [re, im] of finite JSON numbers."""
    if not (isinstance(obj, list) and len(obj) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and
            abs(x) <= sys.float_info.max for x in obj)):
        raise ValueError(f"not an [re, im] pair of floats: {_shown(obj)}")
    return complex(*obj)


def decode_point(key: str):
    """A marked point of P^1: "inf" or "infinity", else a rational."""
    return INFINITY if key in ("inf", "infinity") else decode_rational(key)


def vector_of(min_part: int = 1):
    """The decoder of a vector {"3,1,1": rational, ...} keyed by basis
    labels: partitions into parts >= ``min_part``, "" the highest weight."""
    def label(key: str) -> tuple:
        parts = tuple(int(p) for p in key.split(",")) if key else ()
        if list(parts) != sorted(parts, reverse=True) or min(parts, default=min_part) < min_part:
            raise ValueError(f"{_shown(key)} is not a basis label: "
                             f"non-increasing parts >= {min_part}")
        return parts
    return map_of(label, decode_rational)


def list_of(decode):
    """The decoder of a JSON list whose items ``decode`` reads."""
    def decode_list(obj) -> list:
        if not isinstance(obj, list):
            raise ValueError(f"not a list: {_shown(obj)}")
        return [decode(x) for x in obj]
    return decode_list


def map_of(decode_key, decode_value):
    """The decoder of a JSON object in which no two keys decode alike."""
    def decode_map(obj) -> dict:
        if not isinstance(obj, dict):
            raise ValueError(f"not an object: {_shown(obj)}")
        out = {}
        for key, value in obj.items():
            k = decode_key(key)
            if k in out:
                raise ValueError(f"two keys name {k}")
            out[k] = decode_value(value)
        return out
    return decode_map


def decode_field(name: str, obj, decode):
    """``decode(obj)``, with ``name`` in front of any error."""
    try:
        return decode(obj)
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


def decode_object(obj, required: dict, optional: dict | None = None) -> dict:
    """Decode a JSON object key by key: each key of ``required`` must be
    present, each of ``optional`` may be, and other keys are ignored."""
    if not isinstance(obj, dict):
        raise ValueError(f"not an object: {_shown(obj)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"lacks {', '.join(missing)}")
    decoders = {**required, **(optional or {})}
    return {k: decode_field(k, obj[k], decode) for k, decode in decoders.items() if k in obj}


def load_fixture(path, required: dict, optional: dict | None = None) -> dict:
    """Read the JSON fixture at ``path`` and decode it by ``decode_object``;
    JSON nested deeper than the parser's recursion limit is a ValueError."""
    with open(path) as fh:
        try:
            return decode_field(f"fixture {path}", fh,
                                lambda f: decode_object(json.load(f), required, optional))
        except RecursionError:
            raise ValueError(f"fixture {path}: JSON nested too deeply to parse") from None


def encode_float(x) -> dict:
    return {"value": float(x), "provenance": "float"}


def encode_series(s: TruncSeries) -> dict:
    return {"var": s.var, "floor": s.floor, "order": s.order,
            "coeffs": [encode_rational(c) for c in s.coeffs]}


def decode_series(obj) -> TruncSeries:
    s = decode_object(obj, {"var": decode_text, "floor": decode_int, "order": decode_int,
                            "coeffs": list_of(decode_rational)})
    return TruncSeries(s["var"], s["floor"], s["coeffs"], s["order"])


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
            raise ValueError(f"cannot parse polynomial near {_shown(text[pos:])}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = m.group("coef")
        vname = m.group("var")
        if coef is None and vname is None:
            raise ValueError(f"cannot parse polynomial near {_shown(text[pos:])}")
        try:
            c = Fraction(coef) if coef else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {_shown(m.group(0).strip())}") from None
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
