"""The two coefficient fields of a table, and the scalar literal format.

Scalars are plain Python values and combine through their own operators; a
`CoefficientField` supplies the zero and the coercion rule of one
realization: `EXACT` (``fractions.Fraction``, canonical after every
operation) or `FLOAT64` (IEEE-754 doubles).  Neither coercion takes a `bool`.

It also owns the scalar literal format used by the CLI and by JSON payloads:
``"p/q"`` (q > 0) or a plain integer for exact values, standard
decimal/scientific notation for floats.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "CoefficientField",
    "EXACT",
    "FLOAT64",
    "parse_exact",
    "parse_scalar",
    "literal_kind",
    "format_exact",
    "format_float",
    "format_scalar",
]


_EXACT_LITERAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _normalize_literal(text: str) -> str:
    # U+2212 (minus sign) shows up in copy-pasted input; treat it as '-'.
    return text.strip().replace("−", "-")


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Constants and coercion for one scalar realization; fields compare by identity.

    Arithmetic uses the scalars' own operators, so division by zero always
    raises ``ZeroDivisionError`` instead of producing a silent inf/nan.
    """

    name: str
    zero: object
    coerce: Callable


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"cannot coerce non-finite float {value!r} to a rational")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Fraction(value)  # a binary float is a rational: the conversion is exact
    raise TypeError(f"cannot coerce {type(value).__name__} into the exact field")


def _to_float(value) -> float:
    if isinstance(value, float):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into the float64 field")


EXACT = CoefficientField("exact", Fraction(0), _to_fraction)
FLOAT64 = CoefficientField("float64", 0.0, _to_float)


def literal_kind(text: str) -> str:
    """Classify a scalar literal: 'fraction', 'integer' or 'float'.

    Integer literals are mode-neutral (they denote the same value in both
    fields); 'p/q' demands exact mode and anything with a decimal point or an
    exponent demands float mode.  Raises ValueError for malformed input.
    """
    s = _normalize_literal(text)
    if _EXACT_LITERAL.match(s):
        return "fraction" if "/" in s else "integer"
    try:
        float(s)
    except ValueError:
        raise ValueError(f"not a scalar literal: {text!r}") from None
    return "float"


def parse_exact(text: str) -> Fraction:
    """Parse 'p/q' (q > 0) or a plain integer into a canonical Fraction."""
    s = _normalize_literal(text)
    if not _EXACT_LITERAL.match(s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def parse_scalar(text: str):
    """Parse a literal into a Fraction (exact forms) or a float (decimal forms)."""
    kind = literal_kind(text)
    if kind == "float":
        return float(_normalize_literal(text))
    return parse_exact(text)


def format_exact(value) -> str:
    """Serialize an exact scalar as 'p/q'; the denominator is always written.

    CPython caps int-to-decimal conversion (4300 digits by default) to guard
    parsing against quadratic-time input.  Output of any size is ours to
    print, so the cap is lifted for this conversion only; parsing keeps it.
    """
    f = EXACT.coerce(value)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{f.numerator}/{f.denominator}"
    finally:
        sys.set_int_max_str_digits(cap)


def format_float(value: float) -> str:
    """Shortest decimal that round-trips bit-exactly (Python's repr)."""
    return repr(float(value))


def format_scalar(value) -> str:
    if isinstance(value, (int, Fraction)):
        return format_exact(value)
    if isinstance(value, float):
        return format_float(value)
    raise TypeError(f"cannot serialize {type(value).__name__} as a scalar")
