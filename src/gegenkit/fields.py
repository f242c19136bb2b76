"""Coefficient fields shared by every series and polynomial operation.

Scalars are plain Python values (``fractions.Fraction`` or ``float``) and
combine through their own operators; a field object supplies the constants
and the coercion rules of each realization.  Exact arithmetic rides on the
stdlib ``Fraction``, which keeps every value canonical (reduced, with a
positive denominator) after each operation.

This module also owns the scalar literal format used by the CLI and by JSON
payloads: ``"p/q"`` (q > 0) or a plain integer for exact values, standard
decimal/scientific notation for floats.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

__all__ = [
    "CoefficientField",
    "ExactRationalField",
    "Float64Field",
    "EXACT",
    "FLOAT64",
    "FieldMismatchError",
    "parse_exact",
    "parse_scalar",
    "literal_kind",
    "format_exact",
    "format_float",
    "format_scalar",
]


class FieldMismatchError(ValueError):
    """Operands from different coefficient fields were combined."""


_EXACT_LITERAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _normalize_literal(text: str) -> str:
    # U+2212 (minus sign) shows up in copy-pasted input; treat it as '-'.
    return text.strip().replace("−", "-")


class CoefficientField:
    """Constants and coercion for one scalar realization.

    Arithmetic uses the scalars' own operators, so division by zero always
    raises ``ZeroDivisionError`` instead of producing a silent inf/nan.
    """

    name = "abstract"
    zero: object = None
    one: object = None

    def coerce(self, value):
        raise NotImplementedError

    def __repr__(self):
        return f"<field {self.name}>"


class ExactRationalField(CoefficientField):
    """Arbitrary-precision rationals (`fractions.Fraction`); equality is exact."""

    name = "exact"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            # Binary floats are rationals; the conversion is exact.
            if not math.isfinite(value):
                raise ValueError(f"cannot coerce non-finite float {value!r} to a rational")
            return Fraction(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into the exact field")


class Float64Field(CoefficientField):
    """IEEE-754 doubles."""

    name = "float64"
    zero = 0.0
    one = 1.0

    def coerce(self, value) -> float:
        if isinstance(value, float):
            return value
        if isinstance(value, (int, Fraction)):
            return float(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into the float64 field")


EXACT = ExactRationalField()
FLOAT64 = Float64Field()


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
