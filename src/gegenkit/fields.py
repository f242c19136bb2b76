"""The two coefficient fields of a table, and the scalar literal format.

Scalars are plain Python values and combine through their own operators; a
`CoefficientField` supplies the zero and the coercion rule of one
realization: `EXACT` (``fractions.Fraction``, canonical after every
operation) or `FLOAT64` (IEEE-754 doubles).  Neither coercion takes a `bool`.

It also owns the scalar literal format used by the CLI and by JSON payloads:
``"p/q"`` (q > 0) or a plain integer for exact values, standard
decimal/scientific notation for floats.  `parse_scalar` is its one parser, and
the type it returns (int, Fraction or float) is the literal's kind; on output an
exact value is written as "p/q" and a float by its repr.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "CoefficientField",
    "EXACT",
    "FLOAT64",
    "parse_scalar",
    "format_exact",
    "format_scalar",
]


_EXACT_LITERAL = re.compile(r"^[+-]?\d+(?:/\d+)?$", re.ASCII)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Constants and coercion for one scalar realization; fields compare by identity.

    Arithmetic uses the scalars' own operators, so division by zero always
    raises ``ZeroDivisionError`` instead of producing a silent inf/nan.
    """

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


EXACT = CoefficientField(Fraction(0), _to_fraction)
FLOAT64 = CoefficientField(0.0, _to_float)


def parse_scalar(text: str):
    """Read a scalar literal in one pass; its type is its kind.

    A plain integer gives an int, which fits either field; 'p/q' (q > 0) gives a
    Fraction, which demands exact mode; a decimal or scientific literal gives a
    float, which demands float mode.  U+2212 reads as '-'.  Raises ValueError for
    malformed input, including what float() takes beyond that grammar: '_'
    separators and non-ASCII digits.
    """
    s = text.strip().replace("−", "-")  # U+2212 shows up in copy-pasted input
    if not s.isascii() or "_" in s:
        raise ValueError(f"not a scalar literal: {text!r}")
    if _EXACT_LITERAL.match(s):
        try:
            return Fraction(s) if "/" in s else int(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational literal: {text!r}") from None
        except ValueError:  # the grammar admitted s, so only the int-from-str cap refuses it
            raise ValueError(f"exact literal too long: {len(s)} characters") from None
    try:
        return float(s)
    except ValueError:
        raise ValueError(f"not a scalar literal: {text!r}") from None


def format_exact(value) -> str:
    """Serialize an exact scalar as 'p/q'; the denominator is always written.

    CPython caps int-to-str conversion (4300 digits by default) to guard
    parsing against quadratic-time input.  Output of any size is ours to
    print: past the cap both integers are written through `decimal.Decimal`,
    whose conversion from int is exact and uncapped.  The interpreter's
    setting is never touched.
    """
    f = EXACT.coerce(value)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError:  # only the cap can refuse the text of a Fraction
        return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def format_scalar(value) -> str:
    if isinstance(value, (int, Fraction)):
        return format_exact(value)
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip text; float() unwraps np.float64
    raise TypeError(f"cannot serialize {type(value).__name__} as a scalar")
