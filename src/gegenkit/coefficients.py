"""Rising-factorial products and the Gamma-ratio coefficients built from them.

The Gamma function is never evaluated on its own here: every Gamma expression
used downstream is a ratio with an integer offset, which collapses to a finite
product.  That keeps values exact over the rationals and overflow-free over
floats.

All functions are generic over the scalar type: pass a ``Fraction`` (or int)
for exact results, a ``float`` for double precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "check_lambda",
    "pochhammer",
    "gamma_ratios",
    "gamma_ratio_coefficient",
    "signed_binomial",
]


def _check_index(m: int) -> None:
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"index must be a nonnegative integer, got {m!r}")


def check_lambda(lam) -> None:
    """Reject an order parameter that is not a positive rational or finite float."""
    if isinstance(lam, float):
        if not math.isfinite(lam):
            raise ValueError("lambda must be finite")
        if lam <= 0.0:
            raise ValueError("lambda must be positive")
    elif isinstance(lam, (int, Fraction)):
        if lam <= 0:
            raise ValueError("lambda must be positive")
    else:
        raise TypeError(f"lambda must be a Fraction or float, got {type(lam).__name__}")


def pochhammer(x, m: int):
    """Rising factorial (x)_m = x (x+1) ... (x+m-1); the empty product is 1."""
    _check_index(m)
    result = x ** 0
    for j in range(m):
        result = result * (x + j)
    return result


def gamma_ratios(x, m: int) -> list:
    """[(x)_k / k! for k = 0..m], as the running product of (x+k)/(k+1).

    The incremental form keeps float evaluation overflow-free for any x
    where the values fit; over the rationals each entry equals
    pochhammer(x, k) / k! exactly.  An int x is taken as Fraction(x).
    """
    _check_index(m)
    if isinstance(x, int):
        x = Fraction(x)
    c = x ** 0
    out = [c]
    for k in range(m):
        c = c * (x + k) / (k + 1)
        out.append(c)
    return out


def gamma_ratio_coefficient(lam, m: int):
    """(lam)_m / m!, the last entry of gamma_ratios(lam, m)."""
    return gamma_ratios(lam, m)[m]


def signed_binomial(lam, m: int):
    """Binomial coefficient with negated upper index: C(-lam, m) = (-1)^m (lam)_m / m!."""
    c = gamma_ratio_coefficient(lam, m)
    return -c if m % 2 else c
