"""Gamma-ratio coefficients (x)_m / m! and the argument checks every layer shares.

The Gamma function is never evaluated on its own here: every Gamma expression
used downstream is a ratio with an integer offset, which collapses to a finite
product.  That keeps values exact over the rationals and overflow-free over
floats.

For an exact x = p/q (a Fraction or int), `gamma_ratio_coefficient` runs in
integers: (x)_m / m! is the product P_m = prod_{j<m} (p + j q) over q^m m!,
reduced once (DLMF 5.2(iii)).  `gamma_ratios` steps the running product of
(x+k)/(k+1) for every k < m, in reduced Fractions for an exact x and in floats
for a float x.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import EXACT

__all__ = [
    "check_lambda",
    "gamma_ratios",
    "gamma_ratio_coefficient",
]


def _check_index(m, name: str) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"{name} must be a nonnegative integer")


def check_lambda(lam):
    """Return lam, positive: a finite float as is, anything else through `EXACT.coerce`."""
    if not isinstance(lam, float):
        lam = EXACT.coerce(lam)
    elif not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return lam


def _rising_product(a: int, q: int, m: int) -> int:
    """prod_{j<m} (a + j q), that is q^m (a/q)_m in integers."""
    _check_index(m, "m")
    return math.prod(range(a, a + m * q, q))


def gamma_ratios(x, m: int) -> list:
    """[(x)_k / k! for k = 0..m], as the running product of (x+k)/(k+1).

    The incremental form keeps float evaluation overflow-free for any x
    where the values fit.  Any x but a float goes through `EXACT.coerce`.
    """
    _check_index(m, "m")
    if not isinstance(x, float):
        x = EXACT.coerce(x)
    c = x ** 0
    out = [c]
    for k in range(m):
        c = c * (x + k) / (k + 1)
        out.append(c)
    return out


def gamma_ratio_coefficient(x, m: int):
    """(x)_m / m!: exact x = p/q gives P_m / (q^m m!); a float x gives gamma_ratios(x, m)[m]."""
    if isinstance(x, float):
        return gamma_ratios(x, m)[m]
    x = EXACT.coerce(x)
    q = x.denominator
    return Fraction(_rising_product(x.numerator, q, m), q**m * math.factorial(m))

