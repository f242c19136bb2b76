"""Truncated formal power series in the expansion variable r.

A series of order N stores the coefficients c_0..c_N of sum c_m r^m and all
arithmetic happens modulo r^(N+1).  The order is the truncation order, not
the degree: trailing zeros are data and are never stripped.  The one binary
operation, `series_mul`, truncates to the smaller operand's order, so every
retained coefficient is fully determined -- nothing is padded with invented
zeros.  It is the Cauchy product `Polynomial` multiplication shares, and
the composition route runs `compose_inner_polynomial` over integer
polynomials, `POLY_INT`.
"""

from __future__ import annotations

from .fields import CoefficientField, _cauchy

__all__ = ["TruncatedSeries", "series_mul", "compose_inner_polynomial"]


class TruncatedSeries:
    """Coefficients c_0..c_N over a coefficient field; index m holds the r^m term."""

    __slots__ = ("field", "coeffs")

    def __init__(self, coeffs, field: CoefficientField):
        items = tuple(field.coerce(c) for c in coeffs)
        if not items:
            raise ValueError("a truncated series needs at least the constant coefficient")
        self.field = field
        self.coeffs = items

    @classmethod
    def one(cls, field: CoefficientField, order: int) -> "TruncatedSeries":
        return cls([field.one] + [field.zero] * order, field)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.field is other.field and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r}, field={self.field.name})"


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product: c_m = sum_{k=0}^m a_k b_{m-k}, for m up to min(order).

    The product is `fields._cauchy`, the one `Polynomial` multiplication
    runs: terms accumulate in increasing k and exact zeros are skipped.
    """
    return TruncatedSeries(_cauchy(a, b, min(a.order, b.order)), a.field)


def compose_inner_polynomial(outer_coeffs, inner: TruncatedSeries, order: int) -> TruncatedSeries:
    """Truncated composition sum_{j=0}^order outer_coeffs(j) * inner^j.

    The inner series must have zero constant term (valuation >= 1), so powers
    beyond inner^order cannot touch coefficients of r^order and the sum is
    finite and exact.  The inner operand denotes a polynomial in r: if it was
    built at a lower order its missing coefficients are genuinely zero and it
    is widened accordingly.  Only the truthy (nonzero) coefficients of inner^j are added.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    f = inner.field
    if inner.coeffs[0]:
        raise ValueError("inner polynomial must have zero constant term")
    widened = TruncatedSeries((inner.coeffs + (f.zero,) * order)[: order + 1], f)
    acc = [f.coerce(outer_coeffs(0))] + [f.zero] * order
    power = TruncatedSeries.one(f, order)
    for j in range(1, order + 1):
        power = series_mul(power, widened)
        b = f.coerce(outer_coeffs(j))
        acc = [x + c * b if c else x for x, c in zip(acc, power.coeffs)]
    return TruncatedSeries(acc, f)
