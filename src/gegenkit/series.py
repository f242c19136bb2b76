"""Truncated formal power series in the expansion variable r.

A series of order N stores the coefficients c_0..c_N of sum c_m r^m and all
arithmetic happens modulo r^(N+1).  The order is the truncation order, not
the degree: trailing zeros are data and are never stripped.  Binary
operations truncate to the smaller operand's order, so every retained
coefficient is fully determined -- nothing is padded with invented zeros.
"""

from __future__ import annotations

from .fields import CoefficientField, FieldMismatchError

__all__ = [
    "TruncatedSeries",
    "series_add",
    "series_mul",
    "series_scale",
    "compose_inner_polynomial",
]


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
        return (
            isinstance(other, TruncatedSeries)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r}, field={self.field.name})"


def _require_same_field(a: TruncatedSeries, b: TruncatedSeries) -> None:
    if a.field is not b.field:
        raise FieldMismatchError(
            f"series over {a.field.name} and {b.field.name} cannot be combined"
        )


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficient-wise sum, truncated to min(a.order, b.order)."""
    _require_same_field(a, b)
    return TruncatedSeries([x + y for x, y in zip(a.coeffs, b.coeffs)], a.field)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product: c_m = sum_{k=0}^m a_k b_{m-k}, for m up to min(order).

    For each output index the terms accumulate in increasing k, so float
    results are reproducible run to run.  Exact zero operands are skipped;
    the nonzero entries of b are collected once, so a product against a
    sparse b costs one pass over a for each nonzero entry of b.
    """
    _require_same_field(a, b)
    f = a.field
    n = min(a.order, b.order)
    out = [f.zero] * (n + 1)
    nonzero = [(j, bj) for j, bj in enumerate(b.coeffs[: n + 1]) if bj != f.zero]
    for i in range(n + 1):
        ai = a.coeffs[i]
        if ai == f.zero:
            continue
        for j, bj in nonzero:
            if i + j > n:
                break
            out[i + j] = out[i + j] + ai * bj
    return TruncatedSeries(out, f)


def series_scale(a: TruncatedSeries, scalar) -> TruncatedSeries:
    """Multiply every coefficient by a fixed scalar of the same field."""
    s = a.field.coerce(scalar)
    return TruncatedSeries([c * s for c in a.coeffs], a.field)


def compose_inner_polynomial(outer_coeffs, inner: TruncatedSeries, order: int) -> TruncatedSeries:
    """Truncated composition sum_{j=0}^order outer_coeffs(j) * inner^j.

    The inner series must have zero constant term (valuation >= 1), so powers
    beyond inner^order cannot touch coefficients of r^order and the sum is
    finite and exact.  The inner operand denotes a polynomial in r: if it was
    built at a lower order its missing coefficients are genuinely zero and it
    is widened accordingly.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    f = inner.field
    if inner.coeffs[0] != f.zero:
        raise ValueError("inner polynomial must have zero constant term")
    padded = list(inner.coeffs[: order + 1])
    padded += [f.zero] * (order + 1 - len(padded))
    widened = TruncatedSeries(padded, f)

    acc_coeffs = [f.coerce(outer_coeffs(0))] + [f.zero] * order
    acc = TruncatedSeries(acc_coeffs, f)
    power = TruncatedSeries.one(f, order)
    for j in range(1, order + 1):
        power = series_mul(power, widened)
        acc = series_add(acc, series_scale(power, outer_coeffs(j)))
    return acc
