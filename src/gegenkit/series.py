"""Truncated formal power series in r whose coefficients are integer polynomials in t.

A series of order N is a list of N + 1 rows, and row m is a list of `int`: the
coefficients, in increasing powers of t, of the r^m term.  All arithmetic
happens modulo r^(N+1).  The order is the truncation order, not the degree:
zero rows are data and are never dropped.  The one binary operation,
`series_mul`, truncates to the smaller operand's order, so every retained row
is fully determined -- nothing is padded with invented zeros.  The
composition route runs `compose_inner_polynomial` on these rows.
"""

from __future__ import annotations

from .coefficients import _check_index

__all__ = ["series_mul", "compose_inner_polynomial"]


def _settled(row: list) -> list:
    """`row` without trailing zeros; the zero row is [0]."""
    while row and not row[-1]:
        row.pop()
    return row or [0]


def series_mul(a: list, b: list) -> list:
    """Bivariate Cauchy product: row m is sum_{k=0}^m a_k b_(m-k), for m up to min(order).

    Each a_k b_(m-k) is the Cauchy product in t of two rows.  Zero entries of
    either operand are skipped, so a zero row costs nothing.  Every row of the
    result is settled: no trailing zeros, and [0] for zero.
    """
    n = min(len(a), len(b)) - 1
    out = [[] for _ in range(n + 1)]
    terms = [[(l, y) for l, y in enumerate(row) if y] for row in b[: n + 1]]
    nonzero = [(j, ys) for j, ys in enumerate(terms) if ys]
    for i, row in enumerate(a[: n + 1]):
        xs = [(k, x) for k, x in enumerate(row) if x]
        if not xs:
            continue
        for j, ys in nonzero:
            if i + j > n:
                break
            acc = out[i + j]
            acc.extend([0] * (xs[-1][0] + ys[-1][0] + 1 - len(acc)))
            for k, x in xs:
                for l, y in ys:
                    acc[k + l] += x * y
    return [_settled(row) for row in out]


def compose_inner_polynomial(outer_coeffs, inner: list, order: int) -> list:
    """Truncated composition sum_{j=0}^order outer_coeffs(j) * inner^j, as rows.

    The inner series must have zero constant term (valuation >= 1), so powers
    beyond inner^order cannot touch coefficients of r^order and the sum is
    finite and exact.  The inner operand denotes a polynomial in r: if it was
    built at a lower order its missing rows are genuinely zero and it is
    widened accordingly.  Only the nonzero coefficients of inner^j are added.
    """
    _check_index(order, "order")
    if not inner or any(inner[0]):
        raise ValueError("inner polynomial must have a zero constant-term row")
    widened = (list(inner) + [[0]] * order)[: order + 1]
    acc = [[outer_coeffs(0)]] + [[0] for _ in range(order)]
    power = [[1]] + [[0]] * order
    for j in range(1, order + 1):
        power = series_mul(power, widened)
        b = outer_coeffs(j)
        for row, total in zip(power, acc):
            total.extend([0] * (len(row) - len(total)))
            for k, c in enumerate(row):
                if c:
                    total[k] += b * c
    return [_settled(row) for row in acc]
