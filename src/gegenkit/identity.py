"""The rising-factorial convolution identity as an executable check.

For lam > 0 and m >= 0, with a_k = (lam)_k / k!:

    sum_{k=0}^m a_k a_{m-k}  ==  (2 lam)_m / m!

The left side is the Cauchy-product coefficient of the conjugate factor pair
at phi = 0; the right side is the coefficient comparison of (1-r)^(-2 lam).
Float mode reports a relative residual.

Exact mode compares two reduced Fractions.  With lam = p/q, the left side is
the integer sum_k t_k over q^m m!, reduced once, with t_k = C(m, k) P_k P_{m-k}
and P_k = prod_{j<k} (p + j q) (DLMF 5.2(iii)).
As t_k = t_{m-k} and t_{k+1} / t_k = (m-k)(p + k q) / ((k+1)(p + (m-k-1) q)),
Horner on that ratio of small integers sums from the middle term out to
t_0 = P_m with big-by-small products only (Petkovsek, Wilf & Zeilberger, 1996).
The left side reads P alone; in `verify` the right side is
gegenbauer.value_at_one, C_m(1) = (2 lam)_m / m!.
Float mode sums gamma_ratios left to right.

`sweep` takes each lam once.  In both modes its right side is the running row
gamma_ratios(2 lam, m_max), which reaches the same reduced values as
value_at_one.  Exact mode carries only P_m and q^m m! from m-1 to m for the
left side; float mode builds the gamma_ratios prefix of lam up to m_max.
Every report equals the one `verify` gives, float bits included.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .coefficients import _check_index, _rising_product, check_lambda, gamma_ratios
from .gegenbauer import value_at_one as identity_rhs

__all__ = ["IdentityReport", "identity_lhs", "identity_rhs", "verify", "sweep"]


class IdentityReport(NamedTuple):
    """One (lam, m) verification: exact reports carry an equality flag, float
    reports carry a relative residual |lhs - rhs| / max(1, |rhs|)."""

    lam: object
    m: int
    lhs: object
    rhs: object
    exact_equal: bool | None = None
    residual: float | None = None

    def passed(self, tolerance: float = 1e-10) -> bool:
        if self.exact_equal is not None:
            return self.exact_equal
        return self.residual <= tolerance


def _lhs_numerator(p: int, q: int, m: int, P_m: int) -> int:
    """sum_{k=0}^m C(m, k) P_k P_{m-k} = P_m N / M, by Horner on the term ratio.

    N / M = (t_k + ... + t_{m-k}) / t_k, stepped from the middle down to k = 0.
    A remainder is a defect of ours, never a failed identity: ArithmeticError.
    """
    N, M = 1 + m % 2, 1
    for k in range(m // 2 - 1, -1, -1):
        b = (k + 1) * (p + (m - k - 1) * q)
        N, M = 2 * b * M + (m - k) * (p + k * q) * N, b * M
    total, remainder = divmod(P_m * N, M)
    if remainder:
        raise ArithmeticError(f"the left side at m = {m} is not an integer")
    return total


def _float_convolution(a: list, m: int) -> float:
    """sum_{k=0}^m a_k a_{m-k}, left to right."""
    total = 0.0
    for k in range(m + 1):
        total = total + a[k] * a[m - k]
    return total


def identity_lhs(lam, m: int):
    """sum_{k=0}^m (lam)_k (lam)_{m-k} / (k! (m-k)!).

    Exact lam = p/q: the integer sum_k C(m, k) P_k P_{m-k} over q^m m!,
    reduced once.  Float: the gamma_ratios factors summed left to right, so
    values match per-call gamma_ratio_coefficient evaluation bit for bit.
    """
    lam = check_lambda(lam)
    if isinstance(lam, float):
        return _float_convolution(gamma_ratios(lam, m), m)
    p, q = lam.numerator, lam.denominator
    return Fraction(_lhs_numerator(p, q, m, _rising_product(p, q, m)), q**m * factorial(m))


def _report(lam, m: int, lhs, rhs) -> IdentityReport:
    if isinstance(lam, Fraction):
        return IdentityReport(lam, m, lhs, rhs, exact_equal=(lhs == rhs))
    return IdentityReport(lam, m, lhs, rhs, residual=abs(lhs - rhs) / max(1.0, abs(rhs)))


def verify(lam, m: int) -> IdentityReport:
    """Check lhs == rhs at one (lam, m); exact equality or float residual.

    In exact mode a False flag would be an implementation defect: the
    identity holds for every lam > 0.
    """
    lam = check_lambda(lam)
    return _report(lam, m, identity_lhs(lam, m), identity_rhs(lam, m))


def _lambda_reports(lam, m_max: int) -> list[IdentityReport]:
    """verify(lam, m) for m = 0..m_max.  Both modes read the right side off the row
    gamma_ratios(2 lam, m_max); exact mode carries only P_m and q^m m! from m-1 to m."""
    lam = check_lambda(lam)
    rhs = gamma_ratios(2 * lam, m_max)
    if isinstance(lam, float):
        a = gamma_ratios(lam, m_max)
        return [_report(lam, m, _float_convolution(a, m), rhs[m]) for m in range(m_max + 1)]
    p, q = lam.numerator, lam.denominator
    reports, P, scale = [], 1, 1
    for m in range(m_max + 1):
        reports.append(_report(lam, m, Fraction(_lhs_numerator(p, q, m, P), scale), rhs[m]))
        P, scale = P * (p + m * q), scale * (m + 1) * q
    return reports


def sweep(lambdas, m_max: int) -> list[IdentityReport]:
    """Reports for the full grid, in (lambda, m) input order; equal to verify(lam, m) each.

    Each lam's right side, exact or float, is its running row gamma_ratios(2 lam, m_max).
    The exact left side carries only P_m and q^m m! from m-1 to m and reduces one
    Fraction per m; the float left side sums the gamma_ratios(lam, m_max) prefix.
    """
    _check_index(m_max, "m_max")
    return [rep for lam in lambdas for rep in _lambda_reports(lam, m_max)]
