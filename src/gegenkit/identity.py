"""The rising-factorial convolution identity as an executable check.

For lam > 0 and m >= 0, with a_k = (lam)_k / k!:

    sum_{k=0}^m a_k a_{m-k}  ==  (2 lam)_m / m!

The left side is the Cauchy-product coefficient of the conjugate factor pair
at phi = 0; the right side is the coefficient comparison of (1-r)^(-2 lam).
Exact mode (rational lam) asserts literal equality; float mode reports a
relative residual.

Exact mode runs in integers: with lam = p/q, multiplying by q^m m! turns the
identity into sum_k C(m, k) P_k P_{m-k} == Q_m, where P_k = prod_{j<k} (p + j q)
and Q_m = prod_{j<m} (2p + j q) (DLMF 5.2(iii)).  The summand is symmetric
under k <-> m-k, so only the terms k < m/2 are formed, doubled, plus the middle
term when m is even.  The right side is coefficients.gamma_ratio_coefficient
at 2 lam, the same C_m(1) that gegenbauer.value_at_one returns.  Float mode
sums gamma_ratios left to right.

`sweep` takes each lam once: it builds P, Q (or, in float mode, the
gamma_ratios prefixes of lam and 2 lam) up to m_max, and steps the binomial row
from m-1 to m by Pascal's rule.  Every report equals the one `verify` gives,
float bits included; the two sides stay computed apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import add

from .coefficients import (_check_index, _rising_products, check_lambda,
                           gamma_ratio_coefficient, gamma_ratios)

__all__ = ["IdentityReport", "identity_lhs", "identity_rhs", "verify", "sweep"]


@dataclass(frozen=True)
class IdentityReport:
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


def _half_convolution(row, P: list[int], m: int) -> int:
    """sum_{k=0}^m row[k] P_k P_{m-k} for a symmetric row; only row[: m//2 + 1] is read."""
    total = 2 * sum(row[k] * P[k] * P[m - k] for k in range((m + 1) // 2))
    if m % 2 == 0:
        total += row[m // 2] * P[m // 2] ** 2
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
    q = lam.denominator
    P = _rising_products(lam.numerator, q, m)
    row = [comb(m, k) for k in range(m // 2 + 1)]
    return Fraction(_half_convolution(row, P, m), q**m * factorial(m))


def identity_rhs(lam, m: int):
    """(2 lam)_m / m!, the t = 1 coefficient; exact lam = p/q gives Q_m / (q^m m!)."""
    return gamma_ratio_coefficient(2 * check_lambda(lam), m)


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
    """verify(lam, m) for m = 0..m_max, with each side's running products built once."""
    lam = check_lambda(lam)
    if isinstance(lam, float):
        a, b = gamma_ratios(lam, m_max), gamma_ratios(2 * lam, m_max)
        return [_report(lam, m, _float_convolution(a, m), b[m]) for m in range(m_max + 1)]
    p, q = lam.numerator, lam.denominator
    P, Q = _rising_products(p, q, m_max), _rising_products(2 * p, q, m_max)
    reports, row, scale = [], [1], 1
    for m in range(m_max + 1):
        if m:
            row = [1, *map(add, row, row[1:]), 1]
            scale *= m * q
        lhs = Fraction(_half_convolution(row, P, m), scale)
        reports.append(_report(lam, m, lhs, Fraction(Q[m], scale)))
    return reports


def sweep(lambdas, m_max: int) -> list[IdentityReport]:
    """Reports for the full grid, in (lambda, m) input order; equal to verify(lam, m) each.

    Items are independent; the order of the output never depends on how the
    work is scheduled.
    """
    _check_index(m_max, "m_max")
    return [rep for lam in lambdas for rep in _lambda_reports(lam, m_max)]
