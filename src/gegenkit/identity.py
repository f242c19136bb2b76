"""The rising-factorial convolution identity as an executable check.

For lam > 0 and m >= 0, with a_k = (lam)_k / k!:

    sum_{k=0}^m a_k a_{m-k}  ==  (2 lam)_m / m!

The left side is the Cauchy-product coefficient of the conjugate factor pair
at phi = 0; the right side is the coefficient comparison of (1-r)^(-2 lam).
Exact mode (rational lam) asserts literal equality; float mode reports a
relative residual.

Exact mode runs in integers: with lam = p/q, multiplying by q^m m! turns the
identity into sum_k C(m, k) P_k P_{m-k} == Q_m, where P_k = prod_{j<k} (p + j q)
and Q_m = prod_{j<m} (2p + j q) (DLMF 5.2(iii)).  Float mode sums gamma_ratios
left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .coefficients import _check_index, check_lambda, gamma_ratio_coefficient, gamma_ratios

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


def _rising_products(a: int, q: int, m: int) -> list[int]:
    """[prod_{j<k} (a + j q) for k = 0..m], that is q^k (a/q)_k in integers."""
    _check_index(m)
    out = [1]
    for j in range(m):
        out.append(out[-1] * (a + j * q))
    return out


def identity_lhs(lam, m: int):
    """sum_{k=0}^m (lam)_k (lam)_{m-k} / (k! (m-k)!).

    Exact lam = p/q: the integer sum_k C(m, k) P_k P_{m-k} over q^m m!,
    reduced once.  Float: the gamma_ratios factors summed left to right, so
    values match per-call gamma_ratio_coefficient evaluation bit for bit.
    """
    check_lambda(lam)
    if isinstance(lam, float):
        a = gamma_ratios(lam, m)
        total = 0.0
        for k in range(m + 1):
            total = total + a[k] * a[m - k]
        return total
    q = lam.denominator
    P = _rising_products(lam.numerator, q, m)
    return Fraction(sum(comb(m, k) * P[k] * P[m - k] for k in range(m + 1)), q**m * factorial(m))


def identity_rhs(lam, m: int):
    """(2 lam)_m / m!, the t = 1 coefficient; exact lam = p/q gives Q_m / (q^m m!)."""
    check_lambda(lam)
    if isinstance(lam, float):
        return gamma_ratio_coefficient(2 * lam, m)
    q = lam.denominator
    return Fraction(_rising_products(2 * lam.numerator, q, m)[m], q**m * factorial(m))


def verify(lam, m: int) -> IdentityReport:
    """Check lhs == rhs at one (lam, m); exact equality or float residual.

    In exact mode a False flag would be an implementation defect: the
    identity holds for every lam > 0.
    """
    if isinstance(lam, int):
        lam = Fraction(lam)
    lhs = identity_lhs(lam, m)
    rhs = identity_rhs(lam, m)
    if isinstance(lam, Fraction):
        return IdentityReport(lam, m, lhs, rhs, exact_equal=(lhs == rhs))
    residual = abs(lhs - rhs) / max(1.0, abs(rhs))
    return IdentityReport(lam, m, lhs, rhs, residual=residual)


def sweep(lambdas, m_max: int) -> list[IdentityReport]:
    """Reports for the full grid, in (lambda, m) input order.

    Items are independent; the order of the output never depends on how the
    work is scheduled.
    """
    if not isinstance(m_max, int) or m_max < 0:
        raise ValueError("m_max must be a nonnegative integer")
    return [verify(lam, m) for lam in lambdas for m in range(m_max + 1)]
