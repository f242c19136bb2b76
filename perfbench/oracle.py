"""Independent oracles for the benchmark's output checks.

Nothing here imports gegenkit.  Every expected value is computed from a
formula other than the ones the library uses:

* the identity's right side, (2 lam)_m / m!, from integer Pochhammer products
  with lam = p/q;
* C_m(t) from the explicit sum (DLMF 18.5.10)
  sum_k (-1)^k (lam)_{m-k} (2t)^{m-2k} / (k! (m-2k)!), in exact rationals,
  both as whole coefficient rows and as values at Fraction(lam), Fraction(t);
* the derivative of the generating function, 2 lam r (1 - 2rt + r^2)^(-lam-1);
* the majorant tail as a direct sum of C_m(1) r^m beyond the order, in
  50-digit mpmath arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath


def exact_text(x: Fraction) -> str:
    """The CLI's documented exact format: 'p/q' with the denominator always written."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rising_products(p: int, q: int, n: int) -> list[int]:
    """[q^j (p/q)_j for j = 0..n]: the integers prod_{i<j} (p + i q)."""
    out = [1]
    for j in range(n):
        out.append(out[-1] * (p + j * q))
    return out


def identity_rhs_row(lam: Fraction, m_max: int) -> list[Fraction]:
    """[(2 lam)_m / m! for m = 0..m_max] from integer products over q^m m!."""
    p, q = lam.numerator, lam.denominator
    num, den = 1, 1
    row = []
    for m in range(m_max + 1):
        row.append(Fraction(num, den))
        num *= 2 * p + m * q
        den *= q * (m + 1)
    return row


def at_one(lam, m: int) -> Fraction:
    """C_m(1) = (2 lam)_m / m! at the exact rational value of lam."""
    return identity_rhs_row(Fraction(lam), m)[m]


def explicit_rows(lam: Fraction, n: int) -> list[list[Fraction]]:
    """Rows C_0..C_n, sharing the integer rising products between rows."""
    p, q = lam.numerator, lam.denominator
    rising = rising_products(p, q, n)
    fact = [math.factorial(i) for i in range(n + 1)]
    rows = []
    for m in range(n + 1):
        row = [Fraction(0)] * (m + 1)
        for k in range(m // 2 + 1):
            j = m - 2 * k
            num = rising[m - k] << j
            den = q ** (m - k) * fact[k] * fact[j]
            row[j] = Fraction(-num if k % 2 else num, den)
        rows.append(row)
    return rows


def explicit_value(lam, m: int, t) -> Fraction:
    """C_m(t) at Fraction(lam), Fraction(t) by the explicit sum, exactly."""
    lam = Fraction(lam)
    t = Fraction(t)
    p, q = lam.numerator, lam.denominator
    a, b = (2 * t).numerator, (2 * t).denominator
    # Over the common denominator q^m b^m m! every term is an integer.
    fact_m = math.factorial(m)
    rising = rising_products(p, q, m)
    total = 0
    for k in range(m // 2 + 1):
        j = m - 2 * k
        term = (rising[m - k] * q ** k * a ** j * b ** (2 * k)
                * (fact_m // (math.factorial(k) * math.factorial(j))))
        total += -term if k % 2 else term
    return Fraction(total, q ** m * b ** m * fact_m)


def deriv_closed_form(lam: float, t: float, r: float) -> float:
    """d/dt (1 - 2rt + r^2)^(-lam) = 2 lam r (1 - 2rt + r^2)^(-lam-1), in 50 digits."""
    with mpmath.workdps(50):
        lam_, t_, r_ = mpmath.mpf(lam), mpmath.mpf(t), mpmath.mpf(r)
        return float(2 * lam_ * r_ * (1 - 2 * r_ * t_ + r_ * r_) ** (-lam_ - 1))


def majorant_tail(lam: float, order: int, r: float) -> float:
    """sum_{m > order} C_m(1) r^m, summed directly until the terms are negligible."""
    with mpmath.workdps(50):
        lam_, r_ = mpmath.mpf(lam), mpmath.mpf(r)
        c = mpmath.mpf(1)
        for m in range(order + 1):
            c = c * (2 * lam_ + m) / (m + 1)
        m = order + 1
        term = c * r_ ** m
        total = mpmath.mpf(0)
        while term > total * mpmath.mpf(10) ** -40 or m <= order + 2 * int(lam) + 2:
            total += term
            term = term * r_ * (2 * lam_ + m) / (m + 1)
            m += 1
        return float(total)
