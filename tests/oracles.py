"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's own series/polynomial
machinery: expansions run over a bivariate coefficient dict, products are
plain nested loops, and closed forms come from trigonometry.
"""

from fractions import Fraction
import math


def pochhammer(x, m: int):
    """Rising factorial (x)_m = x (x+1) ... (x+m-1) as the literal product; (x)_0 = 1."""
    if not isinstance(m, int) or m < 0:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}")
    out = x ** 0
    for j in range(m):
        out = out * (x + j)
    return out


def falling_binomial(exponent: Fraction, m: int) -> Fraction:
    """C(exponent, m) as the literal falling-factorial product."""
    out = Fraction(1)
    for j in range(m):
        out = out * (exponent - j) / (j + 1)
    return out


def full_convolution(a, b):
    """Complete polynomial product of two coefficient lists (no truncation)."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def bivariate_product(a, b, n: int):
    """Coefficient lists in t of r^0..r^n in the product of two series in r.

    Each operand lists, per power of r, the coefficient list of a polynomial
    in t; the product runs over a dict keyed by (power of r, power of t).
    """
    acc = {}
    for ir, pa in enumerate(a):
        for jr, pb in enumerate(b):
            for it, x in enumerate(pa):
                for jt, y in enumerate(pb):
                    key = (ir + jr, it + jt)
                    acc[key] = acc.get(key, Fraction(0)) + x * y
    return [[acc.get((m, k), Fraction(0)) for k in range(1 + max(k for (_, k) in acc))]
            for m in range(n + 1)]


def gegenbauer_coeff_lists(lam: Fraction, n: int):
    """Coefficient lists of C_0..C_n in t via bivariate expansion.

    Expands sum_j C(-lam, j) (r^2 - 2 t r)^j term by term over a dict keyed
    by (power of r, power of t) and collects the coefficient of each r^m.
    """
    acc = {}
    for j in range(n + 1):
        term = {(0, 0): Fraction(1)}
        for _ in range(j):
            grown = {}
            for (ir, it), c in term.items():
                grown[(ir + 2, it)] = grown.get((ir + 2, it), Fraction(0)) + c
                grown[(ir + 1, it + 1)] = grown.get((ir + 1, it + 1), Fraction(0)) - 2 * c
            term = grown
        b = falling_binomial(-lam, j)
        for (ir, it), c in term.items():
            if ir <= n:
                acc[(ir, it)] = acc.get((ir, it), Fraction(0)) + b * c
    lists = []
    for m in range(n + 1):
        deg = max((it for (ir, it) in acc if ir == m), default=0)
        lists.append([acc.get((m, jt), Fraction(0)) for jt in range(deg + 1)])
    return lists


def explicit_coeff_lists(lam: Fraction, n: int):
    """Coefficient lists of C_0..C_n in t from the explicit sum (DLMF 18.5.10): the
    coefficient of t^(m-2k) in C_m is (-1)^k (lam)_{m-k} 2^(m-2k) / (k! (m-2k)!)."""
    rising = [Fraction(1)]
    for j in range(n):
        rising.append(rising[-1] * (lam + j))
    lists = []
    for m in range(n + 1):
        row = [Fraction(0)] * (m + 1)
        for k in range(m // 2 + 1):
            row[m - 2 * k] = ((-1) ** k * rising[m - k] * 2 ** (m - 2 * k)
                              / (math.factorial(k) * math.factorial(m - 2 * k)))
        lists.append(row)
    return lists


def explicit_value(lam, m: int, t):
    """C_m(t) = sum_k (-1)^k (lam)_{m-k} (2t)^{m-2k} / (k! (m-2k)!), the explicit sum (DLMF 18.5.10)."""
    rising = [lam ** 0]
    for j in range(m):
        rising.append(rising[-1] * (lam + j))
    return sum((-1) ** k * rising[m - k] * (2 * t) ** (m - 2 * k)
               / (math.factorial(k) * math.factorial(m - 2 * k)) for k in range(m // 2 + 1))


def derivative(coeffs):
    """Coefficient list of d/dt of the polynomial with coefficients `coeffs`, lowest power first."""
    return [j * c for j, c in enumerate(coeffs) if j]


def chebyshev_u_value(m: int, theta: float) -> float:
    """U_m(cos theta) = sin((m+1) theta) / sin(theta); the lam = 1 family."""
    s = math.sin(theta)
    if abs(s) < 1e-12:
        raise ValueError("theta too close to a multiple of pi for the trig form")
    return math.sin((m + 1) * theta) / s
