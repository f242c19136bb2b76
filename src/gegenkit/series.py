"""The composition sum of the generating function, one product per table entry.

The composition route expands (1 - 2rt + r^2)^(-lam) = sum_j C(-lam, j) u^j with
u = r^2 - 2tr (DLMF 18.12.4).  `compose_inner_polynomial` sums outer[j] u^j
modulo r^(N+1) for that one u.  Each power u^j comes from u^(j-1) by one
multiplication by u.  u^j reaches r^m only in t^(2j-m), so a power is one integer
per power of r, and each table entry takes exactly one term.  No power comes from
a binomial formula, so this route stays apart from the explicit sum (DLMF 18.5.10).
"""

from __future__ import annotations

__all__ = ["compose_inner_polynomial"]


def compose_inner_polynomial(outer: list) -> list:
    """sum_j outer[j] u^j mod r^(N+1), u = r^2 - 2tr and N = len(outer) - 1, as rows.

    Row m is the list of the m + 1 coefficients, in increasing powers of t, of the
    r^m term; the rows take the type of `outer` (its zeros are outer[0] * 0).  The
    r^m term of u P is that of r^2 P less 2t times that of r P, so u^j reaches r^m
    only for j <= m <= 2j, and only in t^(2j-m): entry (m, 2j-m) is outer[j] times
    that one coefficient.  Refuses an empty `outer` with ValueError.
    """
    if not outer:
        raise ValueError("outer must hold at least one coefficient")
    n = len(outer) - 1
    zero = outer[0] * 0
    rows = [[zero] * (m + 1) for m in range(n + 1)]
    power = [0, 0, 1] + [0] * n  # r^m of u^j at m + 2, after two zeros
    for j, b in enumerate(outer):
        for m in range(j, min(2 * j, n) + 1):
            rows[m][2 * j - m] = b * power[m + 2]
        for m in range(len(power) - 1, 1, -1):  # top down: m - 1 and m - 2 still hold u^j
            power[m] = power[m - 2] - 2 * power[m - 1]
    return rows
