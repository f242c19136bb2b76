"""The composition sum of the generating function, on integer rows in r and t.

The composition route expands (1 - 2rt + r^2)^(-lam) = sum_j C(-lam, j) u^j with
u = r^2 - 2tr (DLMF 18.12.4).  `compose_inner_polynomial` sums outer[j] u^j
modulo r^(N+1) for that one u.  Each power u^j comes from u^(j-1) by one
multiplication by u, and a power's row in r holds only its nonzero terms,
as {power of t: coefficient}.  No row comes from a binomial formula, so this
route stays apart from the explicit sum (DLMF 18.5.10).
"""

from __future__ import annotations

__all__ = ["compose_inner_polynomial"]


def compose_inner_polynomial(outer: list) -> list:
    """sum_j outer[j] u^j mod r^(N+1), u = r^2 - 2tr and N = len(outer) - 1, as rows.

    Row m is the list of the m + 1 coefficients, in increasing powers of t, of the
    r^m term; integer `outer` gives integer rows.  Row m of u P is row m-2 of P less
    2t times row m-1 of P, so u^j reaches r^m only for j <= m <= 2j, and only in t^(2j-m).
    Refuses an empty `outer` with ValueError.
    """
    if not outer:
        raise ValueError("outer must hold at least one coefficient")
    rows = [[0] * (m + 1) for m in range(len(outer))]
    power = [{}, {}, {0: 1}] + [{} for _ in outer[1:]]  # row m at m + 2, after two zero rows
    for b in outer:
        for row, total in zip(power[2:], rows):
            for k, c in row.items():
                total[k] += b * c
        for m in range(len(power) - 1, 1, -1):  # top down: m - 1 and m - 2 still hold P's rows
            row = dict(power[m - 2])
            for k, c in power[m - 1].items():
                row[k + 1] = row.get(k + 1, 0) - 2 * c
            power[m] = row
    return rows
