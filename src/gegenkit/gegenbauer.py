"""Gegenbauer polynomials C_m(t) by three mutually checking routes.

C_m(t) is the coefficient of r^m in (1 - 2 r t + r^2)^(-lam), lam > 0.  The
routes:

* composition  -- expand sum_j C(-lam, j) (r^2 - 2 t r)^j over polynomial
  coefficients and collect powers of r; exact, yields whole polynomials.
  `series` steps each power of u = r^2 - 2 t r as one integer per power of r,
  and sets each coefficient of C_m once, as one product C(-lam, j) times that
  integer: no common scale, and no sum.
* recurrence   -- C_0 = 1, C_1 = 2 lam t,
  m C_m = 2 t (m + lam - 1) C_{m-1} - (m + 2 lam - 2) C_{m-2};
  works over exact rationals or floats.  Exact mode (lam = p/q) runs in
  integers at one fixed scale, E_m = q^m m! C_m, on the steps of
  `_exact_steps`: no lcm, no gcd and no division per row.  The leading
  coefficient is checked against its closed-form step by cross-multiplying;
  the others are stepped down in integers by the Gegenbauer differential
  equation's small ratios, each step checked on E_m and cross-cancelled as
  Fraction multiplies, so each entry is one Fraction built in lowest terms and
  every exact row is proven to be C_m (`_certified_rows`).
  `value_via_recurrence` runs the same steps on values at one t, in O(m)
  steps and with no table (exact t = u/v: at the scale (q v)^m m!, one
  reduction).  Float `eval`, float tables' `evaluate` and the derivative check
  use it; the derivative comes from d/dt C_m^lam = 2 lam C_{m-1}^{lam+1}.
* conjugate product -- write t = cos(phi), factor the generating function as
  [(1 - r e^{i phi})(1 - r e^{-i phi})]^(-lam) and convolve the two binomial
  expansions, giving C_m(cos phi) as a finite complex sum whose imaginary
  part must vanish; float only.

The recurrence is not derivable from the generating-function argument alone;
it is adopted as an independent oracle and validated against the composition
route by the test suite, never trusted on its own.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, partial
from itertools import count, islice
from math import cos, factorial, gcd, inf, isfinite, sin
from typing import NamedTuple

from .coefficients import _check_index, check_lambda, gamma_ratio_coefficient, gamma_ratios
from .fields import EXACT, FLOAT64
from .polynomials import Polynomial
from .series import compose_inner_polynomial

__all__ = [
    "Route",
    "GegenbauerParams",
    "GegenbauerTable",
    "ConjugateValue",
    "DerivativeInterchangeReport",
    "table_via_composition",
    "table_via_recurrence",
    "value_via_recurrence",
    "value_via_conjugate_product",
    "value_at_one",
    "majorant_tail",
    "derivative_interchange_check",
]

_IMAG_TOLERANCE = 1e-10

# Fraction(n, d) built with no gcd, for n / d in lowest terms with d > 0 only: the
# classmethod on CPython >= 3.12, the unnormalized constructor on 3.10 and 3.11
_coprime = getattr(Fraction, "_from_coprime_ints", None) or partial(Fraction, _normalize=False)


class Route(enum.Enum):
    COMPOSITION = "composition"
    RECURRENCE = "recurrence"


class GegenbauerParams(namedtuple("GegenbauerParams", "lam order exact")):
    """Order parameter lam > 0 plus the truncation order / maximal degree N.

    A Fraction (or int) lam selects exact mode, a float lam selects float mode; `exact`
    records the choice.  It is derived from lam and never passed in, and it is compared,
    so params of equal lam in the two modes are unequal.  Pickle, copy, `_make` and
    `_replace` rebuild a params from lam and order through `__new__` and its checks, and
    its repr shows only those two, as the constructor takes them.
    """

    __slots__ = ()

    def __new__(cls, lam, order: int):
        lam = check_lambda(lam)
        _check_index(order, "order")
        return super().__new__(cls, lam, order, isinstance(lam, Fraction))

    @classmethod
    def _make(cls, iterable):
        lam, order, *_ = iterable
        return cls(lam, order)

    def __getnewargs__(self):
        return self.lam, self.order

    def __repr__(self):
        return f"GegenbauerParams(lam={self.lam!r}, order={self.order!r})"


class GegenbauerTable(namedtuple("GegenbauerTable", "params route")):
    """Polynomials [C_0, ..., C_N] in t, `polys`, built once from `params` by `route`:
    at construction for an exact table, whose `evaluate` runs Horner over them, and on
    the first read of `polys` for a float table, whose `evaluate` never reads them.
    `params` and `route` determine the rows, so they alone decide `==` and the hash.
    `_make`, and so `_replace`, runs the constructor, route checks and eager rows alike."""

    def __new__(cls, params: GegenbauerParams, route: Route):
        self = super().__new__(cls, params, Route(route))
        if params.exact:
            self.polys  # built now, not on first read
        elif self.route is Route.COMPOSITION:
            raise ValueError("the composition route supports exact mode only")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        # pickle and copy carry built rows in the state, so they are never built again
        return tuple.__new__, (type(self), tuple(self)), vars(self)

    @cached_property
    def polys(self) -> tuple:
        n, lam = self.params.order, self.params.lam
        if not self.params.exact:
            rows = islice(_float_rows(lam), n + 1)
        elif self.route is Route.COMPOSITION:
            rows = _composition_rows(lam, n)
        else:
            rows = _certified_rows(lam.numerator, lam.denominator, n)
        return tuple(Polynomial(tuple(row)) for row in rows)

    def evaluate(self, m: int, t):
        """C_m at t in the table's own field.

        An exact table runs Horner over its own rows, so a composition table is evaluated
        apart from the recurrence.  A float table defers to `value_via_recurrence`, which
        reads no rows and does not cancel the way float Horner over monomials does.
        """
        _check_index(m, "m")
        if m > self.params.order:
            raise ValueError(f"degree {m} outside table range 0..{self.params.order}")
        if not self.params.exact:
            return value_via_recurrence(self.params.lam, m, t)
        return self.polys[m].evaluate(t)


def table_via_composition(params: GegenbauerParams) -> GegenbauerTable:
    """Expand the generating function symbolically in t; exact mode only.

    The inner polynomial r^2 - 2 t r has valuation 1, so collecting powers of r from sum_j
    C(-lam, j) (r^2 - 2 t r)^j through j = N yields every exact C_m, m <= N.  Each
    coefficient is one product of a reduced C(-lam, j) and an integer coefficient of
    u^j (`_composition_rows`).
    """
    return GegenbauerTable(params, Route.COMPOSITION)


def _composition_rows(lam: Fraction, n: int) -> list:
    """The rows of C_0, ..., C_n, lam exact: `compose_inner_polynomial` over the outer
    coefficients C(-lam, j) = (-1)^j (lam)_j / j!, j <= n, the reduced running products of
    `gamma_ratios(lam, n)` with alternating signs.  Each entry is one C(-lam, j) times an
    integer, so it is reduced against the denominator of C(-lam, j) alone."""
    ratios = gamma_ratios(lam, n)
    return compose_inner_polynomial([-c if j % 2 else c for j, c in enumerate(ratios)])


def _next_row(a, b, row: list, older: list, zero) -> list:
    """a t row - b older, the row after `row` of a three-term recurrence.

    The new row m = len(row) holds only powers of the parity of m, so only those
    entries are computed; the others stay `zero`.  Each computed entry is
    a * row[j-1] - b * older[j], a missing term counting as `zero`.
    """
    m = len(row)
    out = [zero] * (m + 1)
    s = m % 2
    out[s::2] = [a * x - b * y for x, y in zip(([zero] + row)[s::2], (older + [zero, zero])[s::2])]
    return out


def _float_rows(lam: float):
    """Coefficient rows of C_m for a float lam, m = 0, 1, ...: [1.0], [0.0, 2 lam], then
    m C_m = 2 t (m + lam - 1) C_{m-1} - (m + 2 lam - 2) C_{m-2} (`_next_row`)."""
    older, row = [1.0], [0.0, 2 * lam]
    yield older
    yield row
    for m in count(2):
        older, row = row, _next_row(2 * (m + lam - 1) / m, (m + 2 * lam - 2) / m, row, older, 0.0)
        yield row


def _exact_rows(p: int, q: int):
    """(E_m, s_m) for m = 0, 1, ...: C_m = E_m / s_m in integers, lam = p/q, at the one
    fixed scale s_m = q^m m!.  From (E_-1, E_0) = (0, 1), row m is
    a_m t E_{m-1} - b_m E_{m-2} with (a_m, b_m) from `_exact_steps`."""
    older, row, s = [0], [1], 1
    for m, (a, b) in enumerate(_exact_steps(p, q), 1):
        yield row, s
        older, row, s = row, _next_row(a, b, row, older, 0), s * m * q


def _certified_rows(p: int, q: int, n: int):
    """Rows 0..n of `_exact_rows` as Fractions, each proven to be C_m by the
    Gegenbauer equation (DLMF 18.8, Table 18.8.1).

    The leading coefficient c = E_m[m] / s_m must equal `lead`, c_{0,0} = 1 stepped as
    c_{m,m} = c_{m-1,m-1} 2(p + (m-1) q) / (m q), which fixes the scale; it is checked by
    cross-multiplying, so no gcd runs against s_m.  Each c_k, k = m-2, m-4, ..., is then
    c_{k+2} A / B, A = q (k+2)(k+1), B = (k-m)(q (k+m) + 2p), once the integers pass
    A E_m[k+2] == B E_m[k]: so c_k = E_m[k] / s_m, in lowest terms.  The entries of the
    other parity are zero.  A failed check raises ArithmeticError naming m and k.

    c_k is carried as num / den in lowest terms, den > 0.  A / B is reduced by gcd(A, B)
    to a / b with b = |B| / g > 0 (B < 0 for k < m, so the sign moves to a), and the
    product is cross-cancelled by gcd(num, b) and gcd(a, den), as Fraction multiplies: with
    num / den and a / b each in lowest terms, the result is too, so each entry is built once
    by `_coprime`, whose precondition is exactly that (lowest terms, denominator > 0).
    """
    lead = Fraction(1)
    for m, (row, s) in enumerate(islice(_exact_rows(p, q), n + 1)):
        c = lead
        if row[m] * c.denominator != c.numerator * s:
            raise ArithmeticError(f"exact recurrence row {m}: leading coefficient of t^{m} is off")
        lead = c * Fraction(2 * (p + m * q), (m + 1) * q)
        out = [Fraction(0)] * (m + 1)
        out[m] = c
        num, den = c.numerator, c.denominator
        for k in range(m - 2, -1, -2):
            a, b = q * (k + 2) * (k + 1), (k - m) * (q * (k + m) + 2 * p)
            if a * row[k + 2] != b * row[k]:
                raise ArithmeticError(f"exact recurrence row {m} fails the Gegenbauer equation "
                                      f"at t^{k}")
            g = gcd(a, b)
            a, b = -a // g, -b // g
            g1, g2 = gcd(num, b), gcd(a, den)
            num, den = (num // g1) * (a // g2), (den // g2) * (b // g1)
            out[k] = _coprime(num, den)
        yield out


def _exact_steps(p: int, q: int):
    """(a_k, b_k), k >= 1, of E_k = a_k t E_{k-1} - b_k E_{k-2} on E_k = q^k k! C_k,
    lam = p/q: DLMF 18.9.1, k q C_k = 2((k-1) q + p) t C_{k-1} - ((k-2) q + 2p) C_{k-2},
    times q^(k-1) (k-1)!.  E_-1 = 0, E_0 = 1 start it."""
    for k in count(1):
        yield 2 * ((k - 1) * q + p), (k - 1) * q * ((k - 2) * q + 2 * p)


def table_via_recurrence(params: GegenbauerParams) -> GegenbauerTable:
    """Three-term recurrence in either field; validated elsewhere against composition.

    Exact lam = p/q runs in integers on rows C_m = E_m / s_m at the one scale
    s_m = q^m m! (`_exact_rows`, on the steps of `_exact_steps`).  It checks the leading
    coefficient by cross-multiplying and steps the rest down by the Gegenbauer equation,
    each step checked in integers; a row that fails a check raises ArithmeticError
    (`_certified_rows`).  Float mode runs
    m C_m = 2 t (m + lam - 1) C_{m-1} - (m + 2 lam - 2) C_{m-2}.
    Both touch only the entries of the parity of m; float rows wait for a read of `polys`.
    """
    return GegenbauerTable(params, Route.RECURRENCE)


def _float_values(lam: float, t: float, n: int):
    """C_0(t), ..., C_n(t) for a float lam: the three-term recurrence run on values."""
    older, value = 1.0, 2 * lam * t
    yield from (older, value)[: n + 1]
    for k in range(2, n + 1):
        older, value = value, (2 * t * (k + lam - 1) * value - (k + 2 * lam - 2) * older) / k
        yield value


def value_via_recurrence(lam, m: int, t):
    """C_m(t) by the three-term recurrence run on values at t (DLMF 18.9.1); no table.

    A float lam runs in float.  An exact lam = p/q with t = u/v (t is taken
    exactly, as a table of that lam would take it) runs in integers on
    E_k = (q v)^k k! C_k(u/v), E_k = a_k u E_{k-1} - b_k v^2 E_{k-2} with (a_k, b_k)
    from `_exact_steps`, the scale of the exact rows times v^k, and reduces once, as
    E_m / ((q v)^m m!).
    A float t that is inf or nan raises ValueError.
    """
    lam = check_lambda(lam)
    _check_index(m, "m")
    if isinstance(t, float) and not isfinite(t):
        raise ValueError(f"t must be finite, not {t!r}")
    if isinstance(lam, float):
        for value in _float_values(lam, FLOAT64.coerce(t), m):
            pass
        return value
    p, q = lam.numerator, lam.denominator
    t = EXACT.coerce(t)
    u, v = t.numerator, t.denominator
    older, value = 0, 1
    for a, b in islice(_exact_steps(p, q), m):
        older, value = value, a * u * value - b * v * v * older
    return Fraction(value, (q * v) ** m * factorial(m))


class ConjugateValue(NamedTuple):
    """Real part of the conjugate-product convolution plus its imaginary residue."""

    value: float
    imag_residue: float
    within_tolerance: bool


def value_via_conjugate_product(lam, phi: float, m: int) -> ConjugateValue:
    """C_m(cos phi) as sum_k (lam)_k (lam)_{m-k} / (k! (m-k)!) e^{i(2k-m) phi}.

    The sum is taken as its real and imaginary parts, the weights times cos and sin of
    (2k-m) phi.  It is mathematically real; the imaginary residue is recorded and the
    result is flagged when |imag| exceeds 1e-10 * (1 + |real|),
    which signals a numerical defect rather than a math error.  A phi that is
    inf or nan raises ValueError; a sum that overflows to inf or nan raises
    OverflowError.
    """
    check_lambda(lam)
    phi = FLOAT64.coerce(phi)
    if not isfinite(phi):
        raise ValueError(f"phi must be finite, not {phi!r}")
    prefix = gamma_ratios(float(lam), m)
    real = imag = 0.0
    for k in range(m + 1):
        weight, x = prefix[k] * prefix[m - k], (2 * k - m) * phi
        real += weight * cos(x)
        imag += weight * sin(x)
    if not (isfinite(real) and isfinite(imag)):
        raise OverflowError("conjugate-product sum is not finite")
    residue = abs(imag)
    ok = residue <= _IMAG_TOLERANCE * (1.0 + abs(real))
    return ConjugateValue(real, residue, ok)


def value_at_one(lam, m: int):
    """C_m(1) = (2 lam)_m / m!, the coefficient-comparison closed form at t = 1."""
    return gamma_ratio_coefficient(2 * check_lambda(lam), m)


def _float_power(base: float, exponent: float, what: str) -> float:
    """base ** exponent; on overflow, OverflowError saying that `what` is not finite.
    A base that rounded to 0.0 under a negative exponent overflows too: IEEE gives +inf."""
    try:
        return base ** exponent
    except (OverflowError, ZeroDivisionError):
        raise OverflowError(f"{what} is not finite") from None


def _power_sum(coeffs, r, power):
    """sum_k c_k power r^k over `coeffs`, stopped once the running power underflows to 0:
    no later term adds anything, and an overflowing c_k cannot turn the sum into nan."""
    total = power * 0
    for c in coeffs:
        if not power:
            break  # every later term adds exactly 0
        total += c * power
        power *= r
    return total


def _majorant_remainder(two_lam, terms: int, r):
    """(1 - r)^(-two_lam) less its first `terms` terms (two_lam)_k / k! r^k, k < terms:
    exact for a Fraction r (two_lam is then an integer, so `**` is exact).  A float r
    computes the closed form first, clamps rounding residue below 0 to 0 and returns inf
    for a partial sum that overflows, the only sure bound."""
    closed = _float_power(1 - r, -two_lam, "majorant closed form (1 - r)^(-2 lam)")
    partial = _power_sum(gamma_ratios(two_lam, terms - 1) if terms else (), r, r ** 0)
    if isinstance(r, Fraction):
        return closed - partial
    return max(closed - partial, 0.0) if isfinite(partial) else inf


def majorant_tail(lam, order: int, r):
    """Upper bound on |sum_{m>order} C_m(t) r^m| valid for every t in [-1, 1].

    At t = 1 the coefficients C_m(1) = (2 lam)_m / m! are the largest possible
    absolute values, and they sum to the closed form (1-r)^(-2 lam).  The tail
    bound is that closed form minus the partial sum through `order` -- the
    exact remainder of the majorant series.

    Returns a Fraction when lam and r are exact and 2 lam is an integer (the closed form
    is then rational), and the bound is then exact.  Otherwise it computes in float:
    the difference is accurate only to about u (1-r)^(-2 lam) absolute, u the unit
    roundoff, so a tail below that can come out smaller than the true tail, even 0.0.
    Negative rounding residue is clamped to zero and an overflowing partial sum gives
    inf.  r is coerced into that field like every other point, so a bool is refused.
    """
    lam = check_lambda(lam)
    _check_index(order, "order")
    exact = isinstance(lam, Fraction) and not isinstance(r, float) and (2 * lam).denominator == 1
    rr = (EXACT if exact else FLOAT64).coerce(r)
    if not 0 < rr < 1:
        raise ValueError("r must lie strictly between 0 and 1")
    return _majorant_remainder(2 * lam if exact else 2.0 * float(lam), order + 1, rr)


class DerivativeInterchangeReport(NamedTuple):
    """Closed-form t-derivative of the generating function vs. the term-wise sum."""

    closed_form: float
    partial_sum: float
    residual: float
    tail_budget: float


def derivative_interchange_check(lam, t, r, order: int) -> DerivativeInterchangeReport:
    """Compare d/dt (1 - 2rt + r^2)^(-lam) with sum_{m<=order} C_m'(t) r^m.

    The closed form A = 2 lam r (1 - 2 r t + r^2)^(-lam-1) comes from the
    chain rule.  B sums C_m'(t) = 2 lam C_{m-1}^{lam+1}(t) (DLMF 18.9.19) as
    2 lam C_k^{lam+1}(t) r^(k+1) for k < order, every value from one pass of
    the recurrence on values at lam + 1; no table is built.  The report holds four
    figures and none of the inputs: A as `closed_form`, B as `partial_sum`, |A - B| as
    `residual`, and as `tail_budget` 2 lam r times the lam+1 majorant remainder, from
    the kernel of `majorant_tail`: term-wise derivatives grow like the lam+1 family, so
    the same majorant argument bounds what the partial sum leaves out.  The budget is an
    empirical check harness quantity; the suite verifies it covers the residual, and the
    residual itself is the number the tolerance applies to.

    r = 0 is admitted as the trivial case (every term carries a factor r, so
    A = B = 0 and the budget is 0).
    """
    lam_f, t_f, r_f = float(check_lambda(lam)), FLOAT64.coerce(t), FLOAT64.coerce(r)
    _check_index(order, "order")
    if not -1.0 <= t_f <= 1.0:
        raise ValueError("t must lie in [-1, 1]")
    if not 0.0 <= r_f < 1.0:
        raise ValueError("r must lie in [0, 1)")
    if r_f == 0.0:
        return DerivativeInterchangeReport(0.0, 0.0, 0.0, 0.0)

    base = 1.0 - 2.0 * r_f * t_f + r_f * r_f
    closed = 2.0 * lam_f * r_f * _float_power(base, -lam_f - 1.0,
                                              "closed form (1 - 2rt + r^2)^(-lam-1)")

    derivs = (2.0 * lam_f * c for c in _float_values(lam_f + 1.0, t_f, order - 1))
    partial = _power_sum(derivs, r_f, r_f)
    residual = abs(closed - partial)
    budget = 2.0 * lam_f * r_f * _majorant_remainder(2.0 * (lam_f + 1.0), order, r_f)
    return DerivativeInterchangeReport(closed, partial, residual, budget)
