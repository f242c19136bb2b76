"""Gegenbauer polynomials C_m(t) by three mutually checking routes.

C_m(t) is the coefficient of r^m in (1 - 2 r t + r^2)^(-lam), lam > 0.  The
routes:

* composition  -- expand sum_j C(-lam, j) (r^2 - 2 t r)^j over polynomial
  coefficients and collect powers of r; exact, yields whole polynomials.
  It runs on the integer rows of `series` (row m: the coefficients in t of
  r^m), on q^N N! C_m (lam = p/q), and reduces each coefficient once.
* recurrence   -- C_0 = 1, C_1 = 2 lam t,
  m C_m = 2 t (m + lam - 1) C_{m-1} - (m + 2 lam - 2) C_{m-2};
  works over exact rationals or floats.  Exact mode (lam = p/q) carries
  each row in integers as R_m / d_m, divided by the gcd of d_m and the row,
  and reduces each coefficient once against that d_m.
  `value_via_recurrence` runs the same recurrence on values at one t, in
  O(m) steps and with no table (exact t = u/v: in integers, one reduction).
  Float `eval`, float tables' `evaluate` and the derivative check use it;
  the derivative comes from d/dt C_m^lam = 2 lam C_{m-1}^{lam+1}.
* conjugate product -- write t = cos(phi), factor the generating function as
  [(1 - r e^{i phi})(1 - r e^{-i phi})]^(-lam) and convolve the two binomial
  expansions, giving C_m(cos phi) as a finite complex sum whose imaginary
  part must vanish; float only.

The recurrence is not derivable from the generating-function argument alone;
it is adopted as an independent oracle and validated against the composition
route by the test suite, never trusted on its own.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, count, islice
from math import factorial, gcd, inf, isfinite, lcm

from .coefficients import _check_index, check_lambda, gamma_ratio_coefficient, gamma_ratios
from .fields import EXACT, FLOAT64, CoefficientField
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


class Route(enum.Enum):
    COMPOSITION = "composition"
    RECURRENCE = "recurrence"


@dataclass(frozen=True)
class GegenbauerParams:
    """Order parameter lam > 0 plus the truncation order / maximal degree N.

    A Fraction (or int) lam selects exact mode, a float lam selects float
    mode; the choice, `field`, flows through to the polynomial coefficients.  It is
    compared, so params of equal lam in the two modes are unequal.
    """

    lam: object
    order: int
    field: CoefficientField = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lam", check_lambda(self.lam))
        _check_index(self.order, "order")
        object.__setattr__(self, "field", EXACT if isinstance(self.lam, Fraction) else FLOAT64)


@dataclass(frozen=True)
class GegenbauerTable:
    """Polynomials [C_0, ..., C_N] in t, `polys`, built once from `params` by `route`:
    at construction for an exact table, whose `evaluate` runs Horner over them, and on
    the first read of `polys` for a float table, whose `evaluate` never reads them.
    `params` and `route` determine the rows, so they alone decide `==` and the hash."""

    params: GegenbauerParams
    route: Route

    def __post_init__(self):
        object.__setattr__(self, "route", Route(self.route))
        if self.params.field is EXACT:
            self.polys  # built now, not on first read
        elif self.route is Route.COMPOSITION:
            raise ValueError("the composition route supports exact mode only")

    @cached_property
    def polys(self) -> tuple:
        f, n, lam = self.params.field, self.params.order, self.params.lam
        if f is EXACT:
            p, q = lam.numerator, lam.denominator
            rows = (_composition_rows(p, q, n) if self.route is Route.COMPOSITION
                    else islice(_exact_rows(p, q), n + 1))
            return tuple(Polynomial._of([Fraction(c, d) if c else f.zero for c in row], f)
                         for row, d in rows)
        return tuple(Polynomial._of(row, f) for row in islice(_float_rows(lam), n + 1))

    def evaluate(self, m: int, t):
        """C_m at t in the table's own field.

        An exact table runs Horner over its own rows, so a composition table is evaluated
        apart from the recurrence.  A float table defers to `value_via_recurrence`, which
        reads no rows and does not cancel the way float Horner over monomials does.
        """
        _check_index(m, "m")
        if m > self.params.order:
            raise ValueError(f"degree {m} outside table range 0..{self.params.order}")
        if self.params.field is FLOAT64:
            return value_via_recurrence(self.params.lam, m, t)
        return self.polys[m].evaluate(t)


def table_via_composition(params: GegenbauerParams) -> GegenbauerTable:
    """Expand the generating function symbolically in t; exact mode only.

    The inner polynomial r^2 - 2 t r has valuation 1, so collecting powers of r from sum_j
    C(-lam, j) (r^2 - 2 t r)^j through j = N yields every exact C_m, m <= N.  The sum runs
    on integer rows, scaled by q^N N! for lam = p/q (`_composition_rows`).
    """
    return GegenbauerTable(params, Route.COMPOSITION)


def _composition_rows(p: int, q: int, n: int):
    """(row_m, q^n n!) for m = 0..n, row_m the integer coefficients of q^n n! C_m, lam = p/q.

    The outer coefficients c_j = q^n n! C(-lam, j) = (-1)^j q^(n-j) (n!/j!) prod_{i<j} (p + i q)
    are integers, stepped as c_{j+1} = -c_j (p + j q) / (q (j+1)) by exact division, and
    the inner series r^2 - 2 t r is integral: as `series` rows in r, [[0], [0, -2], [1]].
    So the whole expansion runs on integer rows, and row m comes back as row_m.
    """
    scale = q**n * factorial(n)
    outer = list(accumulate(range(n), lambda c, j: -c * (p + j * q) // (q * (j + 1)),
                            initial=scale))
    rows = compose_inner_polynomial(outer.__getitem__, [[0], [0, -2], [1]], n)
    return ((row, scale) for row in rows)


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
    """(R_m, d_m) for m = 0, 1, ...: C_m = R_m / d_m in integers, lam = p/q, with
    gcd(d_m, *R_m) = 1, so d_m is the lcm of the reduced denominators of row m.

    From (C_-1, C_0) = (0, 1), with L = lcm(d_{m-1}, d_{m-2}) and (a_m, b_m) from
    `_exact_steps`, row m is a_m (L / d_{m-1}) t R_{m-1} - b_m (L / d_{m-2}) R_{m-2}
    over m q L, and both are divided by their gcd.  So each row is carried reduced, and
    the per-coefficient reduction R_m[j] / d_m works on numbers no larger than it needs.
    """
    older, d_older, row, d = [0], 1, [1], 1
    for m, (a, b) in enumerate(_exact_steps(p, q), 1):
        yield row, d
        common = lcm(d, d_older)
        new = _next_row(a * (common // d), b * (common // d_older), row, older, 0)
        den = m * q * common
        g = gcd(den, *new)
        older, d_older, row, d = row, d, [x // g for x in new], den // g


def _exact_steps(p: int, q: int):
    """(a_k, b_k), k >= 1, of k q C_k = a_k t C_{k-1} - b_k C_{k-2}, lam = p/q (DLMF 18.9.1):
    the recurrence on C_k itself, which C_-1 = 0, C_0 = 1 start."""
    for k in count(1):
        yield 2 * ((k - 1) * q + p), (k - 2) * q + 2 * p


def table_via_recurrence(params: GegenbauerParams) -> GegenbauerTable:
    """Three-term recurrence in either field; validated elsewhere against composition.

    Exact lam = p/q runs in integers on rows C_m = R_m / d_m kept with
    gcd(d_m, *R_m) = 1 (`_exact_rows`, on the steps of `_exact_steps`), and
    reduces each nonzero coefficient once, as R_m[j] / d_m.  Float mode runs
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
    E_k = (q v)^k k! C_k(u/v), E_k = a_k u E_{k-1} - (k-1) q b_k v^2 E_{k-2} with
    (a_k, b_k) from `_exact_steps`, and reduces once, as E_m / ((q v)^m m!).
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
    for j, (a, b) in enumerate(islice(_exact_steps(p, q), m)):
        older, value = value, a * u * value - j * q * b * v * v * older
    return Fraction(value, (q * v) ** m * factorial(m))


@dataclass(frozen=True)
class ConjugateValue:
    """Real part of the conjugate-product convolution plus its imaginary residue."""

    value: float
    imag_residue: float
    within_tolerance: bool


def value_via_conjugate_product(lam, phi: float, m: int) -> ConjugateValue:
    """C_m(cos phi) as sum_k (lam)_k (lam)_{m-k} / (k! (m-k)!) e^{i(2k-m) phi}.

    The sum is mathematically real; the imaginary residue is recorded and the
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
    total = complex(0.0)
    for k in range(m + 1):
        phase = cmath.exp(1j * ((2 * k - m) * phi))
        total += prefix[k] * prefix[m - k] * phase
    if not cmath.isfinite(total):
        raise OverflowError("conjugate-product sum is not finite")
    residue = abs(total.imag)
    ok = residue <= _IMAG_TOLERANCE * (1.0 + abs(total.real))
    return ConjugateValue(total.real, residue, ok)


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


@dataclass(frozen=True)
class DerivativeInterchangeReport:
    """Closed-form t-derivative of the generating function vs. the term-wise sum."""

    lam: float
    t: float
    r: float
    order: int
    closed_form: float
    partial_sum: float
    residual: float
    tail_budget: float


def derivative_interchange_check(lam, t, r, order: int) -> DerivativeInterchangeReport:
    """Compare d/dt (1 - 2rt + r^2)^(-lam) with sum_{m<=order} C_m'(t) r^m.

    The closed form A = 2 lam r (1 - 2 r t + r^2)^(-lam-1) comes from the
    chain rule.  B sums C_m'(t) = 2 lam C_{m-1}^{lam+1}(t) (DLMF 18.9.19) as
    2 lam C_k^{lam+1}(t) r^(k+1) for k < order, every value from one pass of
    the recurrence on values at lam + 1; no table is built.  The report also
    carries an analytic tail budget 2 lam r times the lam+1 majorant remainder, from
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
        return DerivativeInterchangeReport(lam_f, t_f, r_f, order, 0.0, 0.0, 0.0, 0.0)

    base = 1.0 - 2.0 * r_f * t_f + r_f * r_f
    closed = 2.0 * lam_f * r_f * _float_power(base, -lam_f - 1.0,
                                              "closed form (1 - 2rt + r^2)^(-lam-1)")

    derivs = (2.0 * lam_f * c for c in _float_values(lam_f + 1.0, t_f, order - 1))
    partial = _power_sum(derivs, r_f, r_f)
    residual = abs(closed - partial)
    budget = 2.0 * lam_f * r_f * _majorant_remainder(2.0 * (lam_f + 1.0), order, r_f)
    return DerivativeInterchangeReport(lam_f, t_f, r_f, order, closed, partial, residual, budget)
