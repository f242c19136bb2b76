"""Gegenbauer polynomials C_m(t) by three mutually checking routes.

C_m(t) is the coefficient of r^m in (1 - 2 r t + r^2)^(-lam), lam > 0.  The
routes:

* composition  -- expand sum_j C(-lam, j) (r^2 - 2 t r)^j over polynomial
  coefficients and collect powers of r; exact, yields whole polynomials.
* recurrence   -- C_0 = 1, C_1 = 2 lam t,
  m C_m = 2 t (m + lam - 1) C_{m-1} - (m + 2 lam - 2) C_{m-2};
  works over exact rationals or floats.  Exact mode (lam = p/q) runs in
  integers on q^m m! C_m and reduces each coefficient once.
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
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import factorial

from .coefficients import (_check_index, check_lambda, gamma_ratio_coefficient, gamma_ratios,
                           signed_binomial)
from .fields import EXACT, FLOAT64, CoefficientField
from .polynomials import POLY_EXACT, Polynomial
from .series import TruncatedSeries, compose_inner_polynomial

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


class Route(enum.Enum):
    COMPOSITION = "composition"
    RECURRENCE = "recurrence"


@dataclass(frozen=True)
class GegenbauerParams:
    """Order parameter lam > 0 plus the truncation order / maximal degree N.

    A Fraction (or int) lam selects exact mode, a float lam selects float
    mode; the choice flows through to the polynomial coefficients.
    """

    lam: object
    order: int

    def __post_init__(self):
        object.__setattr__(self, "lam", check_lambda(self.lam))
        _check_index(self.order, "order")

    @property
    def field(self) -> CoefficientField:
        return EXACT if isinstance(self.lam, Fraction) else FLOAT64


@dataclass(frozen=True)
class GegenbauerTable:
    """Polynomials [C_0, ..., C_N] in t, tagged with the route that built them."""

    params: GegenbauerParams
    polys: tuple
    route: Route

    def evaluate(self, m: int, t):
        """C_m at t in the table's own field.

        An exact table runs exact Horner over its own polynomials, so a
        composition table is evaluated apart from the recurrence.  A float
        table defers to `value_via_recurrence`, which does not cancel the
        way float Horner over monomials does.
        """
        if not 0 <= m <= self.params.order:
            raise ValueError(f"degree {m} outside table range 0..{self.params.order}")
        if self.params.field is FLOAT64:
            return value_via_recurrence(self.params.lam, m, t)
        return self.polys[m].evaluate(t)


def table_via_composition(params: GegenbauerParams) -> GegenbauerTable:
    """Expand the generating function symbolically in t; exact mode only.

    The inner polynomial r^2 - 2 t r has valuation 1, so collecting powers of
    r from sum_j C(-lam, j) (r^2 - 2 t r)^j through j = N yields every C_m,
    m <= N, with exact rational coefficients.
    """
    if params.field is not EXACT:
        raise ValueError("the composition route supports exact mode only")
    n = params.order
    lam = params.lam
    inner_coeffs = [POLY_EXACT.zero, Polynomial([0, -2]), POLY_EXACT.one]
    inner = TruncatedSeries(inner_coeffs[: n + 1], POLY_EXACT)
    expansion = compose_inner_polynomial(lambda j: signed_binomial(lam, j), inner, n)
    return GegenbauerTable(params, expansion.coeffs, Route.COMPOSITION)


def _parity_rows(first: list, steps):
    """Coefficient rows of a three-term recurrence: [1], `first`, then for m = 2, 3, ...
    row_m = a t row_{m-1} - b row_{m-2}, with (a, b) the m-th item of `steps`.

    Row m holds only powers of the parity of m, so only those entries are
    computed; the others stay the zero of `first`.  Each computed entry is
    a * row_{m-1}[j-1] - b * row_{m-2}[j], a missing term counting as that zero.
    """
    zero = first[0]
    older, row = [zero + 1], first
    yield older
    yield row
    for m, (a, b) in enumerate(steps, 2):
        shifted, padded = [zero] + row, older + [zero, zero]
        older, row = row, [zero] * (m + 1)
        s = m % 2
        row[s::2] = [a * x - b * y for x, y in zip(shifted[s::2], padded[s::2])]
        yield row


def table_via_recurrence(params: GegenbauerParams) -> GegenbauerTable:
    """Three-term recurrence in either field; validated elsewhere against composition.

    Exact lam = p/q runs in integers on D_m = q^m m! C_m,
    D_m = 2 t ((m-1) q + p) D_{m-1} - (m-1) q ((m-2) q + 2p) D_{m-2},
    and reduces each nonzero coefficient once, as D_m[j] / (q^m m!).  Float
    mode runs m C_m = 2 t (m + lam - 1) C_{m-1} - (m + 2 lam - 2) C_{m-2}.
    Both touch only the entries of the parity of m.
    """
    f, n, lam = params.field, params.order, params.lam
    if f is EXACT:
        p, q = lam.numerator, lam.denominator
        steps = ((2 * ((m - 1) * q + p), (m - 1) * q * ((m - 2) * q + 2 * p))
                 for m in range(2, n + 1))
        scales = accumulate(range(1, n + 1), lambda s, m: s * m * q, initial=1)
        polys = [Polynomial._of([Fraction(c, s) if c else f.zero for c in row], f)
                 for row, s in zip(_parity_rows([0, 2 * p], steps), scales)]
    else:
        steps = ((2 * (m + lam - 1) / m, (m + 2 * lam - 2) / m) for m in range(2, n + 1))
        polys = [Polynomial._of(row, f)
                 for row in islice(_parity_rows([f.zero, 2 * lam], steps), n + 1)]
    return GegenbauerTable(params, tuple(polys), Route.RECURRENCE)


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
    E_k = q^k k! v^k C_k(u/v),
    E_k = 2u((k-1)q + p) E_{k-1} - v^2 (k-1) q ((k-2)q + 2p) E_{k-2},
    and reduces once, as E_m / (q^m m! v^m).
    """
    lam = check_lambda(lam)
    _check_index(m, "m")
    if isinstance(lam, float):
        for value in _float_values(lam, FLOAT64.coerce(t), m):
            pass
        return value
    p, q = lam.numerator, lam.denominator
    t = EXACT.coerce(t)
    u, v = t.numerator, t.denominator
    older, value = 0, 1
    for k in range(1, m + 1):
        older, value = value, (2 * u * ((k - 1) * q + p) * value
                               - v * v * (k - 1) * q * ((k - 2) * q + 2 * p) * older)
    return Fraction(value, (q * v) ** m * factorial(m))


@dataclass(frozen=True)
class ConjugateValue:
    """Real part of the conjugate-product convolution plus its imaginary residue."""

    value: float
    imag_residue: float
    within_tolerance: bool


def value_via_conjugate_product(lam, phi: float, m: int, imag_tolerance: float = 1e-10) -> ConjugateValue:
    """C_m(cos phi) as sum_k (lam)_k (lam)_{m-k} / (k! (m-k)!) e^{i(2k-m) phi}.

    The sum is mathematically real; the imaginary residue is recorded and the
    result is flagged when |imag| exceeds imag_tolerance * (1 + |real|),
    which signals a numerical defect rather than a math error.  A sum that
    overflows to inf or nan raises OverflowError.
    """
    check_lambda(lam)
    prefix = gamma_ratios(float(lam), m)
    phi = float(phi)
    total = complex(0.0)
    for k in range(m + 1):
        phase = cmath.exp(1j * ((2 * k - m) * phi))
        total += prefix[k] * prefix[m - k] * phase
    if not cmath.isfinite(total):
        raise OverflowError("conjugate-product sum is not finite")
    residue = abs(total.imag)
    ok = residue <= imag_tolerance * (1.0 + abs(total.real))
    return ConjugateValue(total.real, residue, ok)


def value_at_one(lam, m: int):
    """C_m(1) = (2 lam)_m / m!, the coefficient-comparison closed form at t = 1."""
    return gamma_ratio_coefficient(2 * check_lambda(lam), m)


def majorant_tail(lam, order: int, r):
    """Upper bound on |sum_{m>order} C_m(t) r^m| valid for every t in [-1, 1].

    At t = 1 the coefficients C_m(1) = (2 lam)_m / m! are the largest possible
    absolute values, and they sum to the closed form (1-r)^(-2 lam).  The tail
    bound is that closed form minus the partial sum through `order` -- the
    exact remainder of the majorant series.

    Returns a Fraction when lam and r are exact and 2 lam is an integer (the
    closed form is then rational); otherwise computes in float, where tiny
    negative rounding residue is clamped to zero.
    """
    lam = check_lambda(lam)
    _check_index(order, "order")
    if not isinstance(r, (int, Fraction, float)):
        raise TypeError(f"r must be a Fraction or float, got {type(r).__name__}")
    if not 0 < r < 1:
        raise ValueError("r must lie strictly between 0 and 1")

    exact = isinstance(lam, Fraction) and not isinstance(r, float) and (2 * lam).denominator == 1
    if exact:
        two_lam, rr = 2 * lam, Fraction(r)
        closed = 1 / (1 - rr) ** int(two_lam)
    else:
        two_lam, rr = 2.0 * float(lam), float(r)
        closed = (1.0 - rr) ** -two_lam
    partial = rr * 0
    power = rr ** 0
    for c in gamma_ratios(two_lam, order):
        partial += c * power
        power *= rr
    return closed - partial if exact else max(closed - partial, 0.0)


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
    carries an analytic tail budget 2 lam r * majorant_tail(lam+1, order-1, r):
    term-wise derivatives grow like the lam+1 family, so the same majorant
    argument bounds what the partial sum leaves out.  The budget is an empirical check harness
    quantity; the suite verifies it covers the residual, and the residual
    itself is the number the tolerance applies to.

    r = 0 is admitted as the trivial case (every term carries a factor r, so
    A = B = 0 and the budget is 0).
    """
    check_lambda(lam)
    lam_f = float(lam)
    t_f = float(t)
    r_f = float(r)
    _check_index(order, "order")
    if not -1.0 <= t_f <= 1.0:
        raise ValueError("t must lie in [-1, 1]")
    if not 0.0 <= r_f < 1.0:
        raise ValueError("r must lie in [0, 1)")
    if r_f == 0.0:
        return DerivativeInterchangeReport(lam_f, t_f, r_f, order, 0.0, 0.0, 0.0, 0.0)

    base = 1.0 - 2.0 * r_f * t_f + r_f * r_f
    closed = 2.0 * lam_f * r_f * base ** (-lam_f - 1.0)

    partial = 0.0
    power = r_f
    for c in _float_values(lam_f + 1.0, t_f, order - 1):
        partial += 2.0 * lam_f * c * power
        power *= r_f
    residual = abs(closed - partial)

    if order >= 1:
        budget = 2.0 * lam_f * r_f * majorant_tail(lam_f + 1.0, order - 1, r_f)
    else:
        budget = 2.0 * lam_f * r_f * (1.0 - r_f) ** (-2.0 * (lam_f + 1.0))
    return DerivativeInterchangeReport(
        lam_f, t_f, r_f, order, closed, partial, residual, budget
    )
