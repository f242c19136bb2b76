"""Gegenbauer polynomials over exact and float coefficient fields.

The package computes the polynomials by three independent routes (symbolic
generating-function expansion, three-term recurrence, conjugate-factor
convolution at t = cos phi), bounds truncation tails with the t = 1 majorant,
and verifies the rising-factorial convolution identity

    sum_{k=0}^m (lam)_k (lam)_{m-k} / (k! (m-k)!)  ==  (2 lam)_m / m!

exactly over the rationals and to tolerance over floats.
"""

from .coefficients import gamma_ratio_coefficient, gamma_ratios
from .fields import (
    EXACT,
    FLOAT64,
    CoefficientField,
    FieldMismatchError,
    format_exact,
    format_float,
    format_scalar,
    literal_kind,
    parse_exact,
    parse_scalar,
)
from .gegenbauer import (
    ConjugateValue,
    DerivativeInterchangeReport,
    GegenbauerParams,
    GegenbauerTable,
    Route,
    derivative_interchange_check,
    majorant_tail,
    table_via_composition,
    table_via_recurrence,
    value_at_one,
    value_via_conjugate_product,
    value_via_recurrence,
)
from .identity import IdentityReport, identity_lhs, identity_rhs, sweep, verify
from .polynomials import Polynomial
from .series import TruncatedSeries, compose_inner_polynomial, series_mul

__version__ = "0.1.0"

__all__ = [
    "CoefficientField",
    "EXACT",
    "FLOAT64",
    "FieldMismatchError",
    "parse_exact",
    "parse_scalar",
    "literal_kind",
    "format_exact",
    "format_float",
    "format_scalar",
    "gamma_ratios",
    "gamma_ratio_coefficient",
    "Polynomial",
    "TruncatedSeries",
    "series_mul",
    "compose_inner_polynomial",
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
    "IdentityReport",
    "identity_lhs",
    "identity_rhs",
    "verify",
    "sweep",
]
