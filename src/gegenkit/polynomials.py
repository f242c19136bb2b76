"""The row type of a table: the coefficients of one C_m, evaluated by Horner's rule.

A `GegenbauerTable` holds its C_m as `Polynomial`s, plain tuples of coefficients
that are all Fraction in an exact table and all float in a float one.  No
arithmetic between polynomials is defined; the composition route sets each
coefficient by one product of scalars (`series`).
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import EXACT, FLOAT64

__all__ = ["Polynomial"]


class Polynomial(NamedTuple):
    """Coefficients in increasing powers of the variable t, stored as given."""

    coeffs: tuple

    def evaluate(self, t):
        """Horner evaluation in the coefficients' field: a row of floats takes t as a
        float, any other row takes it exactly, as a Fraction."""
        field = FLOAT64 if isinstance(self.coeffs[0], float) else EXACT
        x = field.coerce(t)
        acc = field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc
