"""The row type of a table: the coefficients of one C_m, evaluated exactly by Horner's rule.

A `GegenbauerTable` holds its C_m as `Polynomial`s, plain tuples of coefficients
that are all Fraction in an exact table and all float in a float one.  Only an exact
row is evaluated; float monomial coefficients of C_m cancel.  No arithmetic between
polynomials is defined; the composition route sets each coefficient by one product of
scalars (`series`).
"""

from __future__ import annotations

from typing import NamedTuple

from .fields import EXACT

__all__ = ["Polynomial"]


class Polynomial(NamedTuple):
    """Coefficients in increasing powers of the variable t, stored as given."""

    coeffs: tuple

    def evaluate(self, t):
        """Horner evaluation of an exact row at t, taken exactly, as a Fraction.  A float
        row raises TypeError: its coefficients cancel (at lam = 1 Horner gives -2.6e18 for
        C_100(0.9) = 2.29), and `GegenbauerTable.evaluate` runs the recurrence on values."""
        if isinstance(self.coeffs[0], float):
            raise TypeError("a float row is not evaluated by Horner; use GegenbauerTable.evaluate")
        x = EXACT.coerce(t)
        acc = self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc
