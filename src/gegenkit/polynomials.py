"""Dense univariate polynomials over a coefficient field: the rows of a table.

A `GegenbauerTable` holds its C_m as `Polynomial`s and evaluates them by
Horner's rule in their own field.  No arithmetic between polynomials is
defined; the composition route multiplies plain integer rows (`series`).
"""

from __future__ import annotations

from .fields import EXACT, CoefficientField

__all__ = ["Polynomial"]


class Polynomial:
    """Coefficients in increasing powers of the variable t, coerced into `field`.

    Trailing zero coefficients are stripped on construction; the canonical
    zero polynomial is the single-entry list [0].
    """

    __slots__ = ("field", "coeffs")

    def __new__(cls, coeffs=(), field: CoefficientField = EXACT):
        return cls._of([field.coerce(c) for c in coeffs], field)

    @classmethod
    def _of(cls, items: list, field: CoefficientField) -> "Polynomial":
        """A polynomial over items already in `field`: no coercion, zeros still stripped."""
        while len(items) > 1 and not items[-1]:
            items.pop()
        poly = object.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(items or [field.zero])
        return poly

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, t):
        """Horner evaluation in this polynomial's own field (exact over Fraction)."""
        x = self.field.coerce(t)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

