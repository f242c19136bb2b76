"""Dense univariate polynomials over a coefficient field, and POLY_INT.

`POLY_INT` is the coefficient field whose scalars are polynomials in t over
the integer ring `INT`, so a series in r can carry whole polynomials as
coefficients.  The product of two polynomials is the Cauchy product that
`series_mul` also runs (`fields._cauchy`).
"""

from __future__ import annotations

from .fields import EXACT, INT, CoefficientField, FieldMismatchError, _cauchy, _common_field

__all__ = ["Polynomial", "POLY_INT"]


class Polynomial:
    """Coefficients in increasing powers of the variable t.

    Trailing zero coefficients are stripped on construction; the canonical
    zero polynomial is the single-entry list [0], the one falsy polynomial.
    `+` and `*` take a polynomial over the same field, never a scalar, and
    skip zero coefficients, which changes no exact value; over floats a -0.0
    can then survive where -0.0 + 0.0 would give 0.0.  No library float path
    uses these operators.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, coeffs=(), field: CoefficientField = EXACT):
        self._settle([field.coerce(c) for c in coeffs], field)

    @classmethod
    def _of(cls, items: list, field: CoefficientField) -> "Polynomial":
        """A polynomial over items already in `field`: no coercion, zeros still stripped."""
        poly = cls.__new__(cls)
        poly._settle(items, field)
        return poly

    def _settle(self, items: list, field: CoefficientField) -> None:
        while len(items) > 1 and not items[-1]:
            items.pop()
        self.field = field
        self.coeffs = tuple(items or [field.zero])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs[-1])

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        f = _common_field(self, other)
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for j, b in enumerate(shorter):
            if b:
                out[j] = out[j] + b
        return Polynomial._of(out, f)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = _cauchy(self, other, len(self.coeffs) + len(other.coeffs) - 2)
        return Polynomial._of(out, self.field)

    def evaluate(self, t):
        """Horner evaluation in this polynomial's own field (exact over Fraction)."""
        x = self.field.coerce(t)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.field is other.field and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _to_int_polynomial(value) -> Polynomial:
    """An integer polynomial as it is, an `int` as a constant polynomial; nothing else."""
    if isinstance(value, Polynomial):
        if value.field is not INT:
            raise FieldMismatchError(f"polynomial over {value.field.name} in a poly[int] series")
        return value
    return Polynomial([value], INT)


POLY_INT = CoefficientField("poly[int]", Polynomial([0], INT), Polynomial([1], INT),
                            _to_int_polynomial)
