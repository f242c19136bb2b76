"""Dense univariate polynomials over a coefficient field, and POLY_EXACT and POLY_INT.

`POLY_EXACT` and `POLY_INT` are the coefficient fields whose scalars are
polynomials in t over `EXACT` and over the integer ring `INT`, so a series in
r can carry whole polynomials as coefficients.  The product is the Cauchy
product that `series_mul` also runs (`fields._cauchy`).
"""

from __future__ import annotations

from .fields import EXACT, INT, CoefficientField, FieldMismatchError, _cauchy, _common_field

__all__ = ["Polynomial", "POLY_EXACT", "POLY_INT"]


class Polynomial:
    """Coefficients in increasing powers of the variable t.

    Trailing zero coefficients are stripped on construction; the canonical
    zero polynomial is the single-entry list [0], the one falsy polynomial.
    `+` and `*` skip zero coefficients, which changes no exact value; over
    floats a -0.0 can then survive where -0.0 + 0.0 would give 0.0.  No
    library float path uses these operators.
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
        if isinstance(other, Polynomial):
            out = _cauchy(self, other, len(self.coeffs) + len(other.coeffs) - 2)
        else:
            s = self.field.coerce(other)
            out = [c * s if c else c for c in self.coeffs]
        return Polynomial._of(out, self.field)

    __rmul__ = __mul__

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


def _polynomial_ring(f: CoefficientField) -> CoefficientField:
    """Polynomials in t over `f` as series coefficients: a ring, which is all series
    arithmetic needs.  A scalar coerces, through `f`, to a constant polynomial."""
    name = f"poly[{f.name}]"

    def coerce(value) -> Polynomial:
        if isinstance(value, Polynomial):
            if value.field is not f:
                raise FieldMismatchError(f"polynomial over {value.field.name} in a {name} series")
            return value
        return Polynomial([value], f)

    return CoefficientField(name, Polynomial([f.zero], f), Polynomial([f.one], f), coerce)


POLY_EXACT = _polynomial_ring(EXACT)
POLY_INT = _polynomial_ring(INT)
