"""Dense univariate polynomials over a coefficient field."""

from __future__ import annotations

from .fields import EXACT, CoefficientField, FieldMismatchError

__all__ = ["Polynomial", "PolynomialCoefficients", "POLY_EXACT"]


class Polynomial:
    """Coefficients in increasing powers of the variable t.

    Trailing zero coefficients are stripped on construction; the canonical
    zero polynomial is the single-entry list [0].  `+`, `*` and `scale` skip
    zero coefficients, which changes no exact value; over floats a -0.0 can
    then survive where -0.0 + 0.0 would give 0.0.  No library float path
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
        while len(items) > 1 and items[-1] == field.zero:
            items.pop()
        if not items:
            items = [field.zero]
        self.field = field
        self.coeffs = tuple(items)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _require_same_field(self, other: "Polynomial") -> None:
        if self.field is not other.field:
            raise FieldMismatchError(
                f"polynomials over {self.field.name} and {other.field.name} cannot be combined"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_field(other)
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = list(longer)
        for j, b in enumerate(shorter):
            if b:
                out[j] = out[j] + b
        return Polynomial._of(out, self.field)

    def __neg__(self):
        return Polynomial._of([-c for c in self.coeffs], self.field)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._require_same_field(other)
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in nonzero:
                out[i + j] = out[i + j] + a * b
        return Polynomial._of(out, f)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        s = self.field.coerce(scalar)
        return Polynomial._of([c * s if c else c for c in self.coeffs], self.field)

    def evaluate(self, t):
        """Horner evaluation in this polynomial's own field (exact over Fraction)."""
        x = self.field.coerce(t)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


class PolynomialCoefficients(CoefficientField):
    """Polynomials in t over the exact field, acting as series coefficients.

    This realizes the coefficient contract a third time so a series in r can
    carry whole polynomials in t as coefficients.  Polynomials form a ring,
    not a field; the series machinery only adds and multiplies them.
    """

    name = "poly[exact]"
    zero = Polynomial([EXACT.zero])
    one = Polynomial([EXACT.one])

    def coerce(self, value) -> Polynomial:
        if isinstance(value, Polynomial):
            if value.field is not EXACT:
                raise FieldMismatchError(
                    f"polynomial over {value.field.name} in a {self.name} series"
                )
            return value
        return Polynomial([EXACT.coerce(value)])


POLY_EXACT = PolynomialCoefficients()
