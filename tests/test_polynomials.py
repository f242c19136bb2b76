"""Dense polynomial type: the rows of a table, evaluated by Horner's rule."""

import math
from fractions import Fraction

import pytest

from gegenkit.fields import EXACT, FLOAT64
from gegenkit.polynomials import Polynomial


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_canonical_zero_is_single_entry(self):
        assert Polynomial([]).coeffs == (Fraction(0),)
        assert Polynomial([0, 0, 0]).coeffs == (Fraction(0),)
        assert Polynomial([]) == Polynomial([0])
        assert Polynomial([-0.0], FLOAT64).coeffs == (-0.0,)
        assert Polynomial([0.0, -0.5], FLOAT64).degree == 1
        assert Polynomial([math.nan], FLOAT64).degree == 0

    def test_repr_lists_the_coefficients(self):
        assert repr(Polynomial([1, Fraction(1, 2), 0])) == "Polynomial([Fraction(1, 1), Fraction(1, 2)])"
        assert repr(Polynomial([0.5], FLOAT64)) == "Polynomial([0.5])"

    def test_float_field(self):
        p = Polynomial([1, 0.5], FLOAT64)
        assert p.coeffs == (1.0, 0.5)
        assert isinstance(p.coeffs[0], float)
        # the point is taken into the polynomial's field
        assert p.evaluate(2) == 2.0 and isinstance(p.evaluate(Fraction(1, 2)), float)

    def test_exact_coefficients_are_fractions(self):
        p = Polynomial([1, 0.5])
        assert p.coeffs == (Fraction(1), Fraction(1, 2))
        assert all(type(c) is Fraction for c in p.coeffs)
        assert isinstance(Polynomial([0.1]).evaluate(1), Fraction)

    @pytest.mark.parametrize("field", [EXACT, FLOAT64], ids=["exact", "float64"])
    @pytest.mark.parametrize("coeff", [True, False, "x"], ids=["true", "false", "str"])
    def test_non_scalar_coefficient_is_refused(self, field, coeff):
        # a bool is an int to isinstance, but True must not be taken as 1
        with pytest.raises(TypeError, match="cannot coerce"):
            Polynomial([1, coeff], field)


class TestArithmetic:
    def test_no_ring_operators(self):
        # the composition route multiplies integer rows (`series`); a table row has no arithmetic
        p = Polynomial([Fraction(1), Fraction(1)])
        with pytest.raises(TypeError):
            p * p
        with pytest.raises(TypeError):
            p + p

    def test_evaluate_exact_horner(self):
        p = Polynomial([Fraction(-1, 2), 0, Fraction(3, 2)])
        assert p.evaluate(Fraction(1, 3)) == Fraction(-1, 3)
        assert p.evaluate(1) == 1
        # float arguments coerce exactly into the exact field
        assert p.evaluate(0.5) == Fraction(-1, 8)
        assert isinstance(p.evaluate(0.5), Fraction)
