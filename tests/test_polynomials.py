"""The row type of a table: a tuple of coefficients, evaluated by Horner's rule."""

from fractions import Fraction

import pytest

from gegenkit.polynomials import Polynomial


class TestArithmetic:
    def test_evaluate_float_horner(self):
        # float monomial coefficients cancel, so a float row is refused and the error names
        # the table's recurrence on values
        p = Polynomial((1.0, 0.5))
        for t in (2, Fraction(1, 2), 0.5):
            with pytest.raises(TypeError, match="GegenbauerTable.evaluate"):
                p.evaluate(t)

    def test_no_ring_operators(self):
        # the composition route sets each entry by one product (`series`); a row has no arithmetic
        p = Polynomial((Fraction(1), Fraction(1)))
        with pytest.raises(TypeError):
            p * p

    def test_evaluate_exact_horner(self):
        p = Polynomial((Fraction(-1, 2), Fraction(0), Fraction(3, 2)))
        assert p.evaluate(Fraction(1, 3)) == Fraction(-1, 3)
        assert p.evaluate(1) == 1
        # float arguments coerce exactly into the exact field
        assert p.evaluate(0.5) == Fraction(-1, 8)
        assert isinstance(p.evaluate(0.5), Fraction)
