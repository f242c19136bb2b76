"""Dense polynomial type and the polynomial-coefficients realization."""

from fractions import Fraction

import pytest

from gegenkit.fields import FLOAT64, FieldMismatchError
from gegenkit.polynomials import POLY_EXACT, Polynomial

from oracles import full_convolution


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_canonical_zero_is_single_entry(self):
        assert Polynomial([]).coeffs == (Fraction(0),)
        assert Polynomial([0, 0, 0]).coeffs == (Fraction(0),)
        assert Polynomial([]) == Polynomial([0])

    def test_float_field(self):
        p = Polynomial([1, 0.5], FLOAT64)
        assert p.coeffs == (1.0, 0.5)
        assert isinstance(p.coeffs[0], float)


class TestArithmetic:
    def test_add_sub(self):
        p = Polynomial([1, 2])
        q = Polynomial([3, -2, 4])
        assert (p + q).coeffs == (Fraction(4), Fraction(0), Fraction(4))
        assert (q - p).coeffs == (Fraction(2), Fraction(-4), Fraction(4))

    def test_cancellation_renormalizes(self):
        p = Polynomial([1, 1])
        q = Polynomial([0, -1])
        assert (p + q) == Polynomial([1])

    def test_mul(self):
        p = Polynomial([1, 1])
        assert (p * p).coeffs == (Fraction(1), Fraction(2), Fraction(1))
        assert p * Polynomial([0]) == Polynomial([0])

    def test_scalar_mul(self):
        p = Polynomial([1, -2])
        assert (p * Fraction(1, 2)).coeffs == (Fraction(1, 2), Fraction(-1))
        assert (3 * p).coeffs == (Fraction(3), Fraction(-6))

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            Polynomial([1]) + Polynomial([1.0], FLOAT64)

    def test_evaluate_exact_horner(self):
        p = Polynomial([Fraction(-1, 2), 0, Fraction(3, 2)])
        assert p.evaluate(Fraction(1, 3)) == Fraction(-1, 3)
        assert p.evaluate(1) == 1
        # float arguments coerce exactly into the exact field
        assert p.evaluate(0.5) == Fraction(-1, 8)
        assert isinstance(p.evaluate(0.5), Fraction)


class TestZeroSkipping:
    """+, * and scale skip zero coefficients; exact results equal the dense loops."""

    A = [Fraction(1, 3), 0, 0, Fraction(-2, 5), 0, Fraction(7)]
    B = [0, Fraction(3, 2), 0, 0, Fraction(-1, 7)]
    C = [Fraction(-1, 3), 0, Fraction(5), Fraction(2, 5), 0, Fraction(-7)]

    @pytest.mark.parametrize("x, y", [(A, B), (B, A), (A, C), (B, B), (C, [0])])
    def test_add_and_sub_match_dense(self, x, y):
        pad = max(len(x), len(y))
        xs, ys = x + [0] * (pad - len(x)), y + [0] * (pad - len(y))
        assert Polynomial(x) + Polynomial(y) == Polynomial([a + b for a, b in zip(xs, ys)])
        assert Polynomial(x) - Polynomial(y) == Polynomial([a - b for a, b in zip(xs, ys)])

    @pytest.mark.parametrize("x, y", [(A, B), (B, A), (A, C), (B, [0])])
    def test_mul_matches_dense(self, x, y):
        assert Polynomial(x) * Polynomial(y) == Polynomial(full_convolution(x, y))

    @pytest.mark.parametrize("s", [Fraction(-3, 4), 0])
    def test_scale_matches_dense(self, s):
        assert Polynomial(self.A).scale(s) == Polynomial([c * s for c in self.A])


class TestPolynomialCoefficients:
    def test_constants(self):
        assert POLY_EXACT.zero == Polynomial([0])
        assert POLY_EXACT.one == Polynomial([1])

    def test_coerce_scalars_to_constants(self):
        assert POLY_EXACT.coerce(Fraction(2, 3)) == Polynomial([Fraction(2, 3)])
        assert POLY_EXACT.coerce(Polynomial([1, 2])) == Polynomial([1, 2])

    def test_exact_scalars_only(self):
        assert POLY_EXACT.coerce(0.5) == Polynomial([Fraction(1, 2)])
        with pytest.raises(FieldMismatchError):
            POLY_EXACT.coerce(Polynomial([1.0], FLOAT64))

    def test_ring_ops_via_field_interface(self):
        f = POLY_EXACT
        t = Polynomial([0, 1])
        assert t * t == Polynomial([0, 0, 1])
        assert f.one + (-f.one) == f.zero
        assert Polynomial([0]) == f.zero
