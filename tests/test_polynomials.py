"""Dense polynomial type and the integer-polynomial coefficient field POLY_INT."""

import math
from fractions import Fraction

import pytest

from gegenkit.fields import EXACT, FLOAT64, INT, FieldMismatchError
from gegenkit.polynomials import POLY_INT, Polynomial

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
        # only the zero polynomial is falsy
        assert not Polynomial([0, 0]) and not Polynomial([-0.0], FLOAT64)
        assert Polynomial([0, 1]) and Polynomial([Fraction(1, 3)])
        assert Polynomial([0.0, -0.5], FLOAT64) and Polynomial([math.nan], FLOAT64)

    def test_float_field(self):
        p = Polynomial([1, 0.5], FLOAT64)
        assert p.coeffs == (1.0, 0.5)
        assert isinstance(p.coeffs[0], float)


class TestArithmetic:
    def test_add_sub(self):
        p = Polynomial([1, 2])
        q = Polynomial([3, -2, 4])
        assert (p + q).coeffs == (Fraction(4), Fraction(0), Fraction(4))
        # a difference is a sum with an operand multiplied by the constant -1
        assert (q + Polynomial([-1]) * p).coeffs == (Fraction(2), Fraction(-4), Fraction(4))

    def test_cancellation_renormalizes(self):
        p = Polynomial([1, 1])
        q = Polynomial([0, -1])
        assert (p + q) == Polynomial([1])

    def test_mul(self):
        p = Polynomial([1, 1])
        assert (p * p).coeffs == (Fraction(1), Fraction(2), Fraction(1))
        assert p * Polynomial([0]) == Polynomial([0])
        # `*` takes a polynomial only: a scalar operand is refused on either side
        with pytest.raises(TypeError):
            p * Fraction(1, 2)
        with pytest.raises(TypeError):
            3 * p

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
    """+ and * skip zeros; exact results equal the dense loops."""

    A = [Fraction(1, 3), 0, 0, Fraction(-2, 5), 0, Fraction(7)]
    B = [0, Fraction(3, 2), 0, 0, Fraction(-1, 7)]
    C = [Fraction(-1, 3), 0, Fraction(5), Fraction(2, 5), 0, Fraction(-7)]

    @pytest.mark.parametrize("x, y", [(A, B), (B, A), (A, C), (B, B), (C, [0])])
    def test_add_and_sub_match_dense(self, x, y):
        pad = max(len(x), len(y))
        xs, ys = x + [0] * (pad - len(x)), y + [0] * (pad - len(y))
        assert Polynomial(x) + Polynomial(y) == Polynomial([a + b for a, b in zip(xs, ys)])
        assert (Polynomial(x) + Polynomial([-1]) * Polynomial(y)
                == Polynomial([a - b for a, b in zip(xs, ys)]))

    @pytest.mark.parametrize("x, y", [(A, B), (B, A), (A, C), (B, [0])])
    def test_mul_matches_dense(self, x, y):
        assert Polynomial(x) * Polynomial(y) == Polynomial(full_convolution(x, y))

    @pytest.mark.parametrize("s", [Fraction(-3, 4), 0])
    def test_scale_matches_dense(self, s):
        # scaling is a product with the constant polynomial s, on either side
        want = Polynomial([c * s for c in self.A])
        assert Polynomial(self.A) * Polynomial([s]) == Polynomial([s]) * Polynomial(self.A) == want

    def test_float_negative_zero_is_skipped(self):
        # -0.0 is falsy, so it is skipped like 0.0; the dense loop from 0.0 gives the same bits
        x, y = [-0.0, 1.5, -0.0, 2.0], [-0.0, -0.0, 3.0]
        got = Polynomial(x, FLOAT64) * Polynomial(y, FLOAT64)
        want = [0.0] * 6
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                want[i + j] += a * b
        assert [c.hex() for c in got.coeffs] == [c.hex() for c in want]


class TestPolynomialCoefficients:
    def test_constants(self):
        assert POLY_INT.zero == Polynomial([0], INT) and POLY_INT.one == Polynomial([1], INT)

    def test_coerce_scalars_to_constants(self):
        assert POLY_INT.coerce(-2) == Polynomial([-2], INT)
        assert POLY_INT.coerce(Polynomial([0, -2], INT)) == Polynomial([0, -2], INT)

    def test_exact_scalars_only(self):
        # an integer too large for a float stays exact, with an int coefficient
        big = 2**70 + 1
        got = POLY_INT.coerce(big)
        assert got == Polynomial([big], INT) and got.coeffs == (big,)
        assert type(got.coeffs[0]) is int

    def test_integer_polynomials(self):
        for foreign in (Polynomial([1, 2], EXACT), Polynomial([1.0], FLOAT64)):
            with pytest.raises(FieldMismatchError):
                POLY_INT.coerce(foreign)
        for scalar in (Fraction(2), True, 0.5):
            with pytest.raises(TypeError):
                POLY_INT.coerce(scalar)

    def test_ring_ops_via_field_interface(self):
        f = POLY_INT
        t = Polynomial([0, 1], INT)
        assert t * t == Polynomial([0, 0, 1], INT)
        assert f.one + Polynomial([-1], INT) == f.zero
        assert Polynomial([0], INT) == f.zero
