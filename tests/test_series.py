"""Truncated series arithmetic: Cauchy product and composition."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gegenkit.coefficients import gamma_ratios
from gegenkit.fields import EXACT, FLOAT64, INT, FieldMismatchError
from gegenkit.polynomials import POLY_INT, Polynomial
from gegenkit.series import TruncatedSeries, compose_inner_polynomial, series_mul

from oracles import bivariate_product, falling_binomial, full_convolution


def exact_series(coeffs):
    return TruncatedSeries([Fraction(c) for c in coeffs], EXACT)


def add(a, b):
    return TruncatedSeries([x + y for x, y in zip(a.coeffs, b.coeffs)], a.field)


class TestSeriesBasics:
    def test_trailing_zeros_are_kept(self):
        s = exact_series([1, 0, 0])
        assert s.order == 2
        assert s.coeffs == (Fraction(1), Fraction(0), Fraction(0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([], EXACT)

    def test_constructors(self):
        assert TruncatedSeries.one(EXACT, 2).coeffs == (Fraction(1), Fraction(0), Fraction(0))


class TestMul:
    def test_telescoping_geometric(self):
        ones = exact_series([1, 1, 1, 1])
        onemr = exact_series([1, -1, 0, 0])
        assert series_mul(ones, onemr) == exact_series([1, 0, 0, 0])

    def test_multiplicative_identity(self):
        a = exact_series([3, -2, 5])
        assert series_mul(a, TruncatedSeries.one(EXACT, 2)) == a
        # the product truncates to the smaller order, whichever operand is longer
        assert series_mul(a, TruncatedSeries.one(EXACT, 5)) == a
        assert series_mul(TruncatedSeries.one(EXACT, 5), a) == a

    def test_conjugate_pair_at_phi_zero(self):
        """(1-r)^(-lam) (1-r)^(-lam) = (1-r)^(-2 lam): the identity as a Cauchy product."""
        n = 30
        for lam in [Fraction(1), Fraction(1, 2), Fraction(7, 3)]:
            factor = TruncatedSeries(gamma_ratios(lam, n), EXACT)
            assert series_mul(factor, factor).coeffs == tuple(gamma_ratios(2 * lam, n))

    def test_matches_full_convolution_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(0, 10)
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)]
            got = series_mul(exact_series(a), exact_series(b))
            want = full_convolution(a, b)[: n + 1]
            assert list(got.coeffs) == want

    def test_polynomial_coefficients_with_zero_entries(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(0, 8)
            a, b = ([[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
                     if rng.random() < 0.5 else [0] for _ in range(n + 1)] for _ in range(2))
            a[0] = b[n] = [0]
            got = series_mul(TruncatedSeries([Polynomial(x, INT) for x in a], POLY_INT),
                             TruncatedSeries([Polynomial(y, INT) for y in b], POLY_INT))
            want = [Polynomial([int(c) for c in row], INT) for row in bivariate_product(a, b, n)]
            assert list(got.coeffs) == want

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            series_mul(exact_series([1]), TruncatedSeries([1.0], FLOAT64))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_axioms_up_to_order_64(self, data):
        order = data.draw(st.integers(min_value=0, max_value=64))
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
        triple = [
            exact_series(data.draw(st.lists(coeff, min_size=order + 1, max_size=order + 1)))
            for _ in range(3)
        ]
        a, b, c = triple
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
        assert series_mul(a, add(b, c)) == add(series_mul(a, b), series_mul(a, c))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_float_axioms_within_1e12_relative(self, data):
        # Nonnegative draws keep every accumulation cancellation-free, so the
        # relative rounding error stays bounded by the operation count.
        order = data.draw(st.integers(min_value=0, max_value=64))
        coeff = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
        draw_series = lambda: TruncatedSeries(
            data.draw(st.lists(coeff, min_size=order + 1, max_size=order + 1)), FLOAT64
        )
        a, b, c = draw_series(), draw_series(), draw_series()
        left = series_mul(series_mul(a, b), c)
        right = series_mul(a, series_mul(b, c))
        for x, y in zip(left.coeffs, right.coeffs):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))
        dl = series_mul(a, add(b, c))
        dr = add(series_mul(a, b), series_mul(a, c))
        for x, y in zip(dl.coeffs, dr.coeffs):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


class TestCompose:
    def test_identity_composition(self):
        inner = exact_series([0, 1])
        got = compose_inner_polynomial(lambda j: Fraction(1), inner, 3)
        assert got == exact_series([1, 1, 1, 1])

    def test_geometric_of_quadratic(self):
        # outer (1-u)^(-1) has all-ones coefficients; u = 2r - r^2 gives (1-r)^(-2)
        inner = exact_series([0, 2, -1])
        got = compose_inner_polynomial(lambda j: Fraction(1), inner, 3)
        assert got == exact_series([1, 2, 3, 4])

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            compose_inner_polynomial(lambda j: Fraction(1), exact_series([1, 1]), 3)

    def test_polynomial_coefficient_field(self):
        # (1 - (t r)) ^ (-1): coefficient of r^m is t^m
        t = Polynomial([0, 1], INT)
        inner = TruncatedSeries([POLY_INT.zero, t], POLY_INT)
        got = compose_inner_polynomial(lambda j: 1, inner, 3)
        for m, p in enumerate(got.coeffs):
            assert p == Polynomial([0] * m + [1], INT)

    def test_matches_bruteforce_powers(self):
        """sum_j b_j u^j with u = r^2 - 2tr against independent bivariate expansion.

        The outer coefficients b_j = q^n n! C(-lam, j), lam = p/q, are integers, so
        the expansion runs over integer polynomials and gives q^n n! C_m.
        """
        from oracles import gegenbauer_coeff_lists

        for lam in [Fraction(1), Fraction(1, 2), Fraction(7, 3)]:
            n = 12
            scale = lam.denominator**n * math.factorial(n)
            outer = [scale * falling_binomial(-lam, j) for j in range(n + 1)]
            assert all(b.denominator == 1 for b in outer)
            inner = TruncatedSeries(
                [POLY_INT.zero, Polynomial([0, -2], INT), POLY_INT.one] + [POLY_INT.zero] * (n - 2),
                POLY_INT,
            )
            got = compose_inner_polynomial(lambda j: int(outer[j]), inner, n)
            want = gegenbauer_coeff_lists(lam, n)
            for m in range(n + 1):
                assert list(got.coeffs[m].coeffs) == [scale * c for c in want[m]]
