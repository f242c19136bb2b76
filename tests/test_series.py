"""Truncated series over integer rows: the bivariate Cauchy product and composition."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gegenkit.coefficients import gamma_ratios
from gegenkit.series import compose_inner_polynomial, series_mul

from oracles import bivariate_product, falling_binomial, full_convolution, series_add, settled


def constants(coeffs):
    """A series whose coefficient of r^m is the constant polynomial coeffs[m]."""
    return [[c] for c in coeffs]


class TestSeriesBasics:
    def test_trailing_zeros_are_kept(self):
        # the order is the truncation order: zero rows are data and are never dropped
        s = constants([1, 0, 0])
        assert series_mul(s, s) == [[1], [0], [0]]

    def test_cancelled_rows_are_settled(self):
        # a row that cancels is [0]; a row whose top terms cancel keeps no trailing zeros
        assert series_mul([[1], [1]], [[1], [-1]]) == [[1], [0]]
        assert series_mul([[1], [0, 1]], [[0, 1], [1, 0, -1]]) == [[0, 1], [1]]

    def test_operands_are_not_changed(self):
        a, b = [[0, 1, 0], [2], [0]], [[3], [0, 0, 4]]
        before = (repr(a), repr(b))
        series_mul(a, b)
        compose_inner_polynomial(lambda j: j + 1, [[0], [1, 2], [3]], 4)
        assert (repr(a), repr(b)) == before


class TestMul:
    def test_telescoping_geometric(self):
        ones = constants([1, 1, 1, 1])
        onemr = constants([1, -1, 0, 0])
        assert series_mul(ones, onemr) == constants([1, 0, 0, 0])

    def test_multiplicative_identity(self):
        a = [[3, 1], [-2], [0, 0, 5]]
        assert series_mul(a, constants([1, 0, 0])) == a
        # the product truncates to the smaller order, whichever operand is longer
        assert series_mul(a, constants([1] + [0] * 5)) == a
        assert series_mul(constants([1] + [0] * 5), a) == a

    def test_conjugate_pair_at_phi_zero(self):
        """(1-r)^(-lam) (1-r)^(-lam) = (1-r)^(-2 lam): the identity as a Cauchy product."""
        n = 30
        for lam in [1, 2, 5]:
            factor = constants([int(c) for c in gamma_ratios(lam, n)])
            assert series_mul(factor, factor) == constants(gamma_ratios(2 * lam, n))

    def test_matches_full_convolution_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(0, 10)
            a = [rng.randint(-9, 9) for _ in range(n + 1)]
            b = [rng.randint(-9, 9) for _ in range(n + 1)]
            got = series_mul(constants(a), constants(b))
            want = full_convolution(a, b)[: n + 1]
            assert got == constants(want)

    def test_polynomial_coefficients_with_zero_entries(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(0, 8)
            a, b = ([[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
                     if rng.random() < 0.5 else [0] for _ in range(n + 1)] for _ in range(2))
            a[0] = b[n] = [0]
            want = [settled(int(c) for c in row) for row in bivariate_product(a, b, n)]
            assert series_mul(a, b) == want

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_bivariate_oracle_up_to_order_16(self, data):
        order = data.draw(st.integers(min_value=0, max_value=16))
        a, b = (integer_series(data.draw, order) for _ in range(2))
        want = [settled(int(c) for c in row) for row in bivariate_product(a, b, order)]
        assert series_mul(a, b) == want

    def test_truncates_to_smaller_order(self):
        # rows of the longer operand beyond the shorter one's order take no part
        assert series_mul([[1], [1]], [[1], [0, 1], [9, 9]]) == [[1], [1, 1]]
        assert series_mul([[1], [0, 1], [9, 9]], [[1], [1]]) == [[1], [1, 1]]


class TestRowProduct:
    """A product at order 0 is the product of two polynomials in t: zeros skipped, exact."""

    A = [3, 0, 0, -2, 0, 7]
    B = [0, 5, 0, 0, -1]
    C = [-3, 0, 5, 2, 0, -7]

    @pytest.mark.parametrize("x, y", [(A, B), (B, A), (A, C), (B, [0])],
                             ids=["a-b", "b-a", "a-c", "b-zero"])
    def test_mul_matches_dense(self, x, y):
        assert series_mul([x], [y]) == [settled(full_convolution(x, y))]

    @pytest.mark.parametrize("s", [-3, 0], ids=["minus-three", "zero"])
    def test_scale_matches_dense(self, s):
        # scaling is a product with the constant polynomial s, on either side
        want = [settled([c * s for c in self.A])]
        assert series_mul([self.A], [[s]]) == series_mul([[s]], [self.A]) == want

    def test_big_integers_stay_exact(self):
        big = 2**70 + 1
        got = series_mul([[big, 1]], [[big]])
        assert got == [[big * big, big]] and all(type(c) is int for c in got[0])


def integer_series(draw, order):
    row = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4)
    return [settled(r) for r in draw(st.lists(row, min_size=order + 1, max_size=order + 1))]


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_axioms_up_to_order_64(self, data):
        order = data.draw(st.integers(min_value=0, max_value=64))
        a, b, c = (integer_series(data.draw, order) for _ in range(3))
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
        assert series_mul(a, series_add(b, c)) == series_add(series_mul(a, b), series_mul(a, c))


class TestCompose:
    def test_identity_composition(self):
        got = compose_inner_polynomial(lambda j: 1, [[0], [1]], 3)
        assert got == constants([1, 1, 1, 1])

    def test_geometric_of_quadratic(self):
        # outer (1-u)^(-1) has all-ones coefficients; u = 2r - r^2 gives (1-r)^(-2)
        got = compose_inner_polynomial(lambda j: 1, constants([0, 2, -1]), 3)
        assert got == constants([1, 2, 3, 4])

    def test_nonzero_constant_term_rejected(self):
        with pytest.raises(ValueError, match="zero constant-term row"):
            compose_inner_polynomial(lambda j: 1, [[0, 1], [1]], 3)
        # an empty list has no constant-term row: it is no series at all
        with pytest.raises(ValueError, match="zero constant-term row"):
            compose_inner_polynomial(lambda j: 1, [], 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            compose_inner_polynomial(lambda j: 1, [[0], [1]], -1)

    def test_inner_beyond_order_is_cut(self):
        # rows of the inner series past the order cannot reach r^order
        got = compose_inner_polynomial(lambda j: 1, [[0], [1], [5, 5], [7]], 1)
        assert got == [[1], [1]]

    def test_zero_outer_gives_zero_rows(self):
        assert compose_inner_polynomial(lambda j: 0, [[0], [0, -2], [1]], 3) == [[0]] * 4

    def test_polynomial_coefficient_field(self):
        # (1 - (t r)) ^ (-1): coefficient of r^m is t^m
        got = compose_inner_polynomial(lambda j: 1, [[0], [0, 1]], 3)
        assert got == [[0] * m + [1] for m in range(4)]

    def test_matches_bruteforce_powers(self):
        """sum_j b_j u^j with u = r^2 - 2tr against independent bivariate expansion.

        The outer coefficients b_j = q^n n! C(-lam, j), lam = p/q, are integers, so
        the expansion runs on integer rows and gives q^n n! C_m.
        """
        from oracles import gegenbauer_coeff_lists

        for lam in [Fraction(1), Fraction(1, 2), Fraction(7, 3)]:
            n = 12
            scale = lam.denominator**n * math.factorial(n)
            outer = [scale * falling_binomial(-lam, j) for j in range(n + 1)]
            assert all(b.denominator == 1 for b in outer)
            got = compose_inner_polynomial(lambda j: int(outer[j]), [[0], [0, -2], [1]], n)
            want = gegenbauer_coeff_lists(lam, n)
            assert got == [[scale * c for c in row] for row in want]
