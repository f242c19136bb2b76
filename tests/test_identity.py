"""The rising-factorial convolution identity, exact and float."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gegenkit.gegenbauer import value_at_one, value_via_conjugate_product
from gegenkit.coefficients import _rising_product
from gegenkit.identity import IdentityReport, _lhs_numerator, identity_lhs, identity_rhs, sweep, verify

from oracles import pochhammer

positive_rationals = st.fractions(
    min_value=Fraction(1, 50), max_value=50, max_denominator=50
)


class TestSides:
    def test_lambda_one_lhs_counts(self):
        for m in range(12):
            assert identity_lhs(Fraction(1), m) == m + 1

    def test_lhs_example_half(self):
        # 3/8 + 1/4 + 3/8, by direct summation
        assert identity_lhs(Fraction(1, 2), 2) == 1

    def test_lhs_m_zero(self):
        assert identity_lhs(Fraction(9, 4), 0) == 1

    def test_lambda_one_rhs_counts(self):
        for m in range(12):
            assert identity_rhs(Fraction(1), m) == m + 1

    def test_rhs_example_half(self):
        assert identity_rhs(Fraction(1, 2), 2) == 1

    def test_rhs_m_zero(self):
        assert identity_rhs(Fraction(9, 4), 0) == 1

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            identity_lhs(Fraction(0), 3)
        with pytest.raises(ValueError):
            identity_rhs(Fraction(-1), 3)
        with pytest.raises(ValueError):
            identity_lhs(Fraction(1), -1)


class TestVerify:
    def test_exact_example(self):
        rep = verify(Fraction(3, 2), 5)
        assert rep.exact_equal is True
        assert rep.residual is None

    def test_trivial_pair(self):
        rep = verify(Fraction(1), 0)
        assert rep.lhs == 1 and rep.rhs == 1

    def test_float_pi_baseline(self):
        rep = verify(math.pi, 10)
        assert rep.exact_equal is None
        assert rep.residual <= 1e-12

    def test_report_shape(self):
        exact = verify(Fraction(2), 3)
        assert isinstance(exact, IdentityReport)
        assert exact.exact_equal is not None and exact.residual is None
        approx = verify(2.0, 3)
        assert approx.exact_equal is None and approx.residual is not None

    def test_passed_helper(self):
        assert verify(Fraction(2), 7).passed()
        assert verify(2.0, 7).passed(1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify(Fraction(0), 1)
        with pytest.raises(ValueError):
            verify(-0.5, 1)

    @settings(max_examples=150, deadline=None)
    @given(positive_rationals, st.integers(min_value=0, max_value=100))
    def test_exact_for_random_rationals(self, lam, m):
        assert verify(lam, m).exact_equal is True


class TestSweep:
    def test_lambda_one_grid(self):
        reports = sweep([Fraction(1)], 2)
        assert [(r.lhs, r.rhs) for r in reports] == [(1, 1), (2, 2), (3, 3)]

    def test_empty(self):
        assert sweep([], 5) == []

    def test_full_exact_run(self):
        reports = sweep([Fraction(1, 2), Fraction(2)], 200)
        assert len(reports) == 402
        assert all(r.exact_equal for r in reports)

    def test_deterministic_order(self):
        reports = sweep([Fraction(2), Fraction(1)], 1)
        assert [(r.lam, r.m) for r in reports] == [
            (Fraction(2), 0), (Fraction(2), 1), (Fraction(1), 0), (Fraction(1), 1)
        ]

    def test_propagates_domain_errors(self):
        with pytest.raises(ValueError):
            sweep([Fraction(1), Fraction(0)], 3)

    @pytest.mark.parametrize("lam", [Fraction(1, 2), 0.5])
    def test_bool_m_max_is_rejected(self, lam):
        with pytest.raises(ValueError, match="m_max must be a nonnegative integer"):
            sweep([lam], True)


class TestSweepKernel:
    """sweep carries each lam's running products from m-1 to m and hands them to
    the left-side kernel; every report must equal the per-(lam, m) verify, which
    rebuilds the products from scratch."""

    @settings(max_examples=80, deadline=None)
    @given(positive_rationals, st.integers(min_value=0, max_value=60))
    @example(3, 60)
    # even denominators: 2 lam = 2p/q reduces
    @example(Fraction(1, 4), 60)
    @example(Fraction(5, 2), 59)
    # three-digit denominators
    @example(Fraction(355, 113), 60)
    @example(Fraction(999, 998), 47)
    @example(Fraction(7, 3), 0)
    @example(Fraction(7, 3), 1)
    def test_exact_equals_verify(self, lam, m_max):
        reports = sweep([lam], m_max)
        assert reports == [verify(lam, m) for m in range(m_max + 1)]
        assert all(r.exact_equal for r in reports)
        assert all(type(v) is Fraction for r in reports for v in (r.lam, r.lhs, r.rhs))

    def test_float_bits_equal_verify(self):
        lambdas = (0.5, 2.5, 7.3)

        def bits(r):
            return r.lam, r.m, r.lhs.hex(), r.rhs.hex(), r.residual.hex()

        want = [bits(verify(lam, m)) for lam in lambdas for m in range(151)]
        assert [bits(r) for r in sweep(lambdas, 150)] == want


class TestSummandStructure:
    @settings(max_examples=100, deadline=None)
    @given(positive_rationals, st.integers(min_value=0, max_value=60))
    # past the hypothesis range, for both parities of m: p = q, even q, three-digit q
    @example(Fraction(1), 199)
    @example(Fraction(1), 200)
    @example(Fraction(1, 4), 199)
    @example(Fraction(1, 4), 200)
    @example(Fraction(355, 113), 199)
    @example(Fraction(355, 113), 200)
    @example(Fraction(999, 998), 199)
    @example(Fraction(999, 998), 200)
    def test_summand_symmetry(self, lam, m):
        prefix = [Fraction(1)]
        for k in range(m):
            prefix.append(prefix[-1] * (lam + k) / (k + 1))
        terms = [prefix[k] * prefix[m - k] for k in range(m + 1)]
        assert terms == terms[::-1]
        forward = sum(terms)
        backward = sum(reversed(terms))
        assert forward == backward == identity_lhs(lam, m)

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1, 4), Fraction(7, 3),
                                     Fraction(355, 113), Fraction(999, 998)])
    def test_inexact_left_side_raises(self, lam):
        # P_m + 1 in place of P_m adds Q_m / P_m = (2 lam)_m / (lam)_m to the sum, not an
        # integer for these lam at m >= 2 (at lam = 1 it is m + 1, which would go unseen)
        p, q = lam.numerator, lam.denominator
        for m in range(2, 80):
            with pytest.raises(ArithmeticError):
                _lhs_numerator(p, q, m, _rising_product(p, q, m) + 1)

    def test_monotone_growth_above_half(self):
        for lam in [Fraction(2, 3), Fraction(1), Fraction(7, 3), Fraction(10)]:
            for m in range(50):
                # ratio (2 lam + m) / (m + 1) > 1 iff lam > 1/2
                assert identity_rhs(lam, m + 1) > identity_rhs(lam, m)
        # boundary case: at lam = 1/2 the ratio is exactly 1
        for m in range(10):
            assert identity_rhs(Fraction(1, 2), m + 1) == identity_rhs(Fraction(1, 2), m)


class TestCrossModule:
    def test_lhs_matches_conjugate_product_at_phi_zero(self):
        for lam in (0.5, 1.0, 2.25, 7.0):
            for m in (0, 1, 5, 20):
                got = value_via_conjugate_product(lam, 0.0, m)
                want = identity_lhs(lam, m)
                assert abs(got.value - want) <= 1e-10 * (1 + abs(want))

    @settings(max_examples=150, deadline=None)
    @given(positive_rationals, st.integers(min_value=0, max_value=60))
    # even denominators: 2 lam = 2p/q reduces, the integer kernel keeps 2p over q
    @example(Fraction(1, 4), 60)
    @example(Fraction(3, 4), 60)
    @example(Fraction(5, 2), 60)
    def test_rhs_is_value_at_one(self, lam, m):
        want = pochhammer(2 * lam, m) / math.factorial(m)
        assert identity_rhs(lam, m) == want
        assert value_at_one(lam, m) == want

    @pytest.mark.parametrize("lam", [3, Fraction(3), Fraction(5, 2)])
    def test_exact_sides_are_fractions(self, lam):
        for m in (0, 1, 7):
            assert type(identity_lhs(lam, m)) is Fraction
            assert type(identity_rhs(lam, m)) is Fraction
