"""Gamma-ratio coefficients and signed binomials, against the Pochhammer oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gegenkit.coefficients import gamma_ratio_coefficient, gamma_ratios
from gegenkit.gegenbauer import value_at_one, value_via_conjugate_product
from gegenkit.identity import identity_lhs, verify

from oracles import falling_binomial, pochhammer


class TestPochhammer:
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-5, 3), 7, 2.25])
    def test_empty_product(self, x):
        assert pochhammer(x, 0) == 1

    def test_integer_base_is_factorial_shift(self):
        assert pochhammer(1, 4) == 24
        assert pochhammer(Fraction(1), 6) == math.factorial(6)

    def test_half_integer(self):
        # (1/2)(3/2)(5/2), checked by hand
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            pochhammer(Fraction(1), -1)

    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=10),
        st.integers(min_value=0, max_value=60),
    )
    def test_one_step_recurrence(self, x, m):
        assert pochhammer(x, m + 1) == pochhammer(x, m) * (x + m)


class TestGammaRatioCoefficient:
    def test_int_argument_stays_exact(self):
        for value, want in [(gamma_ratio_coefficient(3, 2), 6), (identity_lhs(1, 3), 4),
                            (value_at_one(2, 3), 20)]:
            assert type(value) is Fraction and value == want

    @pytest.mark.parametrize("m", [0, 1, 5, 17])
    def test_lambda_one_collapses(self, m):
        assert gamma_ratio_coefficient(Fraction(1), m) == 1

    def test_example(self):
        assert gamma_ratio_coefficient(Fraction(2), 3) == 4

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(7, 3), 3, 0.125])
    def test_empty_product(self, lam):
        assert gamma_ratio_coefficient(lam, 0) == 1

    def test_equals_pochhammer_over_factorial(self):
        for lam in [Fraction(1, 2), Fraction(7, 3), Fraction(10)]:
            for m in range(25):
                want = pochhammer(lam, m) / math.factorial(m)
                assert gamma_ratio_coefficient(lam, m) == want

    @given(
        st.fractions(min_value=Fraction(1, 50), max_value=20, max_denominator=50),
        st.integers(min_value=0, max_value=80),
    )
    def test_positive_for_positive_lambda(self, lam, m):
        assert gamma_ratio_coefficient(lam, m) > 0

    def test_ratios_are_the_running_prefix(self):
        for lam in [Fraction(7, 3), 2.75]:
            ratios = gamma_ratios(lam, 30)
            assert ratios == [gamma_ratios(lam, m)[-1] for m in range(31)]
        assert gamma_ratios(Fraction(3, 2), 3) == [1, Fraction(3, 2), Fraction(15, 8), Fraction(35, 16)]
        with pytest.raises(ValueError):
            gamma_ratios(Fraction(1), -1)

    @pytest.mark.parametrize("x, kind", [(True, "bool"), ("1/2", "str"), (1j, "complex")],
                             ids=["bool", "str", "complex"])
    @pytest.mark.parametrize("call", [gamma_ratios, gamma_ratio_coefficient],
                             ids=["ratios", "coefficient"])
    def test_non_scalar_argument_is_refused(self, call, x, kind):
        # True must not run as x = 1, nor a str be parsed
        with pytest.raises(TypeError, match=f"cannot coerce {kind}"):
            call(x, 3)

    def test_float_matches_exact_within_1e12(self):
        rng = random.Random(99)
        cases = [(Fraction(p, q), m) for p, q, m in
                 ((rng.randint(1, 400), rng.randint(1, 20), rng.randint(0, 60))
                  for _ in range(300))
                 if Fraction(p, q) <= 20]
        cases += [(Fraction(20), 60), (Fraction(1, 50), 60)]
        for lam, m in cases:
            exact = gamma_ratio_coefficient(lam, m)
            approx = gamma_ratio_coefficient(float(lam), m)
            assert math.isclose(approx, float(exact), rel_tol=1e-12)

    @pytest.mark.parametrize("m", [-1, True], ids=["negative", "bool"])
    @pytest.mark.parametrize("call", [value_at_one, verify, identity_lhs, gamma_ratios,
                                      gamma_ratio_coefficient,
                                      lambda lam, m: value_via_conjugate_product(lam, 0.5, m)],
                             ids=["at-one", "verify", "lhs", "ratios", "coefficient", "conjugate"])
    def test_bad_degree_is_named_m(self, call, m):
        # every public function that takes a degree names it by its argument, m
        with pytest.raises(ValueError) as exc:
            call(Fraction(1, 2), m)
        assert str(exc.value) == "m must be a nonnegative integer"


class TestSignedBinomial:
    """C(-lam, m) = (-1)^m (lam)_m / m!, the composition route's outer coefficients."""

    def test_examples(self):
        assert (-1) ** 2 * gamma_ratio_coefficient(Fraction(1), 2) == 1
        assert (-1) ** 1 * gamma_ratio_coefficient(Fraction(2), 1) == -2
        for lam in [Fraction(1, 2), Fraction(3), 1.5]:
            assert gamma_ratio_coefficient(lam, 0) == 1

    def test_matches_falling_factorial_oracle(self):
        for lam in [Fraction(1, 2), Fraction(1), Fraction(7, 3), Fraction(4)]:
            for m in range(20):
                assert (-1) ** m * gamma_ratio_coefficient(lam, m) == falling_binomial(-lam, m)
