"""The composition sum over u = r^2 - 2tr: one integer per power, one product per entry.

The rows take the type of the outer coefficients: ints for ints, Fractions for Fractions.
"""

import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gegenkit.coefficients import gamma_ratios
from gegenkit.series import compose_inner_polynomial

from oracles import compose_by_powers, falling_binomial, gegenbauer_coeff_lists, powers_of_u


@cache
def oracle_powers(n):
    return powers_of_u(n)


class TestCompose:
    def test_order_zero_is_the_constant(self):
        assert compose_inner_polynomial([5]) == [[5]]

    def test_order_one_drops_the_r_squared_term(self):
        # mod r^2, u is -2tr: the r^2 term of u falls past the order
        assert compose_inner_polynomial([5, 3]) == [[5], [0, -6]]

    def test_order_two(self):
        # a + b (r^2 - 2tr) + c (4t^2 r^2) mod r^3
        assert compose_inner_polynomial([5, 3, 2]) == [[5], [0, -6], [3, 0, 8]]

    def test_zero_outer_gives_zero_rows(self):
        assert compose_inner_polynomial([0] * 4) == [[0] * (m + 1) for m in range(4)]

    def test_outer_is_unchanged(self):
        outer = [3, -1, 4, 1, -5]
        compose_inner_polynomial(outer)
        assert outer == [3, -1, 4, 1, -5]

    def test_rows_depend_only_on_outer_up_to_their_order(self):
        # u^j starts at r^j, so rows m < k see only outer[:k]
        outer = [3, -1, 4, 1, -5, 9, -2, 6]
        rows = compose_inner_polynomial(outer)
        for k in range(1, len(outer) + 1):
            assert compose_inner_polynomial(outer[:k]) == rows[:k]

    def test_row_holds_only_powers_of_t_of_its_parity(self):
        # r^2 carries t^0 and -2tr carries t^1, so a term r^m t^k has m - k even
        rows = compose_inner_polynomial([3, -1, 4, 1, -5, 9, -2, 6])
        assert all(c == 0 for m, row in enumerate(rows) for k, c in enumerate(row) if (m - k) % 2)
        assert all(row[m] for m, row in enumerate(rows))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 16])
    def test_alternating_ones_give_chebyshev_u(self, n):
        # sum_j (-u)^j = (1 - 2rt + r^2)^(-1), whose r^m coefficient is U_m(t)
        want = [[1], [0, 2]]
        while len(want) <= n:
            # U_(m+1) = 2t U_m - U_(m-1)
            want.append([2 * a - b for a, b in zip([0] + want[-1], want[-2] + [0, 0])])
        assert compose_inner_polynomial([(-1) ** j for j in range(n + 1)]) == want[: n + 1]

    @pytest.mark.parametrize("lam", [1, 2, 5])
    def test_rows_at_t_one_are_gamma_ratios(self, lam):
        # at t = 1, (1 - 2r + r^2)^(-lam) = (1 - r)^(-2 lam): row m sums to (2 lam)_m / m!
        n = 30
        outer = [int(falling_binomial(Fraction(-lam), j)) for j in range(n + 1)]
        assert [sum(row) for row in compose_inner_polynomial(outer)] == gamma_ratios(2 * lam, n)

    def test_big_integers_stay_exact(self):
        big = 2**70 + 1
        got = compose_inner_polynomial([big, big, big])
        assert got == [[big], [0, -2 * big], [big, 0, 4 * big]]
        assert all(type(c) is int for row in got for c in row)

    def test_empty_outer_refused(self):
        with pytest.raises(ValueError, match="outer must hold at least one coefficient"):
            compose_inner_polynomial([])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=17))
    def test_matches_bivariate_oracle_up_to_order_16(self, outer):
        want = compose_by_powers(outer, oracle_powers(16))
        assert compose_inner_polynomial(outer) == want

    def test_matches_bruteforce_powers(self):
        """sum_j b_j u^j with u = r^2 - 2tr against independent bivariate expansion.

        Scaled, the outer coefficients b_j = q^n n! C(-lam, j), lam = p/q, are integers,
        so the rows are integers and give q^n n! C_m.  Unscaled, as the composition route
        runs, b_j = C(-lam, j) are Fractions, and so is every entry, zeros included.
        """
        for lam in [Fraction(1), Fraction(1, 2), Fraction(7, 3)]:
            n = 12
            want = gegenbauer_coeff_lists(lam, n)
            scale = lam.denominator**n * math.factorial(n)
            outer = [scale * falling_binomial(-lam, j) for j in range(n + 1)]
            assert all(b.denominator == 1 for b in outer)
            got = compose_inner_polynomial([int(b) for b in outer])
            assert got == [[scale * c for c in row] for row in want]
            got = compose_inner_polynomial([falling_binomial(-lam, j) for j in range(n + 1)])
            assert got == want
            assert all(type(c) is Fraction for row in got for c in row)
