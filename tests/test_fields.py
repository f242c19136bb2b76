"""Coefficient field realizations and scalar literals."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gegenkit.fields import (
    EXACT,
    FLOAT64,
    format_exact,
    format_float,
    format_scalar,
    literal_kind,
    parse_exact,
    parse_scalar,
)

class TestLiterals:
    def test_parse_exact_forms(self):
        assert parse_exact("3/4") == Fraction(3, 4)
        assert parse_exact("-3/4") == Fraction(-3, 4)
        assert parse_exact("7") == Fraction(7)
        assert parse_exact("007") == Fraction(7)
        # U+2212 minus normalizes to ASCII
        assert parse_exact("−3/4") == Fraction(-3, 4)

    @pytest.mark.parametrize("bad", ["3/0", "3/-4", "1.5", "1e3", "a/b", "", "1/2/3"])
    def test_parse_exact_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_exact(bad)

    def test_parse_scalar_dispatch(self):
        assert parse_scalar("1/2") == Fraction(1, 2)
        assert isinstance(parse_scalar("1/2"), Fraction)
        assert parse_scalar("0.5") == 0.5
        assert isinstance(parse_scalar("0.5"), float)
        assert parse_scalar("1e-3") == 1e-3
        assert parse_scalar("12") == Fraction(12)

    def test_literal_kind(self):
        assert literal_kind("1/2") == "fraction"
        assert literal_kind("-7") == "integer"
        assert literal_kind("0.5") == "float"
        assert literal_kind("2e6") == "float"
        with pytest.raises(ValueError):
            literal_kind("wat")

    def test_format_exact_always_p_over_q(self):
        assert format_exact(Fraction(3)) == "3/1"
        assert format_exact(Fraction(-1, 2)) == "-1/2"
        assert format_scalar(Fraction(0)) == "0/1"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_format_float_round_trips(self, x):
        assert float(format_float(x)) == x

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_json_writes_a_float_as_format_float(self, x):
        # the CLI's json lines leave float text to `json`
        assert json.dumps(x) == format_float(x)


class TestCoercion:
    def test_exact_coerce(self):
        assert EXACT.coerce(0.5) == Fraction(1, 2)  # binary float converts exactly
        assert EXACT.coerce(3) == Fraction(3)
        with pytest.raises(ValueError):
            EXACT.coerce(float("inf"))
        with pytest.raises(TypeError):
            EXACT.coerce(object())

    def test_float_coerce(self):
        assert FLOAT64.coerce(Fraction(1, 2)) == 0.5
        assert FLOAT64.coerce(2) == 2.0
        with pytest.raises(TypeError):
            FLOAT64.coerce(object())

    @pytest.mark.parametrize("value", [True, False], ids=["true", "false"])
    @pytest.mark.parametrize("convert", [EXACT.coerce, FLOAT64.coerce, format_scalar],
                             ids=["exact", "float64", "format"])
    def test_bool_is_refused(self, convert, value):
        # a bool is an int to isinstance, but True must not be taken as 1, nor False as 0
        with pytest.raises(TypeError, match="cannot .* bool"):
            convert(value)
