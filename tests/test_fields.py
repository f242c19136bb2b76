"""Coefficient field realizations and scalar literals."""

import decimal
import json
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gegenkit.fields import (
    EXACT,
    FLOAT64,
    format_exact,
    format_scalar,
    parse_scalar,
)

_LITERALS = {
    "3/4": Fraction(3, 4),
    "-3/4": Fraction(-3, 4),
    "6/4": Fraction(3, 2),
    "−3/4": Fraction(-3, 4),  # U+2212 minus normalizes to ASCII
    " 1/2 ": Fraction(1, 2),
    "7": 7,
    "-7": -7,
    "+5": 5,
    "007": 7,
    "0.5": 0.5,
    "1e-3": 1e-3,
    "2e6": 2e6,
}
_LITERAL_IDS = [{"−3/4": "U+2212-minus", " 1/2 ": "padded"}.get(text, text) for text in _LITERALS]


class TestLiterals:
    @pytest.mark.parametrize("text, want", _LITERALS.items(), ids=_LITERAL_IDS)
    def test_the_type_of_the_value_is_the_kind(self, text, want):
        # int fits either mode, Fraction demands exact mode, float demands float mode
        got = parse_scalar(text)
        assert type(got) is type(want)
        assert got == want

    @pytest.mark.parametrize("bad, message", [
        ("3/0", "zero denominator in rational literal: '3/0'"),
        ("3/-4", "not a scalar literal: '3/-4'"),
        ("a/b", "not a scalar literal: 'a/b'"),
        ("", "not a scalar literal: ''"),
        ("1/2/3", "not a scalar literal: '1/2/3'"),
        ("wat", "not a scalar literal: 'wat'"),
    ], ids=["zero-denominator", "negative-denominator", "letters", "empty", "two-slashes", "word"])
    def test_malformed_literal_is_refused_with_its_message(self, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_scalar(bad)

    @pytest.mark.parametrize("bad", ["1_5", "1_000.5", "1e1_0", "١", "٣/٤", "１.５"],
                             ids=["underscore", "underscore-float", "underscore-exponent",
                                  "arabic-indic", "arabic-indic-fraction", "fullwidth-float"])
    def test_python_only_number_forms_are_refused(self, bad):
        # float() and Fraction() take '_' separators and non-ASCII digits; the grammar does not
        with pytest.raises(ValueError, match="not a scalar literal"):
            parse_scalar(bad)

    @pytest.mark.parametrize("where", ["numerator", "negative-numerator", "denominator"])
    def test_over_long_literal_is_named_without_python_advice(self, where):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        text = {"numerator": digits, "negative-numerator": f"-{digits}/3",
                "denominator": f"1/{digits}"}[where]
        with pytest.raises(ValueError, match=f"^exact literal too long: {len(text)} characters$"):
            parse_scalar(text)

    def test_format_exact_always_p_over_q(self):
        assert format_exact(Fraction(3)) == "3/1"
        assert format_exact(Fraction(-1, 2)) == "-1/2"
        assert format_scalar(Fraction(0)) == "0/1"

    def test_format_scalar_refuses_a_non_scalar(self):
        with pytest.raises(TypeError, match="cannot serialize str as a scalar"):
            format_scalar("1/2")

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_format_scalar_round_trips_a_float(self, x):
        assert float(format_scalar(x)) == x

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_json_writes_a_float_as_format_scalar(self, x):
        # the CLI's json lines leave float text to `json`
        assert json.dumps(x) == format_scalar(x)

    def test_a_float_subclass_is_written_as_its_float(self):
        class Tagged(float):
            def __repr__(self):
                return f"Tagged({float(self)!r})"

        assert format_scalar(Tagged(0.5)) == "0.5"

    def test_numpy_float64_is_written_as_its_float(self):
        # numpy 2 writes a float64's repr as 'np.float64(0.5)'
        np = pytest.importorskip("numpy")
        assert format_scalar(np.float64(0.5)) == "0.5"


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


def _lifted(value: Fraction) -> str:
    """'p/q' by plain int-to-str, with the cap lifted for this reference only."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{value.numerator}/{value.denominator}"
    finally:
        sys.set_int_max_str_digits(cap)


_PAST_THE_CAP = {
    "10^5000": Fraction(10**5000),
    "-10^9000": Fraction(-10**9000),
    "10^5000-1": Fraction(10**5000 - 1),
    "negative-numerator": Fraction(-7**20000, 3),
    "huge-denominator": Fraction(-2, 7**20000),
    "both-huge": Fraction(10**6000 - 1, 7**9000),
}


class TestFormatPastTheCap:
    @pytest.mark.parametrize("value", _PAST_THE_CAP.values(), ids=_PAST_THE_CAP.keys())
    def test_text_equals_the_cap_lifted_reference(self, value):
        want = _lifted(value)
        assert format_exact(value) == want
        with decimal.localcontext() as context:
            context.prec = 5  # Decimal(int) is exact at any context precision
            assert format_exact(value) == want

    def test_the_cap_is_never_set(self, monkeypatch):
        value = Fraction(7**30000, 3)
        want = _lifted(value)

        def refuse(_):
            raise AssertionError("format_exact set the interpreter's digit cap")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        assert format_exact(value) == want

    def test_another_threads_parsing_keeps_the_cap(self):
        # the setting is global to the interpreter: lifting it to format would let
        # every other thread parse digit strings of any length meanwhile
        cap = sys.get_int_max_str_digits()
        started, stop = threading.Event(), threading.Event()

        def write():
            while not stop.is_set():
                format_exact(Fraction(7**30000, 3))
                started.set()

        writer = threading.Thread(target=write)
        writer.start()
        accepted = 0
        try:
            assert started.wait(timeout=30)
            for _ in range(2000):
                try:
                    int("9" * (cap + 1))
                    accepted += 1
                except ValueError:
                    pass
        finally:
            stop.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert accepted == 0
