"""End-to-end CLI behavior: formats, exit codes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from gegenkit import identity
from gegenkit.cli import EXACT_M_MAX_LIMIT, FIELDS, M_MAX_LIMIT, ORDER_LIMIT, cli

from oracles import explicit_value, pochhammer
from test_gegenbauer import corrupt_exact_row


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, list(args))


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


def parse_jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def json_cell(value):
    """Render a JSON field the way the CSV writer renders its cell."""
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(json_cell(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class TestTable:
    def test_rows_lowest_degree_first(self, runner):
        res = invoke(runner, "table", "--lambda", "1", "--order", "2", "--route", "composition")
        assert res.exit_code == 0
        assert res.output.splitlines() == [
            "m=0: 1/1",
            "m=1: 0/1 2/1",
            "m=2: -1/1 0/1 4/1",
        ]

    def test_order_zero(self, runner):
        res = invoke(runner, "table", "--lambda", "3/2", "--order", "0")
        assert res.exit_code == 0
        assert res.output.splitlines() == ["m=0: 1/1"]

    def test_negative_lambda_is_usage_error(self, runner):
        res = invoke(runner, "table", "--lambda", "-1", "--order", "2")
        assert res.exit_code == 2

    def test_float_composition_rejected(self, runner):
        res = invoke(runner, "table", "--lambda", "0.5", "--order", "2", "--route", "composition")
        assert res.exit_code == 2

    def test_float_recurrence_works(self, runner):
        res = invoke(runner, "table", "--lambda", "0.5", "--order", "2", "--route", "recurrence")
        assert res.exit_code == 0
        assert res.output.splitlines()[1] == "m=1: 0.0 1.0"

    def test_corrupt_recurrence_row_is_our_defect(self, runner, monkeypatch):
        # a wrong row fails its Gegenbauer-equation check before any row is written
        corrupt_exact_row(monkeypatch, 5, lambda row, s: ([*row[:3], row[3] + 1, *row[4:]], s))
        res = invoke(runner, "table", "--lambda", "17/7", "--order", "8", "--route", "recurrence")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == (
            "Error: arithmetic defect: exact recurrence row 5 fails the Gegenbauer equation at t^3")

    def test_routes_agree_in_exact_mode(self, runner):
        a = invoke(runner, "table", "--lambda", "7/3", "--order", "6", "--route", "composition")
        b = invoke(runner, "table", "--lambda", "7/3", "--order", "6", "--route", "recurrence")
        assert a.output == b.output


class TestEvalAndAtOne:
    def test_eval_example(self, runner):
        res = invoke(runner, "eval", "--lambda", "1", "--degree", "2", "--t", "1")
        assert res.exit_code == 0
        assert res.output.strip() == "3/1"

    def test_eval_degree_zero_any_t(self, runner):
        res = invoke(runner, "eval", "--lambda", "2/3", "--degree", "0", "--t", "7")
        assert res.output.strip() == "1/1"

    def test_eval_float_mode(self, runner):
        res = invoke(runner, "eval", "--lambda", "1", "--degree", "2", "--t", "0.5")
        assert res.exit_code == 0
        assert res.output.strip() == "0.0"

    def test_at_one_example(self, runner):
        res = invoke(runner, "at-one", "--lambda", "1/2", "--degree", "2")
        assert res.output.strip() == "1/1"

    def test_at_one_matches_eval_at_one(self, runner):
        a = invoke(runner, "at-one", "--lambda", "7/3", "--degree", "9")
        b = invoke(runner, "eval", "--lambda", "7/3", "--degree", "9", "--t", "1")
        assert a.output == b.output

    @pytest.mark.parametrize("lam, m, t", [
        (1.0, 100, 0.5), (1.0, 200, 0.5), (1.0, 400, 0.5),  # true values -1, 0, -1
        (0.5, 60, 0.9),  # P_60(0.9) = 0.031790
        (300.0, 400, 0.5),  # finite, about 1.3e163
    ])
    def test_float_eval_matches_explicit_sum(self, runner, lam, m, t):
        res = invoke(runner, "eval", "--lambda", repr(lam), "--degree", str(m), "--t", repr(t))
        assert res.exit_code == 0
        want = float(explicit_value(Fraction(lam), m, Fraction(t)))
        assert abs(float(res.stdout) - want) <= 1e-13 * max(abs(want), 1.0)

    def test_exact_eval_at_degree_1000(self, runner):
        res = invoke(runner, "eval", "--lambda", "108/29", "--degree", "1000", "--t", "7/13")
        assert res.exit_code == 0
        want = explicit_value(Fraction(108, 29), 1000, Fraction(7, 13))
        assert res.stdout == _digits(want) + "\n"

    def test_exact_output_beyond_the_int_str_cap(self, runner):
        cap = sys.get_int_max_str_digits()
        res = invoke(runner, "at-one", "--lambda", "108/29", "--degree", "3000")
        assert res.exit_code == 0
        assert len(res.stdout) > cap
        assert res.stdout == _digits(pochhammer(Fraction(216, 29), 3000) / math.factorial(3000)) + "\n"
        # the cap is back, and literal parsing still keeps it
        assert sys.get_int_max_str_digits() == cap
        res = invoke(runner, "at-one", "--lambda", "1" * (cap + 1), "--degree", "2")
        assert res.exit_code == 2

    @pytest.mark.parametrize("cap", ["640", "0"])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_exact_output_is_the_same_under_any_cap(self, fmt, cap):
        # the interpreter's cap, lowered or lifted, never changes what is printed
        cmd = ["-m", "gegenkit.cli", "at-one", "--lambda", "108/29", "--degree", "3000",
               "--format", fmt]
        default = subprocess.run([sys.executable, *cmd], capture_output=True, timeout=60)
        capped = subprocess.run([sys.executable, "-X", f"int_max_str_digits={cap}", *cmd],
                                capture_output=True, timeout=60)
        assert (default.returncode, capped.returncode) == (0, 0)
        assert len(default.stdout) > 4300
        assert capped.stdout == default.stdout

    @pytest.mark.parametrize("where", ["numerator", "denominator"])
    def test_over_long_literal_is_named_without_python_advice(self, runner, where):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        lam = digits if where == "numerator" else f"1/{digits}"
        res = invoke(runner, "at-one", "--lambda", lam, "--degree", "2")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == f"Error: exact literal too long: {len(lam)} characters"
        assert "sys." not in res.stderr

    def test_zero_denominator_keeps_its_message(self, runner):
        res = invoke(runner, "at-one", "--lambda", "1/0", "--degree", "2")
        assert res.exit_code == 2
        assert res.stderr.splitlines()[-1] == "Error: zero denominator in rational literal: '1/0'"

    def test_first_unparsable_literal_is_named_before_the_mix_of_kinds(self, runner):
        # '1/0' with a float t is two faults: the literals are read in order, so the
        # zero denominator is named, not the mix of 'p/q' and float literals
        res = invoke(runner, "eval", "--lambda", "1/0", "--degree", "3", "--t", "0.5")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == "Error: zero denominator in rational literal: '1/0'"

    @pytest.mark.parametrize("lam", ["1_5", "١", "٣/٤"], ids=["underscore", "arabic-indic", "fraction"])
    @pytest.mark.parametrize("command", [("eval", "--t", "0.5"), ("at-one",)], ids=["eval", "at-one"])
    def test_python_only_literal_is_usage_error(self, runner, command, lam):
        # float() would read '1_5' as 15.0 and Fraction() would read '١' as 1
        res = invoke(runner, command[0], "--lambda", lam, "--degree", "3", *command[1:])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"not a scalar literal: {lam!r}" in res.stderr


def _digits(value: Fraction) -> str:
    """'p/q' of any length, with the int-to-str cap lifted for this test only."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{value.numerator}/{value.denominator}"
    finally:
        sys.set_int_max_str_digits(cap)


class TestVerify:
    def test_exact_sweep_counts(self, runner):
        res = invoke(runner, "verify", "--lambda-list", "1/2,1,3/2", "--m-max", "20",
                     "--mode", "exact", "--format", "csv")
        assert res.exit_code == 0
        rows = parse_csv(res.stdout)
        assert len(rows) == 63
        assert all(r["status"] == "pass" for r in rows)
        assert all(r["residual"] == "" for r in rows)

    def test_m_max_zero(self, runner):
        res = invoke(runner, "verify", "--lambda-list", "1/2,2", "--m-max", "0", "--format", "csv")
        rows = parse_csv(res.stdout)
        assert [(r["value_or_lhs"], r["rhs"]) for r in rows] == [("1/1", "1/1")] * 2

    def test_zero_lambda_usage_error(self, runner):
        res = invoke(runner, "verify", "--lambda-list", "0", "--m-max", "2")
        assert res.exit_code == 2

    def test_float_mode_reports_residuals(self, runner):
        res = invoke(runner, "verify", "--lambda-list", "0.5,2.5", "--m-max", "30", "--format", "csv")
        assert res.exit_code == 0
        rows = parse_csv(res.stdout)
        assert len(rows) == 62
        assert all(float(r["residual"]) <= 1e-10 for r in rows)

    def test_mixed_literals_rejected(self, runner):
        res = invoke(runner, "verify", "--lambda-list", "1/2,0.5", "--m-max", "2")
        assert res.exit_code == 2

    def test_float_literal_with_exact_mode_rejected(self, runner):
        res = invoke(runner, "verify", "--lambda-list", "0.5", "--m-max", "2", "--mode", "exact")
        assert res.exit_code == 2

    def test_summary_goes_to_stderr(self, runner):
        res = invoke(runner, "verify", "--lambda-list", "1", "--m-max", "3")
        assert "verify: 4/4 checks passed" in res.stderr

    def test_m_max_above_limit_is_usage_error(self, runner):
        res = invoke(runner, "verify", "--lambda-list", "1.0", "--m-max", str(M_MAX_LIMIT + 1))
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"--m-max must be at most {M_MAX_LIMIT}" in res.stderr

    def test_huge_m_max_exits_before_any_work(self):
        # the limit is checked before any row of m_max + 1 big integers is built
        cmd = [sys.executable, "-m", "gegenkit.cli", "verify", "--lambda-list", "1",
               "--m-max", "100000000"]
        res = subprocess.run(cmd, capture_output=True, timeout=30)
        assert res.returncode == 2
        assert res.stdout == b""

    def test_inexact_left_side_is_our_defect(self, runner, monkeypatch):
        # a wrong P_m leaves a remainder in the kernel's division at m >= 2; that is
        # a fault of the program, never a failed identity, so no row may read fail
        kernel = identity._lhs_numerator
        monkeypatch.setattr(identity, "_lhs_numerator",
                            lambda p, q, m, P_m: kernel(p, q, m, P_m + 1))
        res = invoke(runner, "verify", "--lambda-list", "1/2", "--m-max", "3")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "fail" not in res.output
        assert res.stderr.splitlines()[-1] == (
            "Error: arithmetic defect: the left side at m = 2 is not an integer")


class TestDerivCheck:
    def test_example_values(self, runner):
        res = invoke(runner, "deriv-check", "--lambda", "1", "--t", "1", "--r", "0.5",
                     "--order", "60")
        assert res.exit_code == 0
        lines = dict(line.split("=", 1) for line in res.output.splitlines())
        assert float(lines["closed_form"]) == 16.0
        assert float(lines["residual"]) <= 1e-8
        assert lines["status"] == "pass"

    def test_r_zero_trivial(self, runner):
        res = invoke(runner, "deriv-check", "--lambda", "1", "--t", "0", "--r", "0", "--order", "5")
        assert res.exit_code == 0
        assert "closed_form=0.0" in res.output
        assert "partial_sum=0.0" in res.output

    def test_r_one_domain_error(self, runner):
        res = invoke(runner, "deriv-check", "--lambda", "1", "--t", "0", "--r", "1", "--order", "5")
        assert res.exit_code == 2

    def test_tolerance_breach_exits_one(self, runner):
        res = invoke(runner, "deriv-check", "--lambda", "1", "--t", "1", "--r", "0.9",
                     "--order", "10", "--tolerance", "1e-12")
        assert res.exit_code == 1

    def test_unicode_minus_matches_ascii(self, runner):
        ascii_res = invoke(runner, "deriv-check", "--lambda", "1.0", "--t", "-0.5", "--r", "0.5",
                           "--order", "10")
        unicode_res = invoke(runner, "deriv-check", "--lambda", "1.0", "--t", "\u22120.5", "--r",
                             "0.5", "--order", "10")
        assert unicode_res.exit_code == ascii_res.exit_code == 1
        assert unicode_res.stdout == ascii_res.stdout

    def test_float_overflow_is_usage_error(self, runner):
        # t = 0.5 overflows the tail budget's majorant, t = 0.99 the derivative's closed form
        for t, form in [("0.5", "majorant closed form (1 - r)^(-2 lam)"),
                        ("0.99", "closed form (1 - 2rt + r^2)^(-lam-1)")]:
            res = invoke(runner, "deriv-check", "--lambda", "300", "--t", t, "--r", "0.99",
                         "--order", "10")
            assert res.exit_code == 2
            assert res.stdout == ""
            assert res.stderr.splitlines()[-1] == f"Error: float overflow: {form} is not finite"

    def test_base_rounded_to_zero_is_a_float_overflow(self, runner):
        # 1 - 2rt + r^2 rounds to 0.0: a float overflow, not a defect in exact arithmetic
        res = invoke(runner, "deriv-check", "--lambda", "1", "--t", "1", "--r", "0.999999999",
                     "--order", "5")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == (
            "Error: float overflow: closed form (1 - 2rt + r^2)^(-lam-1) is not finite")

    def test_high_order_passes(self, runner):
        # true truncation residual 7.1e-12; the value-space sum reaches it
        res = invoke(runner, "deriv-check", "--lambda", "1", "--t", "0.5", "--r", "0.9",
                     "--order", "300")
        assert res.exit_code == 0
        lines = dict(line.split("=", 1) for line in res.output.splitlines())
        assert abs(float(lines["partial_sum"]) - 2.17365052530) <= 1e-10
        assert lines["status"] == "pass"

    def test_underflowed_power_ends_the_sum(self, runner):
        # closed form 119.88; the coefficients overflow only after r^k has underflowed to 0
        res = invoke(runner, "deriv-check", "--lambda", "300", "--t", "0.5", "--r", "0.01",
                     "--order", "2000")
        assert res.exit_code == 0
        lines = dict(line.split("=", 1) for line in res.output.splitlines())
        assert abs(float(lines["closed_form"]) - 119.882015647) <= 1e-6
        assert float(lines["residual"]) <= 1e-10 and lines["status"] == "pass"

    def test_overflowing_majorant_sum_is_usage_error(self, runner):
        # the majorant's partial sum overflows, so no tail budget can be certified
        res = invoke(runner, "deriv-check", "--lambda", "300", "--t", "0.5", "--r", "0.5",
                     "--order", "700")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == "Error: float overflow: result is not finite"

    def test_json_has_budget_record(self, runner):
        res = invoke(runner, "deriv-check", "--lambda", "1", "--t", "0", "--r", "0.3",
                     "--order", "40", "--format", "json")
        recs = parse_jsonl(res.stdout)
        assert [r["check"] for r in recs] == ["deriv-check", "deriv-check-budget"]


def _ceiling_cases(excess):
    """Every command with a ceiling, asked for `excess` above it, with the message it must give.

    `table` runs on both routes, under one ceiling; composition is the default.
    """
    def case(case_id, args, flag, limit, scope=""):
        return pytest.param([*args, flag, str(limit + excess)],
                            f"{flag} must be at most {limit}{scope}", id=case_id)

    return [
        case("table", ["table", "--lambda", "1"], "--order", ORDER_LIMIT),
        case("table-recurrence", ["table", "--lambda", "1", "--route", "recurrence"], "--order",
             ORDER_LIMIT),
        case("eval", ["eval", "--lambda", "1.0", "--t", "0.5"], "--degree", M_MAX_LIMIT),
        case("deriv-check", ["deriv-check", "--lambda", "1", "--t", "0.5", "--r", "0.1"], "--order",
             M_MAX_LIMIT),
        case("at-one", ["at-one", "--lambda", "1"], "--degree", M_MAX_LIMIT),
        case("verify-exact", ["verify", "--lambda-list", "7/3"], "--m-max", EXACT_M_MAX_LIMIT,
             " in exact mode"),
        case("verify-float", ["verify", "--lambda-list", "0.5"], "--m-max", M_MAX_LIMIT),
    ]


class TestLimits:
    @pytest.mark.parametrize("args, message", _ceiling_cases(1))
    def test_above_limit_is_usage_error(self, runner, args, message):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == f"Error: {message}"

    @pytest.mark.parametrize("args, message", _ceiling_cases(10**8))
    def test_huge_value_exits_before_any_work(self, args, message):
        # the ceiling is checked before any table or product is built
        res = subprocess.run([sys.executable, "-m", "gegenkit.cli", *args],
                             capture_output=True, timeout=30)
        assert res.returncode == 2
        assert res.stdout == b""
        assert res.stderr.decode().splitlines()[-1] == f"Error: {message}"

    def test_limits_themselves_are_accepted(self, runner):
        res = invoke(runner, "at-one", "--lambda", "1/2", "--degree", str(M_MAX_LIMIT))
        assert (res.exit_code, res.stdout) == (0, "1/1\n")
        res = invoke(runner, "deriv-check", "--lambda", "1", "--t", "0.5", "--r", "0",
                     "--order", str(M_MAX_LIMIT))
        assert res.exit_code == 0
        res = invoke(runner, "eval", "--lambda", "1.0", "--degree", str(M_MAX_LIMIT), "--t", "0.5")
        assert (res.exit_code, res.stdout) == (0, "-1.0\n")
        # the exact ceiling of verify does not bound float mode
        res = invoke(runner, "verify", "--lambda-list", "0.5", "--m-max", str(EXACT_M_MAX_LIMIT + 1))
        assert res.exit_code == 0

    @pytest.mark.parametrize("args", [
        ["table", "--lambda", "1", "--order", "-1"],
        ["eval", "--lambda", "1", "--t", "1/2", "--degree", "-1"],
        ["deriv-check", "--lambda", "1", "--t", "0", "--r", "0.5", "--order", "-1"],
        ["at-one", "--lambda", "1", "--degree", "-1"],
        ["verify", "--lambda-list", "1", "--m-max", "-1"],
    ], ids=lambda a: a[0])
    def test_negative_index_names_the_flag(self, runner, args):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"{args[-2]} must be nonnegative" in res.stderr

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("args", [
        ["verify", "--lambda-list", "0.5", "--m-max", "2"],
        ["verify", "--lambda-list", "1/2", "--m-max", "2"],
        ["deriv-check", "--lambda", "1", "--t", "0.5", "--r", "0.1", "--order", "10"],
    ], ids=["verify-float", "verify-exact", "deriv-check"])
    def test_bad_tolerance_is_usage_error(self, runner, args, tolerance):
        res = invoke(runner, *args, "--tolerance", tolerance)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--tolerance must be finite and nonnegative" in res.stderr


NON_FINITE_CASES = [
    ["at-one", "--lambda", "1e300", "--degree", "3"],
    # C_3(0.5) is about 1e900
    ["eval", "--lambda", "1e300", "--degree", "3", "--t", "0.5"],
    # rows m = 0, 1 are finite: nothing may be printed before m = 2 is checked
    ["verify", "--lambda-list", "1e300", "--m-max", "2"],
    # rows m = 0, 1 are finite, m = 2 overflows: no row may be printed
    ["table", "--lambda", "1e300", "--order", "3", "--route", "recurrence"],
    # high-degree coefficients overflow to +-inf, so the partial sum is nan
    ["deriv-check", "--lambda", "1e12", "--t", "0.5", "--r", "1e-10", "--order", "30"],
]


class TestNonFiniteFloat:
    @pytest.mark.parametrize("args, fmt", [
        pytest.param(args, fmt, id=f"args{i}" + ("" if fmt == "text" else f"-{fmt}"))
        for fmt in ("text", "csv", "json") for i, args in enumerate(NON_FINITE_CASES)
    ])
    def test_inf_or_nan_is_usage_error(self, runner, args, fmt):
        res = invoke(runner, *args, "--format", fmt)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == "Error: float overflow: result is not finite"

    @pytest.mark.parametrize("args", [
        ["eval", "--lambda", str(10 ** 400), "--degree", "2", "--t", "0.5"],
        ["deriv-check", "--lambda", "1", "--t", f"-{10 ** 400}/3", "--r", "1/2", "--order", "3"],
    ])
    def test_exact_literal_beyond_float_is_named(self, runner, args):
        res = invoke(runner, *args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == (
            "Error: an exact literal does not fit a float (magnitude above 1.8e308)")

    @pytest.mark.parametrize("args", [
        ["at-one", "--lambda", "1e-400", "--degree", "3"],
        ["at-one", "--lambda", f"1/{10 ** 400}", "--degree", "3", "--mode", "float"],
        ["eval", "--lambda", "1.0", "--degree", "3", "--t", "1e-400"],
        ["deriv-check", "--lambda", "1", "--t", "0.5", "--r", "1e-400", "--order", "5"],
    ], ids=["decimal-lambda", "exact-lambda", "decimal-t", "decimal-r"])
    def test_nonzero_literal_that_rounds_to_zero_is_named(self, runner, args):
        # not read as the 0.0 it rounds to: no 'lambda must be positive', no value at t = 0,
        # no deriv-check passed as the trivial r = 0 case
        res = invoke(runner, *args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == (
            "Error: a nonzero literal underflows to 0.0 as a float (magnitude below 2.5e-324)")

    @pytest.mark.parametrize("args, want", [
        (["eval", "--lambda", "1.0", "--degree", "3", "--t", "1e-320"], "-4e-320"),
        (["at-one", "--lambda", "1e-320", "--degree", "3"], "6.665e-321"),
        (["eval", "--lambda", "1.0", "--degree", "3", "--t", "0"], "-0.0"),
        (["eval", "--lambda", "1.0", "--degree", "3", "--t", "0.0e-400"], "-0.0"),
        (["eval", "--lambda", "1.0", "--degree", "3", "--t", "-0.0"], "0.0"),
        (["eval", "--lambda", "1", "--degree", "3", "--t", "0/5", "--mode", "float"], "-0.0"),
    ], ids=["subnormal-t", "subnormal-lambda", "zero", "zero-exponent", "minus-zero", "zero-ratio"])
    def test_subnormal_and_zero_literals_are_read(self, runner, args, want):
        res = invoke(runner, *args)
        assert res.exit_code == 0
        assert res.stdout == want + "\n"

    @pytest.mark.parametrize("degree", ["0", "3"])
    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_point_is_named(self, runner, t, degree):
        res = invoke(runner, "eval", "--lambda", "1.0", "--degree", degree, "--t", t)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == f"Error: t must be finite, not {float(t)!r}"


class TestFormatsAgree:
    @pytest.mark.parametrize(
        "args",
        [
            ("table", "--lambda", "7/3", "--order", "4"),
            ("table", "--lambda", "0.75", "--order", "4", "--route", "recurrence"),
            ("verify", "--lambda-list", "1/2,7/3", "--m-max", "10"),
            ("verify", "--lambda-list", "0.5,2.5", "--m-max", "10"),
            ("eval", "--lambda", "3/2", "--degree", "5", "--t", "-2/7"),
            ("at-one", "--lambda", "3/2", "--degree", "5"),
            ("deriv-check", "--lambda", "1.5", "--t", "0.5", "--r", "0.4", "--order", "30"),
        ],
    )
    def test_csv_and_json_carry_identical_values(self, runner, args):
        csv_res = invoke(runner, *args, "--format", "csv")
        json_res = invoke(runner, *args, "--format", "json")
        assert csv_res.exit_code == 0 and json_res.exit_code == 0
        csv_rows = parse_csv(csv_res.stdout)
        json_rows = parse_jsonl(json_res.stdout)
        assert len(csv_rows) == len(json_rows)
        for crow, jrow in zip(csv_rows, json_rows):
            for key in ("lambda", "m", "check", "value_or_lhs", "rhs", "residual", "status"):
                assert crow[key] == json_cell(jrow[key])

    @pytest.mark.parametrize("args", [
        ("table", "--lambda", "1", "--order", "3"),
        ("table", "--lambda", "2", "--order", "3", "--route", "recurrence"),
        ("verify", "--lambda-list", "1,2", "--m-max", "3"),
        ("eval", "--lambda", "2", "--degree", "3", "--t", "1"),
        ("at-one", "--lambda", "2", "--degree", "0"),
    ])
    def test_json_quotes_every_exact_value(self, runner, args):
        # integer literals are exact: an int in a record would print as a bare number
        res = invoke(runner, *args, "--format", "json")
        assert res.exit_code == 0
        for rec in parse_jsonl(res.stdout):
            assert isinstance(rec.pop("m"), int)
            for value in rec.values():
                assert value is None or isinstance(value, str) or (
                    isinstance(value, list) and all(isinstance(v, str) for v in value))


GOLDEN_CSV = [case["args"] for case in
              json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))
              if ("--format", "csv") in zip(case["args"], case["args"][1:])]


def csv_cells(line):
    """The cells of one csv line as the csv module reads them."""
    return next(csv.reader([line]))


class TestCsvNeedsNoQuoting:
    """A csv line is its seven cells joined by ',': no cell holds a comma, quote or line break."""

    @pytest.mark.parametrize("args", GOLDEN_CSV, ids=" ".join)
    def test_golden_csv_lines_are_their_cells_joined(self, runner, args):
        lines = invoke(runner, *args).stdout.splitlines()
        assert lines[0] == ",".join(FIELDS) and len(lines) > 1
        for line in lines:
            cells = csv_cells(line)
            assert len(cells) == len(FIELDS) and ",".join(cells) == line

    def test_digits_past_the_int_str_cap(self):
        # past the lowered cap the digits are written through Decimal
        cmd = [sys.executable, "-X", "int_max_str_digits=640", "-m", "gegenkit.cli", "at-one",
               "--lambda", "108/29", "--degree", "3000", "--format", "csv"]
        run = subprocess.run(cmd, capture_output=True, encoding="utf-8", timeout=60)
        assert run.returncode == 0
        header, line = run.stdout.splitlines()
        cells = csv_cells(line)
        assert header == ",".join(FIELDS) and len(cells[3].partition("/")[0]) > 640
        assert len(cells) == len(FIELDS) and ",".join(cells) == line


def printed_statuses(stdout, fmt):
    """The status of each record a command printed in `fmt` (text shows it as status=...)."""
    if fmt == "json":
        return [record["status"] for record in parse_jsonl(stdout)]
    if fmt == "csv":
        return [row["status"] for row in parse_csv(stdout)]
    return [word.split("=", 1)[1] for line in stdout.splitlines() for word in line.split()
            if word.startswith("status=")]


class TestExitCodeFollowsStatuses:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    @pytest.mark.parametrize("args, code", [
        (("verify", "--lambda-list", "3.7", "--m-max", "40", "--tolerance", "1e-18"), 1),
        (("verify", "--lambda-list", "0.5,2.5", "--m-max", "10"), 0),
        (("deriv-check", "--lambda", "2", "--t", "-0.5", "--r", "0.3", "--order", "0"), 1),
        (("deriv-check", "--lambda", "1.5", "--t", "0.5", "--r", "0.4", "--order", "30"), 0),
    ], ids=["verify-fails", "verify-passes", "deriv-check-fails", "deriv-check-passes"])
    def test_exit_1_exactly_when_a_printed_status_is_fail(self, runner, args, code, fmt):
        res = invoke(runner, *args, "--format", fmt)
        statuses = printed_statuses(res.stdout, fmt)
        assert res.exit_code == code
        assert statuses and ("fail" in statuses) == (code == 1)


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--lambda-list", "1/2,1,3/2", "--m-max", "40", "--format", "csv"],
            ["verify", "--lambda-list", "0.5,2.5", "--m-max", "40", "--format", "json"],
            ["table", "--lambda", "7/3", "--order", "12", "--format", "csv"],
            ["deriv-check", "--lambda", "1", "--t", "0", "--r", "0.5", "--order", "40"],
        ],
    )
    def test_repeated_runs_are_byte_identical(self, args):
        cmd = [sys.executable, "-m", "gegenkit.cli", *args]
        a = subprocess.run(cmd, capture_output=True)
        b = subprocess.run(cmd, capture_output=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestCommandLine:
    """How arguments are read: values that begin with '-', '--name=value', repeats, --help."""

    @pytest.mark.parametrize("t, want", [("-2/7", "-33/49"), ("-1e-3", "-0.999996")])
    def test_value_beginning_with_minus_is_the_value(self, runner, t, want):
        res = invoke(runner, "eval", "--lambda", "1", "--degree", "2", "--t", t)
        assert (res.exit_code, res.stdout) == (0, want + "\n")

    def test_negative_order_reaches_the_bounds_check(self, runner):
        res = invoke(runner, "deriv-check", "--lambda", "1", "--t", "0.5", "--r", "0.1",
                     "--order", "-1")
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.splitlines()[-1] == "Error: --order must be nonnegative"

    def test_name_equals_value(self, runner):
        a = invoke(runner, "eval", "--lambda=2.5", "--degree=12", "--t", "0.3")
        b = invoke(runner, "eval", "--lambda", "2.5", "--degree", "12", "--t", "0.3")
        assert a.exit_code == b.exit_code == 0
        assert a.stdout == b.stdout

    def test_repeated_option_keeps_its_last_value(self, runner):
        a = invoke(runner, "eval", "--lambda", "2.5", "--degree", "12", "--t", "0.3", "--t", "0.5")
        b = invoke(runner, "eval", "--lambda", "2.5", "--degree", "12", "--t", "0.5")
        assert a.exit_code == b.exit_code == 0
        assert a.stdout == b.stdout

    def test_help_after_other_options(self, runner):
        # --help wins over the options before it, even with a required one missing
        res = invoke(runner, "eval", "--lambda", "2.5", "--help")
        assert (res.exit_code, res.stderr) == (0, "")
        assert res.stdout.startswith("Usage:") and "--degree" in res.stdout

    @pytest.mark.parametrize("args, message", [
        (["table", "--lambda", "1", "--order", "2", "--bogus"], "No such option '--bogus'."),
        (["--bogus"], "No such option '--bogus'."),
        (["table", "--order", "2"], "Missing option '--lambda'."),
        (["eval", "--lambda", "1", "--degree", "x", "--t", "0.5"],
         "Invalid value for '--degree': 'x' is not a valid integer."),
        (["verify", "--lambda-list", "1", "--m-max", "2", "--tolerance", "x"],
         "Invalid value for '--tolerance': 'x' is not a valid float."),
        (["frob"], "No such command 'frob'."),
        (["table", "--lambda", "1", "--order", "2", "--format", "xml"],
         "Invalid value for '--format': 'xml' is not one of 'text', 'csv', 'json'."),
        (["table", "--lambda", "1", "--order", "2", "--route", "comp"],
         "Invalid value for '--route': 'comp' is not one of 'composition', 'recurrence'."),
        (["table", "--lambda", "1", "--order", "2", "stray"], "Got unexpected extra argument (stray)"),
        (["table", "--lambda", "1", "--order"], "Option '--order' requires an argument."),
        ([], "Missing command."),
    ], ids=["option", "group-option", "missing", "integer", "float", "command", "format", "route",
            "positional", "no-value", "no-command"])
    def test_usage_error(self, runner, args, message):
        res = invoke(runner, *args)
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.splitlines()[-1] == f"Error: {message}"


HELP_NAMES = {
    "table": ["--lambda TEXT", "lambda > 0", "--order INTEGER", f"at most {ORDER_LIMIT}",
              "--route [composition|recurrence]", "[default: composition]"],
    "eval": ["--lambda TEXT", "lambda > 0", "--degree INTEGER", f"at most {M_MAX_LIMIT}",
             "--t TEXT", "any finite magnitude"],
    "at-one": ["--lambda TEXT", "lambda > 0", "--degree INTEGER", f"at most {M_MAX_LIMIT}"],
    "verify": ["--lambda-list TEXT", "lambda > 0", "--m-max INTEGER",
               f"at most {EXACT_M_MAX_LIMIT} exact or {M_MAX_LIMIT} float",
               "--tolerance FLOAT", "[default: 1e-10]"],
    "deriv-check": ["--lambda TEXT", "lambda > 0", "--t TEXT", "[-1, 1]", "--r TEXT", "[0, 1)",
                    "--order INTEGER", f"at most {M_MAX_LIMIT}", "--tolerance FLOAT",
                    "[default: 1e-10]"],
}
"""What each command's --help must name, besides --format, --mode where it has one, and --help."""


class TestHelp:
    @pytest.mark.parametrize("command", HELP_NAMES)
    def test_command_help_names_every_option_and_domain(self, runner, command):
        res = invoke(runner, command, "--help")
        assert (res.exit_code, res.stderr) == (0, "")
        names = HELP_NAMES[command] + ["--format [text|csv|json]", "[default: text]", "--help"]
        if command != "deriv-check":
            names.append("--mode [exact|float]")
        assert [name for name in names if name not in res.stdout] == []

    def test_group_help_gives_each_summary_in_full(self, runner):
        res = invoke(runner, "--help")
        assert (res.exit_code, res.stderr) == (0, "")
        rows = [line.split(None, 1) for line in res.stdout.splitlines()]
        for command in HELP_NAMES:
            # the first line of the command's own description, uncut
            summary = invoke(runner, command, "--help").stdout.splitlines()[2].strip()
            assert [command, summary] in rows
        assert "deriv-check  Term-wise derivative vs. the closed form of d/dt" in res.stdout


def test_closed_pipe_is_a_named_exit_2():
    # the reader takes 20 bytes and goes away: exit 2 with one named line, not exit 1 (a
    # failed check), a traceback or an "Exception ignored" note
    proc = subprocess.Popen([sys.executable, "-m", "gegenkit.cli", "table", "--lambda", "7/3",
                             "--order", "300"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert stderr == "Error: output could not be written: the reader closed the pipe\n"
