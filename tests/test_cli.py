"""End-to-end CLI behavior: formats, exit codes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from gegenkit import identity
from gegenkit.cli import COMPOSITION_LIMIT, EXACT_M_MAX_LIMIT, M_MAX_LIMIT, ORDER_LIMIT, cli

from oracles import explicit_value, pochhammer


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
    def test_exact_output_is_the_same_under_any_cap(self, cap):
        # the interpreter's cap, lowered or lifted, never changes what is printed
        cmd = ["-m", "gegenkit.cli", "at-one", "--lambda", "108/29", "--degree", "3000"]
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

    `table` runs on both routes; composition is the default and has the lower ceiling.
    """
    def case(case_id, args, flag, limit, scope=""):
        return pytest.param([*args, flag, str(limit + excess)],
                            f"{flag} must be at most {limit}{scope}", id=case_id)

    return [
        case("table", ["table", "--lambda", "1"], "--order", COMPOSITION_LIMIT,
             " on the composition route"),
        case("table-recurrence", ["table", "--lambda", "1", "--route", "recurrence"], "--order",
             ORDER_LIMIT, " on the recurrence route"),
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
