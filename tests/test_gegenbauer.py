"""The three Gegenbauer routes, the t = 1 majorant, and the derivative check."""

import cmath
import copy
import math
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gegenkit import gegenbauer
from gegenkit.coefficients import gamma_ratio_coefficient, gamma_ratios
from gegenkit.fields import EXACT, FLOAT64, CoefficientField
from gegenkit.gegenbauer import (
    GegenbauerParams,
    GegenbauerTable,
    Route,
    derivative_interchange_check,
    majorant_tail,
    table_via_composition,
    table_via_recurrence,
    value_at_one,
    value_via_conjugate_product,
    value_via_recurrence,
)
from gegenkit.identity import sweep
from gegenkit.polynomials import Polynomial

from oracles import (chebyshev_u_value, derivative, explicit_coeff_lists, explicit_value,
                     gegenbauer_coeff_lists, pochhammer)
from test_identity import positive_rationals

LAMBDAS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3)]
# small, large and three-digit p and q: the bit sizes the exact routes reduce
WIDE_LAMBDAS = [Fraction(1, 199), Fraction(92, 29), Fraction(251, 185), Fraction(400, 3)]
MAJORANT = "majorant closed form (1 - r)^(-2 lam)"


def poly(coeffs):
    return Polynomial(tuple(Fraction(c) for c in coeffs))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GegenbauerParams(Fraction(0), 3)
        with pytest.raises(ValueError):
            GegenbauerParams(-1.0, 3)
        with pytest.raises(ValueError):
            GegenbauerParams(float("nan"), 3)
        with pytest.raises(ValueError):
            GegenbauerParams(Fraction(1), -1)
        with pytest.raises(TypeError):
            GegenbauerParams("1", 3)

    def test_mode_selection(self):
        assert GegenbauerParams(Fraction(1, 2), 4).exact is True
        assert GegenbauerParams(1, 4).exact is True  # ints promote to Fraction
        assert GegenbauerParams(0.5, 4).exact is False
        # the mode follows lam through `_replace`, whatever `exact` is given
        assert GegenbauerParams(Fraction(1, 2), 4)._replace(lam=0.5) == GegenbauerParams(0.5, 4)
        assert GegenbauerParams(0.5, 4)._replace(exact=True).exact is False

    def test_modes_compare_unequal(self):
        # Fraction(5, 2) == 2.5, but the two select different modes
        exact, approx = GegenbauerParams(Fraction(5, 2), 4), GegenbauerParams(2.5, 4)
        assert exact != approx and exact == GegenbauerParams(Fraction(5, 2), 4)
        assert table_via_recurrence(exact) != table_via_recurrence(approx)
        assert {exact, approx, GegenbauerParams(2.5, 4)} == {exact, approx}

    def test_tables_hash_as_set_members(self):
        tbl = table_via_recurrence(GegenbauerParams(Fraction(7, 3), 6))
        tbl2 = table_via_composition(GegenbauerParams(Fraction(7, 3), 6))
        assert {tbl, tbl2} == {tbl2, tbl} and len({tbl, tbl2}) == 2
        assert {tbl, tbl2, table_via_recurrence(GegenbauerParams(Fraction(7, 3), 6))} == {tbl, tbl2}

    def test_route_is_taken_as_a_route(self, row_builds):
        # a str route must build the rows it names and meet the checks the enum meets
        params = GegenbauerParams(Fraction(1, 2), 3)
        tbl = GegenbauerTable(params, "composition")
        assert tbl.route is Route.COMPOSITION and tbl == table_via_composition(params)
        assert row_builds == ["_composition_rows", "_composition_rows"]
        with pytest.raises(ValueError, match="'bogus' is not a valid Route"):
            GegenbauerTable(params, "bogus")
        with pytest.raises(ValueError, match="the composition route supports exact mode only"):
            GegenbauerTable(GegenbauerParams(0.5, 3), "composition")
        # `_replace` takes a str route the same way, and builds an exact table's rows
        del row_builds[:]
        other = tbl._replace(route="recurrence")
        assert other.route is Route.RECURRENCE and other == table_via_recurrence(params)
        assert row_builds == ["_exact_rows", "_exact_rows"]

    @pytest.mark.parametrize("call", [
        lambda: GegenbauerParams(2.5, True),
        lambda: table_via_recurrence(GegenbauerParams(Fraction(5, 2), 4)).evaluate(True, 0.5),
        lambda: table_via_recurrence(GegenbauerParams(2.5, 4)).evaluate(False, 0.5),
        lambda: value_via_recurrence(2.5, True, 0.5),
        lambda: value_via_recurrence(Fraction(5, 2), False, Fraction(1, 2)),
    ], ids=["params", "evaluate-exact", "evaluate-float", "value", "value-exact"])
    def test_bool_index_is_rejected(self, call):
        with pytest.raises(ValueError, match="must be a nonnegative integer"):
            call()

    @pytest.mark.parametrize("lam", [True, False, "1/2"])
    @pytest.mark.parametrize("call", [
        lambda lam: GegenbauerParams(lam, 3),
        lambda lam: sweep([lam], 3),
        lambda lam: value_at_one(lam, 3),
        lambda lam: majorant_tail(lam, 3, 0.5),
    ], ids=["params", "sweep", "at-one", "majorant"])
    def test_bool_lambda_is_rejected(self, call, lam):
        # a bool is an int to isinstance, but True must not run as lambda = 1; a literal
        # is parsed by `fields`, never taken as lambda as it stands
        with pytest.raises(TypeError, match=f"cannot coerce {type(lam).__name__} into the exact field"):
            call(lam)

    @pytest.mark.parametrize("point", [True, False], ids=["true", "false"])
    @pytest.mark.parametrize("call", [
        lambda x: value_via_recurrence(Fraction(5, 2), 3, x),
        lambda x: value_via_recurrence(2.5, 3, x),
        lambda x: table_via_recurrence(GegenbauerParams(Fraction(5, 2), 3)).evaluate(3, x),
        lambda x: table_via_recurrence(GegenbauerParams(2.5, 3)).evaluate(3, x),
        lambda x: value_via_conjugate_product(2.5, x, 3),
        lambda x: derivative_interchange_check(2.5, x, 0.5, 5),
        lambda x: derivative_interchange_check(2.5, 0.5, x, 5),
        lambda x: majorant_tail(2.5, 3, x),
        lambda x: majorant_tail(Fraction(1), 3, x),
    ], ids=["value-exact", "value-float", "evaluate-exact", "evaluate-float", "conjugate-phi",
            "deriv-t", "deriv-r", "majorant-r-float", "majorant-r-exact"])
    def test_bool_point_is_rejected(self, call, point):
        # True must not run as t = 1 (or phi, r = 1), nor False as 0
        with pytest.raises(TypeError, match="cannot coerce bool"):
            call(point)


_RECORDS = {
    "params": (lambda: GegenbauerParams(Fraction(7, 3), 5), "lam"),
    "params-exact": (lambda: GegenbauerParams(Fraction(7, 3), 5), "exact"),
    "table": (lambda: table_via_recurrence(GegenbauerParams(Fraction(7, 3), 5)), "route"),
    "conjugate": (lambda: value_via_conjugate_product(1.5, 0.7, 9), "value"),
    "derivative": (lambda: derivative_interchange_check(1.5, 0.5, 0.4, 12), "residual"),
    "identity": (lambda: sweep([Fraction(7, 3)], 4)[-1], "exact_equal"),
    "field": (lambda: EXACT, "coerce"),
}

_ROUND_TRIPS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}

_PICKLED = {
    "exact-params": lambda: GegenbauerParams(Fraction(7, 3), 5),
    "float-params": lambda: GegenbauerParams(2.5, 5),
    "exact-table": lambda: table_via_composition(GegenbauerParams(Fraction(7, 3), 5)),
    "float-table": lambda: table_via_recurrence(GegenbauerParams(2.5, 5)),
    "conjugate": lambda: value_via_conjugate_product(1.5, 0.7, 9),
    "sweep-report": lambda: sweep([Fraction(7, 3), 0.5], 4)[-1],
}

_REBUILDS = {
    "params-replace": (lambda: GegenbauerParams(Fraction(1, 2), 3)._replace(lam=-1.0),
                       "lambda must be positive"),
    "params-make": (lambda: GegenbauerParams._make((-1.0, 3, True)), "lambda must be positive"),
    "table-replace": (lambda: table_via_recurrence(GegenbauerParams(2.5, 4))._replace(
        route="composition"), "the composition route supports exact mode only"),
    "table-make": (lambda: GegenbauerTable._make((GegenbauerParams(2.5, 4), "composition")),
                   "the composition route supports exact mode only"),
}


class TestRecords:
    """Params, tables and reports are immutable values that survive pickle and copy."""

    @pytest.mark.parametrize("make, name", _RECORDS.values(), ids=_RECORDS.keys())
    def test_fields_cannot_be_assigned(self, make, name):
        record = make()
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before

    @pytest.mark.parametrize("trip", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS.keys())
    @pytest.mark.parametrize("make", _PICKLED.values(), ids=_PICKLED.keys())
    def test_round_trip_gives_an_equal_record(self, make, trip):
        record = make()
        clone = trip(record)
        assert clone == record and type(clone) is type(record)
        params = getattr(record, "params", record)
        if isinstance(params, GegenbauerParams):
            # the mode is derived again from lam, so a clone runs in the same mode
            assert getattr(clone, "params", clone).exact is params.exact
        if isinstance(record, GegenbauerTable):
            assert clone.polys == record.polys
            assert clone.evaluate(5, 0.25) == record.evaluate(5, 0.25)

    @pytest.mark.parametrize("rebuild, message", _REBUILDS.values(), ids=_REBUILDS.keys())
    def test_replace_and_make_run_the_constructor(self, rebuild, message):
        # a record rebuilt from fields must meet the checks its constructor makes
        with pytest.raises(ValueError) as exc:
            rebuild()
        assert str(exc.value) == message

    def test_params_repr_names_lambda_and_order_only(self):
        assert repr(GegenbauerParams(Fraction(7, 3), 5)) == "GegenbauerParams(lam=Fraction(7, 3), order=5)"
        assert repr(GegenbauerParams(2.5, 0)) == "GegenbauerParams(lam=2.5, order=0)"

    def test_fields_are_unequal(self):
        assert EXACT != FLOAT64
        assert CoefficientField._fields == ("coerce",)


class TestComposition:
    def test_chebyshev_u_start(self):
        tbl = table_via_composition(GegenbauerParams(Fraction(1), 2))
        assert tbl.route is Route.COMPOSITION
        assert list(tbl.polys) == [poly([1]), poly([0, 2]), poly([-1, 0, 4])]

    def test_legendre_start(self):
        tbl = table_via_composition(GegenbauerParams(Fraction(1, 2), 2))
        assert list(tbl.polys) == [poly([1]), poly([0, 1]), poly([Fraction(-1, 2), 0, Fraction(3, 2)])]

    def test_order_zero_constant(self):
        for lam in LAMBDAS:
            tbl = table_via_composition(GegenbauerParams(lam, 0))
            assert list(tbl.polys) == [poly([1])]

    def test_float_mode_rejected(self):
        with pytest.raises(ValueError):
            table_via_composition(GegenbauerParams(0.5, 3))

    def test_against_bivariate_oracle(self):
        for lam in [Fraction(1), Fraction(1, 2), Fraction(7, 3)]:
            tbl = table_via_composition(GegenbauerParams(lam, 8))
            want = gegenbauer_coeff_lists(lam, 8)
            for m in range(9):
                assert list(tbl.polys[m].coeffs) == want[m]

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for lam in [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3)]:
            tbl = table_via_composition(GegenbauerParams(lam, 10))
            for m in range(11):
                ref = sympy.expand(sympy.gegenbauer(m, sympy.Rational(lam.numerator, lam.denominator), t))
                got = tbl.polys[m]
                for j in range(m + 1):
                    assert Fraction(str(ref.coeff(t, j))) == (
                        got.coeffs[j] if j < len(got.coeffs) else Fraction(0)
                    )


class TestRecurrence:
    def test_chebyshev_u3(self):
        tbl = table_via_recurrence(GegenbauerParams(Fraction(1), 3))
        assert tbl.polys[3] == poly([0, -4, 0, 8])

    def test_legendre_p2(self):
        tbl = table_via_recurrence(GegenbauerParams(Fraction(1, 2), 2))
        assert tbl.polys[2] == poly([Fraction(-1, 2), 0, Fraction(3, 2)])

    def test_order_zero(self):
        tbl = table_via_recurrence(GegenbauerParams(Fraction(5, 4), 0))
        assert list(tbl.polys) == [poly([1])]

    def test_float_mode_supported(self):
        tbl = table_via_recurrence(GegenbauerParams(0.5, 6))
        assert tbl.params.exact is False
        assert isinstance(tbl.polys[3].coeffs[1], float)

    def test_float_coeffs_match_exact_within_1e12(self):
        for lam in [Fraction(1, 2), Fraction(5, 2)]:
            exact_tbl = table_via_recurrence(GegenbauerParams(lam, 25))
            float_tbl = table_via_recurrence(GegenbauerParams(float(lam), 25))
            for pe, pf in zip(exact_tbl.polys, float_tbl.polys):
                for ce, cf in zip(pe.coeffs, pf.coeffs):
                    assert math.isclose(cf, float(ce), rel_tol=1e-12, abs_tol=1e-300)


def generic_float_recurrence(lam: float, n: int) -> list:
    """The field-generic recurrence loop, step for step, with the float field inlined."""
    rows = [[1.0]]
    if n >= 1:
        rows.append([0.0, 2 * lam])
    for m in range(2, n + 1):
        a = float(2 * (m + lam - 1) / m)
        b = float((m + 2 * lam - 2) / m)
        coeffs = [0.0] + [a * c for c in rows[m - 1]]
        for j, c in enumerate(rows[m - 2]):
            coeffs[j] = coeffs[j] - b * c
        rows.append(coeffs)
    return rows


def assert_recurrence_rows_reduced(lam: Fraction, n: int):
    """The exact recurrence table holds E_m[j] / s_m of `_exact_rows`, each reduced on its own,
    entry for entry, type for type and in lowest terms."""
    rows = islice(gegenbauer._exact_rows(lam.numerator, lam.denominator), n + 1)
    want = [[Fraction(c, s) if c else Fraction(0) for c in row] for row, s in rows]
    got = [list(p.coeffs) for p in table_via_recurrence(GegenbauerParams(lam, n)).polys]
    assert [[(type(c), c.numerator, c.denominator) for c in row] for row in got] == [
        [(type(c), c.numerator, c.denominator) for c in row] for row in want]


def corrupt_exact_row(monkeypatch, m: int, change):
    """Makes `gegenbauer._exact_rows` yield `change(row, s)` in place of its row m."""
    rows = gegenbauer._exact_rows

    def corrupted(p, q):
        for j, (row, s) in enumerate(rows(p, q)):
            yield change(list(row), s) if j == m else (row, s)

    monkeypatch.setattr(gegenbauer, "_exact_rows", corrupted)


class TestRecurrenceKernels:
    """The exact branch runs in integers on rows E_m / s_m at the scale q^m m!; the float branch is
    the generic loop restricted to the entries of the parity of m, and keeps its bits."""

    @settings(max_examples=40, deadline=None)
    @given(positive_rationals, st.integers(min_value=0, max_value=40))
    def test_exact_against_bivariate_oracle(self, lam, n):
        tbl = table_via_recurrence(GegenbauerParams(lam, n))
        assert [list(p.coeffs) for p in tbl.polys] == gegenbauer_coeff_lists(lam, n)
        assert all(type(c) is Fraction for p in tbl.polys for c in p.coeffs)

    @pytest.mark.parametrize("lam", [3, Fraction(1, 4), Fraction(5, 2)])
    def test_integer_and_even_denominator_lambdas(self, lam):
        tbl = table_via_recurrence(GegenbauerParams(lam, 30))
        assert [list(p.coeffs) for p in tbl.polys] == gegenbauer_coeff_lists(Fraction(lam), 30)

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(17, 7), *WIDE_LAMBDAS], ids=str)
    def test_exact_rows_are_at_the_fixed_scale(self, lam):
        # C_m = E_m / s_m with s_m = q^m m!, the scale of the exact `value_via_recurrence` too;
        # the explicit sum is the oracle, which is far quicker at m = 120 than the bivariate one
        rows = islice(gegenbauer._exact_rows(lam.numerator, lam.denominator), 121)
        want = explicit_coeff_lists(lam, 120)
        for m, (row, s) in enumerate(rows):
            assert s == lam.denominator**m * math.factorial(m)
            assert row == [s * c for c in want[m]]

    @settings(max_examples=25, deadline=None)
    @given(st.builds(Fraction, st.integers(1, 999), st.integers(1, 999)),
           st.integers(min_value=0, max_value=200))
    def test_rows_are_the_recurrence_rows_reduced(self, lam, n):
        assert_recurrence_rows_reduced(lam, n)

    # 1/2: q = 2 divides every A = q (k+2)(k+1) and every B, so each ratio A / B is reducible
    @pytest.mark.parametrize("lam, n", [(Fraction(3), 200), (Fraction(1, 1000), 200),
                                        (Fraction(251, 185), 400), (Fraction(1, 2), 400)],
                             ids=str)
    def test_rows_are_the_recurrence_rows_reduced_at(self, lam, n):
        assert_recurrence_rows_reduced(lam, n)

    @pytest.mark.parametrize("n, d", [(1, 1), (-1, 1), (3, 7), (-22, 15), (2**89 - 1, 3**40),
                                      (-(5**50), 2**70)], ids=str)
    def test_coprime_is_the_reduced_fraction(self, n, d):
        # whichever constructor this interpreter has, it builds the Fraction n / d as it stands
        got = gegenbauer._coprime(n, d)
        assert type(got) is Fraction and (got.numerator, got.denominator) == (n, d)
        assert got == Fraction(n, d) and hash(got) == hash(Fraction(n, d))

    @pytest.mark.parametrize("k", [9, 7, 1])
    def test_entry_off_by_one_is_named(self, monkeypatch, k):
        # the leading entry fails the scale check, every other one the Gegenbauer equation
        corrupt_exact_row(monkeypatch, 9, lambda row, s: ([*row[:k], row[k] + 1, *row[k + 1:]], s))
        with pytest.raises(ArithmeticError, match=rf"row 9\b.*\bt\^{k}\b"):
            table_via_recurrence(GegenbauerParams(Fraction(17, 7), 12))

    @pytest.mark.parametrize("m", [0, 1, 9])
    def test_doubled_denominator_fails_the_scale_check(self, monkeypatch, m):
        # every ratio E[k+2] / E[k] is unchanged, so only the leading coefficient can tell
        corrupt_exact_row(monkeypatch, m, lambda row, s: (row, 2 * s))
        with pytest.raises(ArithmeticError, match=rf"row {m}: leading coefficient of t\^{m}\b"):
            table_via_recurrence(GegenbauerParams(Fraction(17, 7), 12))

    def test_row_at_another_scale_is_the_same_row(self, monkeypatch):
        # the certificate reads the values E_m / s_m, not their representation
        want = table_via_recurrence(GegenbauerParams(Fraction(17, 7), 12)).polys
        corrupt_exact_row(monkeypatch, 9, lambda row, s: ([3 * x for x in row], 3 * s))
        got = table_via_recurrence(GegenbauerParams(Fraction(17, 7), 12)).polys
        assert [[(type(c), c.numerator, c.denominator) for c in p.coeffs] for p in got] == [
            [(type(c), c.numerator, c.denominator) for c in p.coeffs] for p in want]

    def test_exact_equals_composition_at_high_degree(self):
        # 251/185: a three-digit denominator, so C(-lam, j) has wide denominators
        for lam, n in ((Fraction(17, 7), 120), (Fraction(251, 185), 200),
                       (Fraction(251, 185), 400)):
            params = GegenbauerParams(lam, n)
            assert table_via_recurrence(params).polys == table_via_composition(params).polys

    @pytest.mark.parametrize("lam", [0.75, 2.5, 7.0, 1e-3, 1e300])
    def test_float_is_bit_identical_to_generic_loop(self, lam):
        tbl = table_via_recurrence(GegenbauerParams(lam, 400))
        want = generic_float_recurrence(lam, 400)
        assert [[c.hex() for c in p.coeffs] for p in tbl.polys] == [
            [c.hex() for c in row] for row in want
        ]


@pytest.fixture
def row_builds(monkeypatch):
    """Records the name of each call of a row builder: `gegenbauer._float_rows` (float
    recurrence), `_exact_rows` (exact recurrence) and `_composition_rows`."""
    calls = []

    def counting(name, build):
        def wrapper(*args):
            calls.append(name)
            return build(*args)
        return wrapper

    for name in ("_float_rows", "_exact_rows", "_composition_rows"):
        monkeypatch.setattr(gegenbauer, name, counting(name, getattr(gegenbauer, name)))
    return calls


class TestDeferredRows:
    """A float recurrence table builds its rows on the first read of `polys`; an exact
    table builds them with the table, because its `evaluate` runs Horner over them."""

    def test_float_evaluate_builds_no_rows(self, row_builds):
        tbl = table_via_recurrence(GegenbauerParams(2.5, 400))
        for t in (-0.9, 0.5, 1.0):
            assert tbl.evaluate(400, t) == value_via_recurrence(2.5, 400, t)
        assert row_builds == []

    def test_float_rows_are_built_once_on_first_read(self, row_builds):
        tbl = table_via_recurrence(GegenbauerParams(2.5, 40))
        assert row_builds == []
        rows = tbl.polys
        assert len(row_builds) == 1 and len(rows) == 41
        assert tbl.polys is rows and len(row_builds) == 1

    def test_exact_rows_are_built_with_the_table(self, row_builds):
        tbl = table_via_recurrence(GegenbauerParams(Fraction(3, 2), 40))
        assert row_builds == ["_exact_rows"]
        assert tbl.evaluate(40, Fraction(1, 3)) == value_via_recurrence(Fraction(3, 2), 40,
                                                                         Fraction(1, 3))
        assert len(tbl.polys) == 41 and row_builds == ["_exact_rows"]

    def test_composition_rows_are_built_with_the_table(self, row_builds):
        tbl = table_via_composition(GegenbauerParams(Fraction(3, 2), 40))
        assert row_builds == ["_composition_rows"]
        assert tbl.evaluate(40, Fraction(1, 3)) == value_via_recurrence(Fraction(3, 2), 40,
                                                                         Fraction(1, 3))
        assert len(tbl.polys) == 41 and row_builds == ["_composition_rows"]

    def test_concurrent_first_reads_agree(self):
        # cached_property takes no lock from Python 3.12 on: threads may each build the rows
        tbl = table_via_recurrence(GegenbauerParams(2.5, 120))
        seen = []
        threads = [threading.Thread(target=lambda: seen.append(tbl.polys)) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and len(seen) == 4
        want = [[c.hex() for c in row] for row in generic_float_recurrence(2.5, 120)]
        for rows in seen + [tbl.polys]:
            assert [[c.hex() for c in p.coeffs] for p in rows] == want

    @pytest.mark.parametrize("trip", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS.keys())
    def test_copies_build_no_rows(self, row_builds, trip):
        exact = table_via_composition(GegenbauerParams(Fraction(7, 3), 40))
        unread = table_via_recurrence(GegenbauerParams(2.5, 40))
        del row_builds[:]
        exact_clone, unread_clone = trip(exact), trip(unread)
        assert row_builds == []
        assert exact_clone.polys == exact.polys and row_builds == []
        assert unread_clone.polys == unread.polys and row_builds == ["_float_rows"] * 2

    def test_float_equality_builds_no_rows(self, row_builds):
        params = GegenbauerParams(2.5, 400)
        assert table_via_recurrence(params) == table_via_recurrence(params)
        assert table_via_recurrence(params) != table_via_recurrence(GegenbauerParams(2.5, 399))
        assert hash(table_via_recurrence(params)) == hash(table_via_recurrence(params))
        assert row_builds == []

    def test_equality_compares_params_route_and_rows(self):
        for lam in (Fraction(7, 3), 7 / 3):
            params = GegenbauerParams(lam, 12)
            assert table_via_recurrence(params) == table_via_recurrence(params)
            assert table_via_recurrence(params) != table_via_recurrence(GegenbauerParams(lam, 11))
        exact = GegenbauerParams(Fraction(7, 3), 12)
        assert table_via_recurrence(exact) != table_via_composition(exact)
        assert table_via_recurrence(exact).polys == table_via_composition(exact).polys


class TestRouteAgreement:
    def test_composition_equals_recurrence(self):
        for lam in LAMBDAS:
            params = GegenbauerParams(lam, 25)
            assert table_via_composition(params).polys == table_via_recurrence(params).polys

    @pytest.mark.parametrize("lam", WIDE_LAMBDAS, ids=str)
    @pytest.mark.parametrize("build", [table_via_recurrence, table_via_composition])
    def test_exact_routes_equal_explicit_sum(self, build, lam):
        tbl = build(GegenbauerParams(lam, 120))
        assert [list(p.coeffs) for p in tbl.polys] == explicit_coeff_lists(lam, 120)
        assert all(type(c) is Fraction for p in tbl.polys for c in p.coeffs)


@pytest.fixture(scope="module")
def tables():
    return {lam: table_via_composition(GegenbauerParams(lam, 20)) for lam in LAMBDAS}


_LEADING = {
    **{f"{build.__name__.removeprefix('table_via_')}-{lam}": (build, lam, 20)
       for build in (table_via_composition, table_via_recurrence) for lam in LAMBDAS},
    **{f"float-{lam}": (table_via_recurrence, lam, 200) for lam in (5e-324, 1e-3, 2.5, 1e300)},
}


class TestTableInvariants:

    @pytest.mark.parametrize("build, lam, n", _LEADING.values(), ids=_LEADING.keys())
    def test_degree_and_leading_coefficient(self, build, lam, n):
        # C_m has degree m, and its leading coefficient is a_m >= 1 times the one before, so
        # it never rounds to 0.0 (at lam = 1e300 it overflows to inf): no row ends in a zero
        tbl = build(GegenbauerParams(lam, n))
        for m, p in enumerate(tbl.polys):
            assert len(p.coeffs) == m + 1 and p.coeffs[-1] != 0
            if tbl.params.exact:
                assert p.coeffs[-1] == 2 ** m * pochhammer(lam, m) / math.factorial(m)

    def test_parity_structure(self, tables):
        for tbl in tables.values():
            for m, p in enumerate(tbl.polys):
                for j, c in enumerate(p.coeffs):
                    if (j - m) % 2 != 0:
                        assert c == 0

    def test_parity_of_values(self, tables):
        rng = random.Random(5)
        for tbl in tables.values():
            for _ in range(40):
                m = rng.randint(0, 20)
                t = Fraction(rng.randint(-12, 12), 12)
                assert tbl.evaluate(m, -t) == (-1) ** m * tbl.evaluate(m, t)

    def test_boundedness_on_grid(self, tables):
        for lam, tbl in tables.items():
            peaks = [value_at_one(lam, m) for m in range(21)]
            for k in range(101):
                t = Fraction(-1) + Fraction(k, 50)
                for m in range(21):
                    assert abs(tbl.evaluate(m, t)) <= peaks[m]


class TestEvaluate:
    def test_examples(self):
        tbl = table_via_composition(GegenbauerParams(Fraction(1), 2))
        assert tbl.evaluate(2, 1) == 3
        assert tbl.evaluate(0, Fraction(123, 7)) == 1
        half = table_via_composition(GegenbauerParams(Fraction(1, 2), 2))
        assert half.evaluate(2, 0) == Fraction(-1, 2)

    def test_out_of_range(self):
        tbl = table_via_composition(GegenbauerParams(Fraction(1), 2))
        with pytest.raises(ValueError):
            tbl.evaluate(3, 0)
        with pytest.raises(ValueError):
            tbl.evaluate(-1, 0)
        # both fields name a bad index the same way, before the range check
        for lam in (Fraction(3, 2), 1.5):
            tbl = table_via_recurrence(GegenbauerParams(lam, 4))
            for m in (2.0, -1, "2"):
                with pytest.raises(ValueError, match="m must be a nonnegative integer"):
                    tbl.evaluate(m, Fraction(1, 2))
            with pytest.raises(ValueError, match=r"degree 5 outside table range 0\.\.4"):
                tbl.evaluate(5, Fraction(1, 2))

    def test_eq3_consistency_at_one(self):
        for lam in LAMBDAS:
            tbl = table_via_composition(GegenbauerParams(lam, 20))
            for m in range(21):
                assert tbl.evaluate(m, 1) == value_at_one(lam, m)

    def test_lambda_one_matches_trig_oracle(self):
        tbl = table_via_composition(GegenbauerParams(Fraction(1), 30))
        for k in range(1, 24):
            theta = k * math.pi / 24
            t = math.cos(theta)
            for m in (0, 7, 18, 30):
                got = float(tbl.evaluate(m, t))
                want = chebyshev_u_value(m, theta)
                assert abs(got - want) <= 1e-9 * (1 + abs(want))


class TestValueViaRecurrence:
    """C_m(t) from the recurrence on values at t: exact in integers, float in float."""

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(7, 3), Fraction(108, 29), 3])
    def test_exact_equals_horner_and_explicit_sum(self, lam):
        tbl = table_via_composition(GegenbauerParams(lam, 40))
        for t in (Fraction(0), Fraction(1), Fraction(-2, 7), Fraction(7, 13), Fraction(3)):
            for m in (0, 1, 2, 17, 40):
                got = value_via_recurrence(lam, m, t)
                assert type(got) is Fraction
                assert got == tbl.evaluate(m, t) == explicit_value(Fraction(lam), m, t)

    def test_float_matches_exact_to_degree_1000(self):
        # measured worst: 1e-14 * C_m(1); the bound leaves a factor of 10
        for lam in (0.5, 1.0, 2.5, 7.0):
            for t in (-0.99, -0.8, -0.3, 0.0, 0.5, 0.9, 0.99):
                for m in (10, 100, 400, 1000):
                    want = value_via_recurrence(Fraction(lam), m, Fraction(t))
                    got = value_via_recurrence(lam, m, t)
                    assert type(got) is float
                    assert abs(got - float(want)) <= 1e-13 * value_at_one(lam, m)

    def test_float_table_evaluates_in_value_space(self):
        tbl = table_via_recurrence(GegenbauerParams(1.0, 400))
        for m in (100, 200, 400):
            assert tbl.evaluate(m, 0.5) == value_via_recurrence(1.0, m, 0.5)
        assert (tbl.evaluate(100, 0.5), tbl.evaluate(200, 0.5)) == (-1.0, 0.0)

    def test_mode_follows_lambda(self):
        assert value_via_recurrence(1, 2, 0.5) == Fraction(0)  # t taken exactly
        assert value_via_recurrence(1.0, 2, Fraction(1, 3)) == pytest.approx(-5 / 9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            value_via_recurrence(0.0, 3, 0.5)
        with pytest.raises(ValueError):
            value_via_recurrence(1.0, -1, 0.5)
        with pytest.raises(ValueError):
            value_via_recurrence(Fraction(1), 3, math.inf)

    @pytest.mark.parametrize("lam", [1.5, Fraction(3, 2)])
    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_is_named(self, lam, m, t):
        with pytest.raises(ValueError, match="^t must be finite"):
            value_via_recurrence(lam, m, t)


class TestValueAtOne:
    def test_examples(self):
        assert value_at_one(Fraction(1), 3) == 4
        assert value_at_one(Fraction(9, 7), 0) == 1
        assert value_at_one(Fraction(1, 2), 2) == 1

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            value_at_one(Fraction(0), 2)


class TestConjugateProduct:
    """The conjugate-pair convolution is real up to rounding.

    Float rounding in the convolution scales with the sum of term moduli
    (the value at phi = 0, which is C_m(1)), not with the real part left
    after phase cancellation; the cancellation ratio grows like m^lam, so a
    bound relative to the real part is only achievable for small lam.
    """

    def test_imag_at_rounding_scale_everywhere(self):
        rng = random.Random(314)
        for _ in range(25):
            lam = rng.uniform(0.05, 10.0)
            n = rng.randint(0, 50)
            phi = rng.uniform(0.0, math.pi)
            for m in range(n + 1):
                got = value_via_conjugate_product(lam, phi, m)
                assert got.imag_residue <= 1e-12 * (1 + value_at_one(lam, m))

    def test_imag_small_relative_to_real_part_for_small_lam(self):
        rng = random.Random(2718)
        for _ in range(40):
            lam = rng.uniform(0.05, 2.5)
            n = rng.randint(0, 50)
            phi = rng.uniform(0.0, math.pi)
            for m in range(n + 1):
                got = value_via_conjugate_product(lam, phi, m)
                assert got.imag_residue <= 1e-12 * (1 + abs(got.value))

    def test_phi_zero_is_positive_sum(self):
        for lam in (0.5, 1.0, 2.25):
            for m in (0, 1, 5, 12):
                got = value_via_conjugate_product(lam, 0.0, m)
                want = sum(
                    gamma_ratio_coefficient(lam, k) * gamma_ratio_coefficient(lam, m - k)
                    for k in range(m + 1)
                )
                assert math.isclose(got.value, want, rel_tol=1e-12)
                assert got.within_tolerance

    def test_odd_degree_vanishes_at_right_angle(self):
        for lam in (0.5, 1.0, 3.5):
            got = value_via_conjugate_product(lam, math.pi / 2, 1)
            assert abs(got.value) <= 1e-12

    def test_chebyshev_zero_at_pi_third(self):
        got = value_via_conjugate_product(1.0, math.pi / 3, 2)
        assert abs(got.value) <= 1e-10

    def test_accepts_exact_lambda(self):
        got = value_via_conjugate_product(Fraction(3, 2), 0.7, 4)
        assert got.within_tolerance

    def test_flagging_contract(self):
        # flagged when |imag| > 1e-10 (1 + |real|): here 1.0e-2 against 1e-10 (1 + 2.2e7)
        flagged = value_via_conjugate_product(8.0, math.pi / 3, 60)
        assert 5e-3 < flagged.imag_residue < 2e-2
        assert abs(flagged.value) > 2e7
        assert not flagged.within_tolerance
        passed = value_via_conjugate_product(1.7, 0.9, 7)
        assert passed.imag_residue <= 1e-10 * (1 + abs(passed.value))
        assert passed.within_tolerance

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            value_via_conjugate_product(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            value_via_conjugate_product(1.0, 1.0, -3)

    @pytest.mark.parametrize("m", [0, 3])
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_is_named(self, m, phi):
        with pytest.raises(ValueError, match="^phi must be finite"):
            value_via_conjugate_product(1.5, phi, m)

    def test_non_finite_sum_raises_overflow(self):
        # (300)_k / k! overflows to inf at k = 1022, and the sum then holds inf - inf
        with pytest.raises(OverflowError):
            value_via_conjugate_product(300.0, 0.1, 2000)

    def test_bits_match_a_cmath_exp_reference(self):
        # each phase e^{i x}, x = (2k - m) phi, as cmath.exp gives it: the same doubles
        rng = random.Random(2025)
        for _ in range(60):
            lam, phi, m = rng.uniform(0.01, 9.0), rng.uniform(-7.0, 7.0), rng.randint(0, 400)
            a = gamma_ratios(lam, m)
            total = complex(0.0)
            for k in range(m + 1):
                total += a[k] * a[m - k] * cmath.exp(1j * ((2 * k - m) * phi))
            got = value_via_conjugate_product(lam, phi, m)
            assert got.value.hex() == total.real.hex()
            assert got.imag_residue.hex() == abs(total.imag).hex()

    def test_agreement_with_exact_evaluation(self):
        for lam in LAMBDAS:
            tbl = table_via_composition(GegenbauerParams(lam, 12))
            for k in range(25):
                phi = k * math.pi / 24
                t = math.cos(phi)
                for m in (0, 3, 8, 12):
                    want = float(tbl.evaluate(m, t))
                    got = value_via_conjugate_product(float(lam), phi, m)
                    assert abs(got.value - want) <= 1e-9 * (1 + abs(want))
                    assert got.imag_residue <= 1e-10 * (1 + abs(got.value))


class TestMajorantTail:
    def test_exact_examples(self):
        assert majorant_tail(Fraction(1), 0, Fraction(1, 2)) == 3
        assert majorant_tail(Fraction(1), 10, Fraction(1, 2)) == Fraction(13, 1024)

    def test_float_path_matches_exact(self):
        exact = majorant_tail(Fraction(1), 10, Fraction(1, 2))
        approx = majorant_tail(1.0, 10, 0.5)
        assert math.isclose(approx, float(exact), rel_tol=1e-12)

    def test_half_integer_two_lambda_goes_float(self):
        out = majorant_tail(Fraction(7, 3), 5, Fraction(1, 4))
        assert isinstance(out, float)
        assert out >= 0.0

    def test_nonnegative(self):
        rng = random.Random(11)
        for _ in range(100):
            lam = rng.uniform(0.05, 5.0)
            n = rng.randint(0, 60)
            r = rng.uniform(0.01, 0.99)
            assert majorant_tail(lam, n, r) >= 0.0

    def test_float_overflow_is_named(self):
        # (1 - 0.9)^(-800) is about 1e800
        with pytest.raises(OverflowError) as exc:
            majorant_tail(400.0, 5, 0.9)
        assert str(exc.value) == f"{MAJORANT} is not finite"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the float remainder is the closed form less the partial sum, "
                              "accurate only to about u (1-r)^(-2 lam) absolute")
    def test_float_tail_is_not_below_the_exact_tail(self):
        # the float gives 0.0 against 6.90e-60, and 1.82673876025774e-10 against 1.8267552e-10
        cases = [(1, 60, 0.1), (3, 20, 0.2)]
        assert [(lam, order, r) for lam, order, r in cases if majorant_tail(float(lam), order, r)
                < majorant_tail(Fraction(lam), order, Fraction(r))] == []

    def test_overflowing_partial_sum_is_inf(self):
        # (600)_k / k! overflows at k = 440, where 0.5^k is still 1e-133; the true tail is 1.05e178
        assert majorant_tail(300.0, 700, 0.5) == math.inf

    def test_underflowed_power_ends_the_sum(self):
        # 0.01^k underflows to 0 at k = 162, while (600)_k / k! overflows only at k = 440
        tail = majorant_tail(300.0, 2000, 0.01)
        assert math.isfinite(tail) and tail.hex() == majorant_tail(300.0, 200, 0.01).hex()

    @pytest.mark.parametrize("bad_r", [0.0, 1.0, -0.5, 1.5, Fraction(0), Fraction(1)])
    def test_r_domain(self, bad_r):
        with pytest.raises(ValueError):
            majorant_tail(Fraction(1), 3, bad_r)

    def test_r_is_coerced_before_its_range_check(self):
        # r goes through the field's coercion: a str is refused by it, and an exact r
        # that rounds to 1.0 on the float path is out of range, not a division by zero
        with pytest.raises(TypeError, match="cannot coerce str"):
            majorant_tail(Fraction(1), 3, "1/2")
        with pytest.raises(ValueError, match="r must lie strictly between 0 and 1"):
            majorant_tail(1.0, 3, Fraction(10**20 - 1, 10**20))

    def test_tail_bounds_partial_sums(self):
        """|sum_{m<=M} C_m(t) r^m - closed form| <= majorant_tail(lam, M, r) + 1e-12.

        Float-mode sampling stays where sums are of modest magnitude: at
        lam = 2, r = 0.9 the quantities reach ~1e4 and plain float rounding
        alone exceeds the absolute 1e-12 slack (the acceptance suite covers
        that corner with exact arithmetic).
        """
        grids = {0.5: (0.3, 0.5, 0.9), 1.0: (0.3, 0.5, 0.9), 2.0: (0.3, 0.5)}
        for lam, r_grid in grids.items():
            for r in r_grid:
                for M in (5, 10, 20):
                    tbl = table_via_recurrence(GegenbauerParams(lam, M))
                    bound = majorant_tail(lam, M, r) + 1e-12
                    for t in (-1.0, -0.4, 0.0, 0.7, 1.0):
                        closed = (1.0 - 2.0 * r * t + r * r) ** (-lam)
                        partial, power = 0.0, 1.0
                        for m in range(M + 1):
                            partial += tbl.evaluate(m, t) * power
                            power *= r
                        assert abs(partial - closed) <= bound


class TestDerivativeFamilyRelation:
    def test_term_derivative_is_shifted_higher_family(self):
        """d/dt C_m(t; lam) == 2 lam C_{m-1}(t; lam+1), exactly over the rationals."""
        for lam in LAMBDAS:
            base = table_via_composition(GegenbauerParams(lam, 20))
            lifted = table_via_composition(GegenbauerParams(lam + 1, 19))
            for m in range(1, 21):
                want = [2 * lam * c for c in lifted.polys[m - 1].coeffs]
                assert derivative(base.polys[m].coeffs) == want


class TestDerivativeInterchange:
    def test_r_zero_trivial(self):
        for r in (0.0, -0.0):
            rep = derivative_interchange_check(1.0, 0.3, r, 25)
            assert rep.closed_form == rep.partial_sum == rep.residual == rep.tail_budget == 0.0
            # a negative zero must not leak into the printed figures
            for x in (rep.closed_form, rep.partial_sum, rep.residual, rep.tail_budget):
                assert math.copysign(1.0, x) == 1.0

    def test_tail_budget_is_the_lifted_majorant_remainder(self):
        # 2 lam r times the lam + 1 majorant remainder after order - 1, to the bit; at
        # order 0 nothing is subtracted, so the budget is 2 lam r (1 - r)^(-2 (lam + 1))
        for lam in (0.5, 1.0, 2.5):
            for t in (-1.0, 0.3, 1.0):
                for r in (0.01, 0.4, 0.9):
                    for order in (0, 1, 7, 40):
                        rep = derivative_interchange_check(lam, t, r, order)
                        tail = (majorant_tail(lam + 1.0, order - 1, r) if order
                                else (1.0 - r) ** (-2.0 * (lam + 1.0)))
                        assert rep.tail_budget.hex() == (2.0 * lam * r * tail).hex()

    def test_closed_form_value_at_one(self):
        rep = derivative_interchange_check(1.0, 1.0, 0.5, 60)
        assert rep.closed_form == 16.0
        assert rep.residual <= 1e-8

    def test_regression_baseline_t_zero(self):
        rep = derivative_interchange_check(1.0, 0.0, 0.5, 40)
        assert rep.residual <= 1e-8
        # achieved residual recorded as the regression baseline
        assert rep.residual <= 1e-10

    def test_residual_within_tail_budget(self):
        # At t = +-1 the term-wise derivatives ARE the lam+1 family at full
        # magnitude, so the true residual equals the budget with zero margin;
        # the slack only has to cover partial-sum rounding, which scales with
        # the closed form.
        for lam in (0.5, 1.0, 2.0):
            for t in (-1.0, 0.0, 0.5, 1.0):
                for r in (0.3, 0.5):
                    rep = derivative_interchange_check(lam, t, r, 45)
                    slack = 1e-10 * (1.0 + abs(rep.closed_form))
                    assert rep.residual <= rep.tail_budget + slack

    def test_underflowed_power_ends_the_partial_sum(self):
        # the lam + 1 values overflow after r^k has underflowed to 0; inf * 0 would be nan
        rep = derivative_interchange_check(300.0, 0.5, 0.01, 2000)
        assert rep.residual <= 1e-10 and rep.residual <= rep.tail_budget
        assert rep.partial_sum == derivative_interchange_check(300.0, 0.5, 0.01, 200).partial_sum

    @pytest.mark.parametrize("t, order, form", [
        (0.99, 4, "closed form (1 - 2rt + r^2)^(-lam-1)"),  # 0.0199^(-301)
        (0.5, 0, MAJORANT),  # order 0: the budget is the whole majorant at lam + 1
        (0.5, 10, MAJORANT),
    ])
    def test_float_overflow_is_named(self, t, order, form):
        with pytest.raises(OverflowError) as exc:
            derivative_interchange_check(300.0, t, 0.99, order)
        assert str(exc.value) == f"{form} is not finite"

    def test_base_rounded_to_zero_is_a_named_overflow(self):
        # 1 - 2rt + r^2 rounds to 0.0 at t = 1, r = 1 - 1e-9, and 0.0 ** -2 raises ZeroDivisionError
        with pytest.raises(OverflowError) as exc:
            derivative_interchange_check(1.0, 1.0, 0.999999999, 5)
        assert str(exc.value) == "closed form (1 - 2rt + r^2)^(-lam-1) is not finite"

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            derivative_interchange_check(1.0, 1.5, 0.5, 10)
        with pytest.raises(ValueError):
            derivative_interchange_check(1.0, 0.0, 1.0, 10)
        with pytest.raises(ValueError):
            derivative_interchange_check(1.0, 0.0, -0.1, 10)
        with pytest.raises(ValueError):
            derivative_interchange_check(0.0, 0.0, 0.5, 10)


class TestDeterminism:
    def test_float_routes_are_bit_reproducible(self):
        a = table_via_recurrence(GegenbauerParams(0.75, 30))
        b = table_via_recurrence(GegenbauerParams(0.75, 30))
        assert a.polys == b.polys
        x = value_via_conjugate_product(1.25, 0.7, 20)
        y = value_via_conjugate_product(1.25, 0.7, 20)
        assert x == y
        r1 = derivative_interchange_check(1.5, 0.25, 0.5, 35)
        r2 = derivative_interchange_check(1.5, 0.25, 0.5, 35)
        assert r1 == r2
