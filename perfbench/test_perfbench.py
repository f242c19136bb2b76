"""Tests of the benchmark itself: oracles, span wrappers, smoke run, missing sources.

Run from the repository root with ``python -m pytest perfbench``; the
repository's own test command collects only ``tests/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def test_explicit_rows_known_families():
    # Legendre P_2 = (3t^2 - 1)/2 and Chebyshev U_3 = 8t^3 - 4t.
    assert oracle.explicit_rows(Fraction(1, 2), 2)[2] == [Fraction(-1, 2), 0, Fraction(3, 2)]
    assert oracle.explicit_rows(Fraction(1), 3)[3] == [0, -4, 0, 8]


def test_rhs_row_is_a_binomial_for_integer_lambda():
    # (2 lam)_m / m! = C(2 lam + m - 1, m) when 2 lam is an integer.
    for lam in (1, 2, 5):
        row = oracle.identity_rhs_row(Fraction(lam), 30)
        assert row == [math.comb(2 * lam + m - 1, m) for m in range(31)]


def test_explicit_value_matches_rows_and_closed_form():
    lam = Fraction(7, 3)
    rows = oracle.explicit_rows(lam, 12)
    t = Fraction(-2, 5)
    for m, row in enumerate(rows):
        assert oracle.explicit_value(lam, m, t) == sum(c * t ** j for j, c in enumerate(row))
        assert oracle.explicit_value(lam, m, 1) == oracle.at_one(lam, m)


def test_chebyshev_value_at_high_degree():
    # U_m(cos phi) = sin((m+1) phi) / sin phi; at t = 1/2, U_400 = -1.
    assert oracle.explicit_value(1.0, 400, 0.5) == -1


def test_majorant_tail_direct_sum():
    # lam = 1/2: C_m(1) = 1, so the tail beyond N is r^(N+1) / (1 - r).
    assert math.isclose(oracle.majorant_tail(0.5, 10, 0.5), 0.5 ** 11 / 0.5, rel_tol=1e-14)


def test_tracer_restores_every_original():
    import gegenkit
    import gegenkit.gegenbauer
    import gegenkit.polynomials
    import gegenkit.series

    before = (gegenkit.sweep, gegenkit.series.compose_inner_polynomial,
              gegenkit.gegenbauer.compose_inner_polynomial,
              vars(gegenkit.polynomials.Polynomial)["evaluate"])
    tracer = Tracer()
    tracer.install()
    try:
        assert gegenkit.gegenbauer.compose_inner_polynomial is not before[2]
        gegenkit.table_via_composition(gegenkit.GegenbauerParams(Fraction(1, 2), 6))
        totals = tracer.layer_totals()
    finally:
        tracer.uninstall()
    after = (gegenkit.sweep, gegenkit.series.compose_inner_polynomial,
             gegenkit.gegenbauer.compose_inner_polynomial,
             vars(gegenkit.polynomials.Polynomial)["evaluate"])
    assert after == before
    assert totals["series"][0] > 0 and totals["gegenbauer"][0] > 0
    assert totals["identity"] == (0, 0.0)


def test_tally_counts_one_round_and_flags_a_changed_failed_set():
    from workloads import Op

    known = Op("known", lambda out: None if out else "wrong", may_fail=True)
    good = Op("good", lambda out: None)
    tally = run.Tally()
    tally.check_round([(known, False), (good, 1)])
    tally.check_round([(known, False), (good, 1)])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    tally.check_round([(known, True), (good, 1)])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False)


def test_peak_rss_is_the_childs_not_the_drivers():
    from workloads import WORKLOADS

    ballast = bytearray(150 * 1024 * 1024)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    del ballast
    peak = run.peak_rss_mb(WORKLOADS["exact-tables"](1, small=True))
    assert 5 < peak < 100


def test_smoke_run_is_correct(capsys):
    assert run.main(["--smoke"]) == 0
    out = capsys.readouterr().out
    assert "float-eval trace=0: correct=True" in out


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "float-eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_the_contract_keys(trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "exact-tables",
                           "--seed", "2", "--seconds", "0", "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in declared[kind]}
