"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Grids and tolerances are pinned here; nothing is deferred
to later calibration.
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache

from gegenkit.coefficients import gamma_ratio_coefficient
from gegenkit.fields import EXACT
from gegenkit.gegenbauer import (
    GegenbauerParams,
    derivative_interchange_check,
    majorant_tail,
    table_via_composition,
    table_via_recurrence,
    value_at_one,
    value_via_conjugate_product,
)
from gegenkit.identity import identity_lhs, sweep
from gegenkit.series import TruncatedSeries, series_mul

LAMBDA_FULL = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(10)]
# Float conjugate-product agreement uses the invariant grid (lam <= 7/3):
# at lam = 10, m = 40 the interior cancellation ratio C_m(1)/C_m(t) costs
# ~m^lam ulps in double precision, putting 1e-9 out of reach by arithmetic,
# not by implementation.
LAMBDA_CONJ = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3)]

SEED = 20260809


def _report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


@lru_cache(maxsize=None)
def _composition(lam: Fraction, order: int):
    return table_via_composition(GegenbauerParams(lam, order))


@lru_cache(maxsize=None)
def _recurrence_exact(lam: Fraction, order: int):
    return table_via_recurrence(GegenbauerParams(lam, order))


def test_main_identity_exact_sweep():
    """lambda in {1/2,1,3/2,2,7/3,10}, m = 0..200: 1206 exact equalities, under 10 s."""
    start = time.perf_counter()
    reports = sweep(LAMBDA_FULL, 200)
    elapsed = time.perf_counter() - start
    assert len(reports) == 1206
    for rep in reports:
        assert rep.exact_equal is True
        assert rep.residual is None
        assert rep.lhs == rep.rhs  # zero residual, literally
    assert elapsed < 10.0
    _report("main-identity-exact", f"1206/1206 exact equalities in {elapsed:.2f}s")


def test_value_at_one_matches_composition_tables():
    """evaluate(composition table, m, 1) == (2 lam)_m / m! exactly, m <= 40."""
    checked = 0
    for lam in LAMBDA_FULL:
        tbl = _composition(lam, 40)
        for m in range(41):
            assert tbl.evaluate(m, 1) == gamma_ratio_coefficient(2 * lam, m)
            checked += 1
    _report("generating-function-at-one", f"{checked} exact coefficient comparisons")


def test_route_triangulation():
    """Composition == recurrence exactly; both match conjugate-product values."""
    for lam in LAMBDA_FULL:
        assert _composition(lam, 40).polys == _recurrence_exact(lam, 40).polys

    float_checks = 0
    for lam in LAMBDA_CONJ:
        tbl = _composition(lam, 40)
        for k in range(25):
            phi = k * math.pi / 24
            t = math.cos(phi)
            for m in range(41):
                reference = float(tbl.evaluate(m, t))  # exact Horner, rounded once
                got = value_via_conjugate_product(float(lam), phi, m)
                assert abs(got.value - reference) <= 1e-9 * (1 + abs(reference))
                assert got.imag_residue <= 1e-10 * (1 + abs(got.value))
                float_checks += 1
    _report(
        "route-triangulation",
        f"6 lambdas exact-equal to m=40; {float_checks} conjugate-product agreements",
    )


def test_uniform_convergence_majorant():
    """Partial sums stay within majorant_tail(lam, N, r) + 1e-12 of the closed form.

    Every lam in the grid has integer 2*lam, so the majorant is exactly
    rational and the partial sums evaluate exactly; for lam in {1, 2} the
    closed form is rational too and the bound holds at zero tolerance.  At
    t = 1 the tail *equals* the majorant, which leaves no float margin at
    all -- exactness is the only way to honor the stated slack there.
    lam = 1/2 needs one square root, so that leg compares in float where
    the 1e-12 slack comfortably covers the two roundings involved.
    """
    grid_t = [Fraction(k - 5, 5) for k in range(11)]
    r_values = [Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)]
    checks = 0
    for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
        table = _recurrence_exact(lam, 40)
        for t in grid_t:
            values = [table.evaluate(m, t) for m in range(41)]
            for r in r_values:
                base = 1 - 2 * r * t + r * r
                partial_at = {}
                partial = Fraction(0)
                power = Fraction(1)
                for m in range(41):
                    partial += values[m] * power
                    power *= r
                    if m in (10, 20, 40):
                        partial_at[m] = partial
                for n in (10, 20, 40):
                    bound = majorant_tail(lam, n, r)
                    if lam.denominator == 1:
                        closed = Fraction(1) / base ** int(lam)
                        assert abs(partial_at[n] - closed) <= bound
                    else:
                        closed = 1.0 / math.sqrt(float(base))
                        assert abs(float(partial_at[n]) - closed) <= float(bound) + 1e-12
                    checks += 1
    _report("uniform-convergence-majorant", f"{checks} tail bounds honored")


def test_derivative_interchange():
    """lam = 1, t in {-1, 0, 1}, r = 0.3, N = 60: residual of the check <= 1e-8."""
    worst = 0.0
    for t in (-1.0, 0.0, 1.0):
        rep = derivative_interchange_check(1.0, t, 0.3, 60)
        assert rep.residual <= 1e-8
        worst = max(worst, rep.residual)
    _report("derivative-interchange", f"max residual {worst:.3e} <= 1e-8")


def test_property_suites():
    """Five randomized suites, >= 1000 cases each, exact assertions at zero tolerance."""
    rng = random.Random(SEED)
    cases = 1000

    # Cauchy-product ring axioms at fixed truncation order 8.
    order = 8
    add = lambda x, y: TruncatedSeries([u + v for u, v in zip(x.coeffs, y.coeffs)], EXACT)
    for _ in range(cases):
        a, b, c = (
            TruncatedSeries(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(order + 1)],
                EXACT,
            )
            for _ in range(3)
        )
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
        assert series_mul(a, add(b, c)) == add(series_mul(a, b), series_mul(a, c))

    # Pochhammer one-step recurrence, on g(x, m) = (x)_m / m!.
    g = gamma_ratio_coefficient
    for _ in range(cases):
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        m = rng.randint(0, 60)
        assert g(x, m + 1) * (m + 1) == g(x, m) * (x + m)

    # Parity and boundedness on cached exact tables.
    tables = {lam: _recurrence_exact(lam, 40) for lam in LAMBDA_CONJ}
    peaks = {lam: [value_at_one(lam, m) for m in range(41)] for lam in LAMBDA_CONJ}
    for _ in range(cases):
        lam = LAMBDA_CONJ[rng.randrange(len(LAMBDA_CONJ))]
        m = rng.randint(0, 40)
        q = rng.randint(1, 12)
        t = Fraction(rng.randint(-q, q), q)
        tbl = tables[lam]
        assert tbl.evaluate(m, -t) == (-1) ** m * tbl.evaluate(m, t)
    for _ in range(cases):
        lam = LAMBDA_CONJ[rng.randrange(len(LAMBDA_CONJ))]
        m = rng.randint(0, 40)
        q = rng.randint(1, 12)
        t = Fraction(rng.randint(-q, q), q)
        assert abs(tables[lam].evaluate(m, t)) <= peaks[lam][m]

    # Summand symmetry k <-> m-k inside the convolution side.
    for _ in range(cases):
        lam = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        m = rng.randint(0, 100)
        prefix = [Fraction(1)]
        for k in range(m):
            prefix.append(prefix[-1] * (lam + k) / (k + 1))
        terms = [prefix[k] * prefix[m - k] for k in range(m + 1)]
        assert terms == terms[::-1]
        assert sum(terms) == sum(reversed(terms)) == identity_lhs(lam, m)

    _report(
        "property-suites",
        f"5 suites x {cases} cases: ring axioms, pochhammer step, parity, "
        f"boundedness, summand symmetry",
    )
