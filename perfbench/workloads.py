"""The three seeded workloads and the checks on every output they produce.

A workload is one fixed list of CLI invocations and one fixed list of library
calls, built from ``--seed``.  Each operation carries its own check against
the independent oracles in ``oracle.py``; the checks run outside the timed
regions.  Operations marked ``may_fail`` sit on seed-independent inputs where
float evaluation is known to be wrong today (monomial Horner cancellation);
any other failed check means the program is wrong.

Library calls go through the ``gegenkit`` package attributes at call time, so
the tracer's wrappers, when installed, see them.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle

EVAL_TOL = 1e-9          # |value - oracle| <= EVAL_TOL * C_m(1) for float C_m(t)
DERIV_TOL = 1e-10        # the CLI's default deriv-check tolerance


@dataclass
class Op:
    """One operation: a CLI argv (``args``) or a library call (``call``), and its check.

    ``check`` gets the CLI's (exit code, stdout) or the library's return value
    and returns None when the output is right, else a one-line reason.
    """

    name: str
    check: Callable[[object], str | None]
    args: list[str] | None = None
    call: Callable[[object], object] | None = None
    may_fail: bool = False


@dataclass
class Workload:
    cli_ops: list[Op]
    # Library calls grouped into segments; a batch of reference-kernel runs
    # goes before and after each segment.
    lib_segments: list[list[Op]]
    # Every checked float evaluation of C_m(t), one entry per evaluation point.
    evals: list[_EvalCheck] = field(default_factory=list)


def _num(x) -> str:
    """A CLI literal: 'p/q' for rationals, the round-tripping repr for floats."""
    return oracle.exact_text(x) if isinstance(x, Fraction) else repr(float(x))


def _rational(rng: random.Random, q_lo: int, q_hi: int, lo: float, hi: float) -> Fraction:
    """lam = p/q in lowest terms with q in [q_lo, q_hi] and lam in [lo, hi]."""
    while True:
        q = rng.randint(q_lo, q_hi)
        p = rng.randint(math.ceil(lo * q), math.floor(hi * q))
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def _chunks(ops: list[Op], size: int) -> list[list[Op]]:
    return [ops[i:i + size] for i in range(0, len(ops), size)]


# ---------------------------------------------------------------- exact-identity

IDENTITY_GRID = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3), Fraction(10)]


def _identity_checks(lam: Fraction, m_max: int):
    rhs = oracle.identity_rhs_row(lam, m_max)
    lam_cell = oracle.exact_text(lam)
    lines = ["lambda,m,check,value_or_lhs,rhs,residual,status"]
    for m, v in enumerate(rhs):
        cell = oracle.exact_text(v)
        lines.append(f"{lam_cell},{m},verify,{cell},{cell},,pass")
    expected_csv = "\n".join(lines) + "\n"

    def check_cli(out):
        code, stdout = out
        if code != 0:
            return f"verify {lam_cell}: exit {code}"
        if stdout != expected_csv:
            return f"verify {lam_cell}: csv differs from the Pochhammer oracle"
        return None

    def check_lib(reports):
        if len(reports) != m_max + 1:
            return f"sweep {lam_cell}: {len(reports)} reports"
        for m, rep in enumerate(reports):
            if (rep.lam != lam or rep.m != m or rep.exact_equal is not True
                    or rep.lhs != rhs[m] or rep.rhs != rhs[m]):
                return f"sweep {lam_cell}: wrong report at m={m}"
        return None

    return check_cli, check_lib


def exact_identity(seed: int, small: bool = False) -> Workload:
    """The acceptance grid plus two seeded lam = p/q with three-digit q.

    The seeded q and lam ranges are narrow, so the bit sizes -- and with them
    the gcd cost -- vary little from seed to seed.
    """
    rng = random.Random(seed)
    m_max = 40 if small else 200
    lambdas = IDENTITY_GRID + [_rational(rng, 151, 199, 1.0, 3.0) for _ in range(2)]
    cli_ops, lib_ops = [], []
    for lam in lambdas:
        check_cli, check_lib = _identity_checks(lam, m_max)
        cli_ops.append(Op(f"verify {lam}", check_cli,
                          args=["verify", "--lambda-list", _num(lam), "--m-max", str(m_max),
                                "--mode", "exact", "--format", "csv"]))
        lib_ops.append(Op(f"sweep {lam}", check_lib,
                          call=lambda gk, lam=lam: gk.sweep([lam], m_max)))
    return Workload(cli_ops, _chunks(lib_ops, 1))


# ------------------------------------------------------------------ exact-tables

def _table_text(rows) -> str:
    return "".join(f"m={m}: " + " ".join(oracle.exact_text(c) for c in row) + "\n"
                   for m, row in enumerate(rows))


def _table_ops(lam: Fraction, order: int, route: str) -> tuple[Op, Op]:
    rows = oracle.explicit_rows(lam, order)
    expected = _table_text(rows)
    label = f"table {route} {lam} N={order}"

    def check_cli(out):
        code, stdout = out
        if code != 0:
            return f"{label}: exit {code}"
        return None if stdout == expected else f"{label}: rows differ from DLMF 18.5.10"

    def check_lib(tbl):
        if len(tbl.polys) != order + 1:
            return f"{label}: {len(tbl.polys)} rows"
        for m, poly in enumerate(tbl.polys):
            if list(poly.coeffs) != rows[m]:
                return f"{label}: row m={m} differs from DLMF 18.5.10"
        # C_m(1) = (2 lam)_m / m!: the row sums are the closed form at t = 1.
        if sum(tbl.polys[order].coeffs) != oracle.at_one(lam, order):
            return f"{label}: row sum at m={order} is not (2 lam)_m / m!"
        return None

    build = "table_via_composition" if route == "composition" else "table_via_recurrence"
    return (Op(label, check_cli, args=["table", "--lambda", _num(lam), "--order", str(order),
                                       "--route", route]),
            Op(label, check_lib,
               call=lambda gk: getattr(gk, build)(gk.GegenbauerParams(lam, order))))


def _exact_eval_ops(lam: Fraction, m: int, t: Fraction) -> tuple[list[Op], list[Op]]:
    """eval at t and -t; the pair also checks parity C_m(-t) = (-1)^m C_m(t)."""
    value = oracle.explicit_value(lam, m, t)
    sign = -1 if m % 2 else 1
    cli, lib = [], []
    for x, expected in ((t, value), (-t, sign * value)):
        label = f"eval {lam} m={m} t={x}"
        text = oracle.exact_text(expected) + "\n"
        cli.append(Op(label, lambda out, label=label, text=text:
                      None if out == (0, text) else f"{label}: {out[1].strip()[:60]!r}",
                      args=["eval", "--lambda", _num(lam), "--degree", str(m), "--t", _num(x)]))
        lib.append(Op(label, lambda v, label=label, expected=expected:
                      None if v == expected else f"{label}: wrong value",
                      call=lambda gk, x=x: gk.table_via_recurrence(
                          gk.GegenbauerParams(lam, m)).evaluate(m, x)))
    return cli, lib


def exact_tables(seed: int, small: bool = False) -> Workload:
    """Composition and recurrence tables, exact eval and at-one, at seeded lam and t."""
    rng = random.Random(seed)
    n_comp, n_rec, n_eval = (12, 40, 30) if small else (64, 300, 160)
    # Fixed denominators keep the coefficient bit sizes, and so the cost and
    # the memory of the largest table, close from seed to seed.
    lam_comp = _rational(rng, 7, 7, 1.0, 4.0)
    lam_rec = _rational(rng, 7, 7, 1.0, 4.0)
    lam_eval = _rational(rng, 29, 29, 1.0, 4.0)
    b = rng.randint(11, 16)
    t_eval = Fraction(rng.choice([a for a in range(1, b) if math.gcd(a, b) == 1]), b)

    cli_ops, lib_ops = [], []
    for lam, order, route in ((lam_comp, n_comp, "composition"),
                              (lam_comp, n_comp, "recurrence"),
                              (lam_rec, n_rec, "recurrence")):
        c, lib = _table_ops(lam, order, route)
        cli_ops.append(c)
        lib_ops.append(lib)
    c, lib = _exact_eval_ops(lam_eval, n_eval, t_eval)
    cli_ops += c
    lib_ops += lib

    at_one = oracle.at_one(lam_rec, n_rec)
    label = f"at-one {lam_rec} m={n_rec}"
    cli_ops.append(Op(label, lambda out: None if out == (0, oracle.exact_text(at_one) + "\n")
                      else f"{label}: wrong value",
                      args=["at-one", "--lambda", _num(lam_rec), "--degree", str(n_rec)]))
    lib_ops.append(Op(label, lambda v: None if v == at_one else f"{label}: wrong value",
                      call=lambda gk: gk.value_at_one(lam_rec, n_rec)))
    return Workload(cli_ops, _chunks(lib_ops, 1))


# -------------------------------------------------------------------- float-eval

# Seed-independent points where float eval is checked at high degree.  Today's
# monomial Horner cancels catastrophically from about m = 30 on, so many of
# these fail; the set is fixed, so the failed count repeats exactly.
FIXED_EVAL_LAMBDAS = (0.5, 1.0, 2.5, 7.0)
FIXED_EVAL_DEGREES = (30, 40, 60, 100, 200, 400)
FIXED_EVAL_TS = (-0.8, 0.5)
FIXED_EVAL_CLI = ((1.0, 100, 0.5), (0.5, 30, -0.8), (7.0, 40, 0.5),
                  (2.5, 60, -0.8), (1.0, 200, 0.5), (7.0, 400, -0.8))
# True truncation residuals, from a 60-digit sum: 7.1e-12 and 4.0e-15, both
# below the 1e-10 tolerance, so 'fail' from either is a false math failure.
FIXED_DERIV = ((1.0, 0.5, 0.9, 300), (2.5, -0.3, 0.8, 200))


class _EvalCheck:
    """Checks a float C_m(t) against the explicit sum and keeps the worst scaled error.

    A non-finite value counts as the largest finite float, so the error stays
    a number that JSON can carry.
    """

    def __init__(self, evals: list[_EvalCheck], lam: float, m: int, t: float):
        evals.append(self)
        self.label = f"eval lam={lam} m={m} t={t}"
        self.oracle = float(oracle.explicit_value(lam, m, t))
        self.scale = float(oracle.at_one(lam, m))
        self.error = 0.0

    def value(self, v) -> str | None:
        if not isinstance(v, float):
            return f"{self.label}: not a float"
        err = abs(v - self.oracle) / self.scale if math.isfinite(v) else math.inf
        self.error = max(self.error, min(err, sys.float_info.max))
        if err > EVAL_TOL:
            return f"{self.label}: {v!r}, oracle {self.oracle!r}"
        return None

    def cli(self, out) -> str | None:
        code, stdout = out
        if code != 0:
            return f"{self.label}: exit {code}"
        try:
            return self.value(float(stdout))
        except ValueError:
            return f"{self.label}: unparsable {stdout[:60]!r}"


def _eval_lib(check: _EvalCheck, lam: float, m: int, t: float) -> Op:
    return Op(check.label, check.value,
              call=lambda gk: gk.table_via_recurrence(gk.GegenbauerParams(lam, m)).evaluate(m, t))


def _eval_cli(check: _EvalCheck, lam: float, m: int, t: float) -> Op:
    return Op(check.label, check.cli,
              args=["eval", "--lambda", _num(lam), "--degree", str(m), "--t", _num(t)])


def _parity_op(evals: list[_EvalCheck], lam: float, m: int, t: float) -> Op:
    """Library eval at t and -t in one call: checks both and C_m(-t) = (-1)^m C_m(t)."""
    plus, minus = _EvalCheck(evals, lam, m, t), _EvalCheck(evals, lam, m, -t)

    def check(pair):
        a, b = pair
        reason = plus.value(a) or minus.value(b)
        if reason is None and abs(b - (-1) ** m * a) > EVAL_TOL * plus.scale:
            reason = f"{plus.label}: parity broken"
        return reason

    def call(gk):
        tbl = gk.table_via_recurrence(gk.GegenbauerParams(lam, m))
        return tbl.evaluate(m, t), tbl.evaluate(m, -t)

    return Op(plus.label + " +-t", check, call=call)


class _DerivCheck:
    """deriv-check against 2 lam r (1 - 2rt + r^2)^(-lam-1).

    Every case here has a true truncation residual far below the tolerance,
    so the right verdict is 'pass' with a partial sum matching the closed form.
    """

    def __init__(self, lam: float, t: float, r: float, order: int):
        self.label = f"deriv-check lam={lam} t={t} r={r} order={order}"
        self.closed = oracle.deriv_closed_form(lam, t, r)

    def _compare(self, closed: float, partial: float) -> str | None:
        if abs(closed - self.closed) > 1e-13 * abs(self.closed):
            return f"{self.label}: closed form {closed!r}, oracle {self.closed!r}"
        if not abs(partial - self.closed) <= DERIV_TOL:
            return f"{self.label}: partial sum {partial!r}, oracle {self.closed!r}"
        return None

    def report(self, rep) -> str | None:
        reason = self._compare(rep.closed_form, rep.partial_sum)
        if reason is None and not rep.residual <= DERIV_TOL:
            reason = f"{self.label}: residual {rep.residual!r}"
        return reason

    def cli(self, out) -> str | None:
        code, stdout = out
        try:
            fields = dict(line.split("=", 1) for line in stdout.split())
            reason = self._compare(float(fields["closed_form"]), float(fields["partial_sum"]))
        except (KeyError, ValueError):
            return f"{self.label}: exit {code}, unparsable output"
        if reason is None and (code != 0 or fields.get("status") != "pass"):
            reason = f"{self.label}: exit {code}, status {fields.get('status')}"
        return reason


def _deriv_ops(lam, t, r, order, may_fail=False) -> tuple[Op, Op]:
    chk = _DerivCheck(lam, t, r, order)
    return (Op(chk.label, chk.cli, may_fail=may_fail,
               args=["deriv-check", "--lambda", _num(lam), "--t", _num(t), "--r", _num(r),
                     "--order", str(order)]),
            Op(chk.label, chk.report, may_fail=may_fail,
               call=lambda gk: gk.derivative_interchange_check(lam, t, r, order)))


def _conjugate_op(evals: list[_EvalCheck], lam: float, phi: float, m: int) -> Op:
    chk = _EvalCheck(evals, lam, m, math.cos(phi))
    chk.label = f"conjugate lam={lam} phi={phi} m={m}"

    def check(cv):
        reason = chk.value(cv.value)
        if reason is None and not (cv.within_tolerance and cv.imag_residue <= 1e-12 * chk.scale):
            reason = f"{chk.label}: imaginary residue {cv.imag_residue!r}"
        return reason

    return Op(chk.label, check, call=lambda gk: gk.value_via_conjugate_product(lam, phi, m))


def _majorant_op(lam: float, order: int, r: float) -> Op:
    label = f"majorant lam={lam} N={order} r={r}"
    tail = oracle.majorant_tail(lam, order, r)
    closed = (1.0 - r) ** (-2.0 * lam)

    def check(v):
        return None if abs(v - tail) <= 1e-13 * closed else f"{label}: {v!r}, oracle {tail!r}"

    return Op(label, check, call=lambda gk: gk.majorant_tail(lam, order, r))


def _float_verify_ops(lambdas: list[float], m_max: int) -> tuple[Op, Op]:
    rhs = {lam: [float(v) for v in oracle.identity_rhs_row(Fraction(lam), m_max)]
           for lam in lambdas}
    label = f"verify float {lambdas} m<={m_max}"

    def close(x, y):
        return abs(x - y) <= 1e-11 * max(1.0, abs(y))

    def check_lib(reports):
        grid = [(lam, m) for lam in lambdas for m in range(m_max + 1)]
        if [(rep.lam, rep.m) for rep in reports] != grid:
            return f"{label}: wrong grid"
        for rep in reports:
            want = rhs[rep.lam][rep.m]
            if not (close(rep.lhs, want) and close(rep.rhs, want) and rep.passed()):
                return f"{label}: wrong report at lam={rep.lam} m={rep.m}"
        return None

    def check_cli(out):
        code, stdout = out
        lines = stdout.splitlines()
        if code != 0 or lines[:1] != ["lambda,m,check,value_or_lhs,rhs,residual,status"]:
            return f"{label}: exit {code}"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(lambdas) * (m_max + 1):
            return f"{label}: {len(rows)} rows"
        for row in rows:
            try:
                lam_cell, m, check, lhs, rhs_cell, residual, status = row
                want = rhs[float(lam_cell)][int(m)]
                ok = (check == "verify" and status == "pass" and float(residual) <= 1e-10
                      and close(float(lhs), want) and close(float(rhs_cell), want))
            except (KeyError, IndexError, ValueError):
                ok = False
            if not ok:
                return f"{label}: wrong row {','.join(row)[:80]}"
        return None

    return (Op(label, check_cli, args=["verify", "--lambda-list", ",".join(map(_num, lambdas)),
                                        "--m-max", str(m_max), "--mode", "float",
                                        "--format", "csv"]),
            Op(label, check_lib, call=lambda gk: gk.sweep(lambdas, m_max)))


def float_eval(seed: int, small: bool = False) -> Workload:
    """Many short float calls at seeded lam, t, r, plus a fixed high-degree eval grid."""
    rng = random.Random(seed)
    evals: list[_EvalCheck] = []

    def draw(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    n_eval_cli, n_eval_lib, n_deriv, n_conj, n_major = (4, 12, 2, 6, 4) if small else (12, 100, 16, 40, 20)

    # Seeded evaluations stay at m <= 16, where Horner over monomials is still
    # accurate to about 3e-13 * C_m(1); they never fail.
    def eval_point():
        return draw(0.5, 8.0), rng.randint(5, 16), draw(-0.99, 0.99)

    cli_ops, lib_ops = [], []
    for _ in range(n_eval_cli):
        lam, m, t = eval_point()
        cli_ops.append(_eval_cli(_EvalCheck(evals, lam, m, t), lam, m, t))
    eval_lib = [_parity_op(evals, *eval_point()) for _ in range(n_eval_lib)]

    fixed_grid = [(lam, m, t) for lam in FIXED_EVAL_LAMBDAS for m in FIXED_EVAL_DEGREES
                  for t in FIXED_EVAL_TS]
    fixed_cli = FIXED_EVAL_CLI
    if small:
        fixed_grid = [(1.0, 100, 0.5), (0.5, 30, -0.8)]
        fixed_cli = fixed_grid[:1]
    for lam, m, t in fixed_cli:
        op = _eval_cli(_EvalCheck(evals, lam, m, t), lam, m, t)
        op.may_fail = True
        cli_ops.append(op)
    fixed_lib = []
    for lam, m, t in fixed_grid:
        op = _eval_lib(_EvalCheck(evals, lam, m, t), lam, m, t)
        op.may_fail = True
        fixed_lib.append(op)

    # Seeded derivative checks: r <= 0.3 and order >= 40 keep the true
    # truncation residual far below the 1e-10 tolerance, and r^m damps the
    # Horner error.
    deriv = [_deriv_ops(draw(0.5, 4.0), draw(-0.95, 0.95), draw(0.1, 0.3), rng.randint(40, 80))
             for _ in range(n_deriv)]
    deriv_fixed = [_deriv_ops(*case, may_fail=True) for case in FIXED_DERIV[: 1 if small else 2]]
    cli_ops += [c for c, _ in deriv[:3]] + [c for c, _ in deriv_fixed]

    # The conjugate route stays inside lam <= 2, where its own imaginary-residue
    # flag has a wide margin at every m <= 400.
    conj = [_conjugate_op(evals, draw(0.5, 2.0), draw(0.05, 3.09), rng.randint(5, 400))
            for _ in range(n_conj)]
    major = [_majorant_op(draw(0.5, 4.0), rng.randint(5, 60), draw(0.1, 0.7))
             for _ in range(n_major)]
    verify_cli, verify_lib = _float_verify_ops([draw(0.5, 8.0) for _ in range(3)],
                                               30 if small else 100)
    cli_ops.append(verify_cli)

    lib_segments = (_chunks(eval_lib, 20) + _chunks(fixed_lib, 4)
                    + _chunks([lib for _, lib in deriv + deriv_fixed], 4)
                    + _chunks(conj, 10) + _chunks(major, 10) + [[verify_lib]])
    return Workload(cli_ops, lib_segments, evals)


WORKLOADS = {
    "exact-identity": exact_identity,
    "exact-tables": exact_tables,
    "float-eval": float_eval,
}
