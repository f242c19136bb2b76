"""Command-line front end: tables, evaluation, identity sweeps, derivative check.

Each command hands `_emit` its records, in the seven fields
lambda,m,check,value_or_lhs,rhs,residual,status, and the layout of its text
lines.  `_emit` exits 2 on an inf or nan float before writing a byte, then writes
text or csv (the seven columns under a header), each scalar's text from
`fields.format_scalar` ("p/q", q may be 1, or the shortest round-tripping decimal),
or json lines by `json` (the same keys and values; floats by their repr, lists as
arrays, exact scalars as `fields.format_exact` strings).  Results go to stdout.

Exit 0 -- every check passes; exit 1 -- a mathematical check failed; exit 2 --
a usage, domain or arithmetic error, or a non-finite float (reason on stderr).

Scalar literals: `fields.parse_scalar` reads each one, and the type it returns
is the literal's kind.  An integer (int) fits either mode, "p/q" (Fraction) is
exact and a decimal/scientific literal (float) is float; mixing "p/q" with
decimal literals in one invocation is a usage error.  The literals are read in
order and the first that does not parse is named, before any mixing or --mode
conflict.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from fractions import Fraction

import click

from .fields import EXACT, format_exact, format_scalar, parse_scalar
from .gegenbauer import (
    GegenbauerParams,
    GegenbauerTable,
    derivative_interchange_check,
    value_at_one,
    value_via_recurrence,
)
from .identity import sweep

__all__ = ["cli"]

M_MAX_LIMIT = 10_000
"""Largest `verify --m-max`, `at-one --degree`, `eval --degree` and `deriv-check --order`.

O(m) work per check; float `verify` checks every m up to it, O(m^2) work per lambda.
"""
EXACT_M_MAX_LIMIT = 1_500
"""Largest exact `verify --m-max`: O(m^2) big-by-small products, about 2 s for one lambda = 7/3."""
ORDER_LIMIT = 1_000
"""Largest `table --order` on the recurrence route: a table of O(N^2) entries."""
COMPOSITION_LIMIT = 400
"""Largest `table --order` on the composition route, whose exact cost grows faster than N^3."""

FIELDS = ("lambda", "m", "check", "value_or_lhs", "rhs", "residual", "status")


def _check_bounds(flag: str, value: int, limit: int, tolerance: float | None = None, scope=""):
    """Reject, before any work, `flag` outside 0..`limit` or a tolerance that is nan, inf or negative."""
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative")
    if value > limit:
        raise ValueError(f"{flag} must be at most {limit}{scope}")
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError("--tolerance must be finite and nonnegative")


def _parse_literals(literals: list[str], mode_flag: str | None) -> list:
    """Infer the mode from the literals (or check it against --mode) and parse them in it."""
    values = [parse_scalar(text) for text in literals]
    kinds = {type(v) for v in values}
    if Fraction in kinds and float in kinds:
        raise ValueError("cannot mix exact 'p/q' literals and float literals in one invocation")
    if mode_flag == "exact" and float in kinds:
        raise ValueError("float literal given together with --mode exact")
    mode = mode_flag or ("float" if float in kinds else "exact")
    try:
        return [float(v) for v in values] if mode == "float" else [EXACT.coerce(v) for v in values]
    except OverflowError:
        raise ValueError("an exact literal does not fit a float (magnitude above 1.8e308)") from None


def _cell(value) -> str:
    """Text and CSV form of a scalar field: '' for None, a tuple of coefficients space-separated."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return " ".join(map(format_scalar, value))
    return format_scalar(value)


def _emit(fmt: str, records: list[tuple], text=lambda rows: (row[3] for row in rows)) -> None:
    """Write `records` (tuples of FIELDS) to stdout in `fmt`, formatting one row at a time.

    Raises OverflowError before any write if a float in them is inf or nan.
    `text` maps the rows, as tuples of cells, to the lines of --format text.
    """
    scalars = (v for record in records for field in record
               for v in (field if isinstance(field, tuple) else (field,)))
    if any(isinstance(v, float) and not math.isfinite(v) for v in scalars):
        raise OverflowError("result is not finite")
    if fmt == "json":
        for record in records:
            sys.stdout.write(json.dumps(dict(zip(FIELDS, record)), default=format_exact) + "\n")
        return
    rows = ((_cell(lam), str(m), check, _cell(value), _cell(rhs), _cell(residual), status)
            for lam, m, check, value, rhs, residual, status in records)
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(FIELDS)
        writer.writerows(rows)
    else:
        for line in text(rows):
            sys.stdout.write(line + "\n")


class _Command(click.Command):
    """Maps domain ValueErrors and ArithmeticErrors (float overflow too) onto exit 2, with usage lines."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx)
        except OverflowError as exc:
            raise click.UsageError(f"float overflow: {exc.args[-1]}", ctx)
        except ArithmeticError as exc:
            raise click.UsageError(f"arithmetic defect: {exc}", ctx)


_lambda_option = click.option("--lambda", "lam_text", required=True, help="Order parameter lambda > 0.")
_mode_option = click.option("--mode", type=click.Choice(["exact", "float"]), default=None,
                            help="Default: float if any literal is a decimal, else exact (p/q or integer).")
_format_option = click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")


@click.group()
def cli():
    """Gegenbauer polynomial tables, evaluation, and identity checks."""


cli.command_class = _Command


@cli.command()
@_lambda_option
@click.option("--order", type=int, required=True,
              help=f"Largest degree N to tabulate, at most {COMPOSITION_LIMIT} on the composition"
                   f" route and {ORDER_LIMIT} on the recurrence route.")
@click.option("--route", type=click.Choice(["composition", "recurrence"]), default="composition",
              show_default=True)
@_mode_option
@_format_option
def table(lam_text, order, route, mode, fmt):
    """Print one row per degree m with the coefficients of C_m, lowest power first."""
    limit = COMPOSITION_LIMIT if route == "composition" else ORDER_LIMIT
    _check_bounds("--order", order, limit, scope=f" on the {route} route")
    (lam,) = _parse_literals([lam_text], mode)
    tbl = GegenbauerTable(GegenbauerParams(lam, order), route)
    _emit(fmt, [(lam, m, route, poly.coeffs, None, None, "ok") for m, poly in enumerate(tbl.polys)],
          lambda rows: (f"m={row[1]}: {row[3]}" for row in rows))


@cli.command("eval")
@_lambda_option
@click.option("--degree", type=int, required=True, help=f"Degree m, at most {M_MAX_LIMIT}.")
@click.option("--t", "t_text", required=True, help="Evaluation point (any finite magnitude).")
@_mode_option
@_format_option
def eval_cmd(lam_text, degree, t_text, mode, fmt):
    """Evaluate C_degree at t by the three-term recurrence on values at t (no table).

    Float mode runs in floats; exact mode runs in integers and stays exact.
    """
    _check_bounds("--degree", degree, M_MAX_LIMIT)
    lam, t = _parse_literals([lam_text, t_text], mode)
    _emit(fmt, [(lam, degree, "eval", value_via_recurrence(lam, degree, t), None, None, "ok")])


@cli.command("at-one")
@_lambda_option
@click.option("--degree", type=int, required=True, help=f"Degree m, at most {M_MAX_LIMIT}.")
@_mode_option
@_format_option
def at_one(lam_text, degree, mode, fmt):
    """C_degree(1) by the closed form (2 lambda)_degree / degree!."""
    _check_bounds("--degree", degree, M_MAX_LIMIT)
    (lam,) = _parse_literals([lam_text], mode)
    _emit(fmt, [(lam, degree, "at-one", value_at_one(lam, degree), None, None, "ok")])


@cli.command()
@click.option("--lambda-list", "lam_list", required=True, help="Comma-separated lambda values.")
@click.option("--m-max", type=int, required=True,
              help=f"Largest m to check, at most {EXACT_M_MAX_LIMIT} exact or {M_MAX_LIMIT} float.")
@_mode_option
@_format_option
@click.option("--tolerance", type=float, default=1e-10, show_default=True,
              help="Float-mode residual bound, finite and >= 0.")
def verify(lam_list, m_max, mode, fmt, tolerance):
    """Check the convolution identity on the (lambda, m) grid; exit 1 on any failure."""
    texts = [s for s in lam_list.split(",") if s.strip()]
    if not texts:
        raise ValueError("empty lambda list")
    lambdas = _parse_literals(texts, mode)
    limit, scope = ((M_MAX_LIMIT, "") if isinstance(lambdas[0], float)
                    else (EXACT_M_MAX_LIMIT, " in exact mode"))
    _check_bounds("--m-max", m_max, limit, tolerance, scope)
    reports = sweep(lambdas, m_max)
    passed = [rep.passed(tolerance) for rep in reports]
    _emit(fmt, [(rep.lam, rep.m, "verify", rep.lhs, rep.rhs, rep.residual, "pass" if ok else "fail")
                for rep, ok in zip(reports, passed)],
          lambda rows: (f"lambda={lam} m={m} lhs={lhs} rhs={rhs}"
                        + (f" residual={residual}" if residual else "") + f" status={status}"
                        for lam, m, _, lhs, rhs, residual, status in rows))
    click.echo(f"verify: {sum(passed)}/{len(reports)} checks passed", err=True)
    if not all(passed):
        sys.exit(1)


def _deriv_lines(rows):
    (*_, closed_form, partial_sum, residual, status), (*_, budget, _, _, _) = rows
    return [f"closed_form={closed_form}", f"partial_sum={partial_sum}", f"residual={residual}",
            f"tail_budget={budget}", f"status={status}"]


@cli.command("deriv-check")
@_lambda_option
@click.option("--t", "t_text", required=True, help="Point t in [-1, 1].")
@click.option("--r", "r_text", required=True, help="Series variable r in [0, 1).")
@click.option("--order", type=int, required=True,
              help=f"Truncation order N, at most {M_MAX_LIMIT}.")
@click.option("--tolerance", type=float, default=1e-10, show_default=True,
              help="Residual bound, finite and >= 0.")
@_format_option
def deriv_check(lam_text, t_text, r_text, order, tolerance, fmt):
    """Term-wise derivative vs. the closed form of d/dt of the generating function.

    Computes in float regardless of literal form (exact literals convert
    exactly).  Exit 1 when |A - B| exceeds the tolerance.
    """
    _check_bounds("--order", order, M_MAX_LIMIT, tolerance)
    lam, t, r = _parse_literals([lam_text, t_text, r_text], "float")
    rep = derivative_interchange_check(lam, t, r, order)
    ok = rep.residual <= tolerance
    _emit(fmt, [(rep.lam, order, "deriv-check", rep.closed_form, rep.partial_sum, rep.residual,
                 "pass" if ok else "fail"),
                (rep.lam, order, "deriv-check-budget", rep.tail_budget, None, None, "ok")],
          _deriv_lines)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    cli()
