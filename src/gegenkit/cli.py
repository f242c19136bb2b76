"""Command-line front end: tables, evaluation, identity sweeps, derivative check.

Output conventions:

* exit 0 -- all requested checks pass; exit 1 -- a mathematical check failed;
  exit 2 -- usage or domain error, or a float result that is inf or nan
  (one-line reason on stderr).
* --format csv: columns lambda,m,check,value_or_lhs,rhs,residual,status.
* --format json: one object per line with the same keys (coefficient lists
  are arrays); values match the CSV cells field for field.
* exact scalars serialize as "p/q" (q may be 1); floats as the shortest
  round-tripping decimal.  All results go to stdout, diagnostics to stderr.

Scalar literals follow the shared contract: "p/q" or an integer is exact, a
decimal/scientific literal is float.  Integer literals fit either mode;
mixing "p/q" and decimal literals in one invocation is a usage error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from fractions import Fraction

import click

from .fields import format_scalar, literal_kind, parse_scalar
from .gegenbauer import (
    GegenbauerParams,
    derivative_interchange_check,
    table_via_composition,
    table_via_recurrence,
    value_at_one,
)
from .identity import sweep

__all__ = ["cli", "main"]

M_MAX_LIMIT = 10_000
"""Largest `verify --m-max` and `at-one --degree`: both keep O(m) big integers per lambda."""
ORDER_LIMIT = 1_000
"""Largest `table --order`, `eval --degree` and `deriv-check --order`: a table of O(N^2) entries."""


def _check_bounds(flag: str, value: int, limit: int, tolerance: float | None = None) -> None:
    """Reject, before any work, `flag` above `limit` or a tolerance that is nan, inf or negative."""
    if value > limit:
        raise ValueError(f"{flag} must be at most {limit}")
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError("--tolerance must be finite and nonnegative")


def _parse_literals(literals: list[str], mode_flag: str | None) -> list:
    """Infer the mode from the literals (or check it against --mode) and parse them in it."""
    kinds = {literal_kind(text) for text in literals}
    if "fraction" in kinds and "float" in kinds:
        raise click.UsageError(
            "cannot mix exact 'p/q' literals and float literals in one invocation"
        )
    if mode_flag == "exact" and "float" in kinds:
        raise click.UsageError("float literal given together with --mode exact")
    mode = mode_flag or ("float" if "float" in kinds else "exact")
    values = [parse_scalar(text) for text in literals]
    return [float(v) for v in values] if mode == "float" else values


def _serialize(value):
    """CSV/JSON cell for a scalar: 'p/q' string when exact, raw float otherwise."""
    if isinstance(value, (int, Fraction)):
        return format_scalar(Fraction(value))
    return float(value)


def _finite(*values) -> None:
    """Raise OverflowError if a float about to be printed is inf or nan."""
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise OverflowError("result is not finite")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):
        return " ".join(_cell(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class RecordWriter:
    """Emits the fixed seven-column record stream in csv or json-lines form."""

    FIELDS = ("lambda", "m", "check", "value_or_lhs", "rhs", "residual", "status")

    def __init__(self, fmt: str):
        self.fmt = fmt
        self._csv = None

    def write(self, lam, m, check, value=None, rhs=None, residual=None, status="ok"):
        record = {
            "lambda": lam,
            "m": m,
            "check": check,
            "value_or_lhs": value,
            "rhs": rhs,
            "residual": residual,
            "status": status,
        }
        if self.fmt == "csv":
            if self._csv is None:
                self._csv = csv.writer(sys.stdout, lineterminator="\n")
                self._csv.writerow(self.FIELDS)
            self._csv.writerow([_cell(record[k]) for k in self.FIELDS])
        else:
            sys.stdout.write(json.dumps(record) + "\n")


def _usage_errors(fn):
    """Map domain ValueErrors and float overflow raised by the library onto exit code 2."""

    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        except OverflowError as exc:
            raise click.UsageError(f"float overflow: {exc.args[-1]}")

    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


@click.group()
def cli():
    """Gegenbauer polynomial tables, evaluation, and identity checks."""


@cli.command()
@click.option("--lambda", "lam_text", required=True, help="Order parameter, > 0 ('p/q' or decimal).")
@click.option("--order", type=int, required=True,
              help=f"Largest degree N to tabulate, at most {ORDER_LIMIT}.")
@click.option(
    "--route",
    type=click.Choice(["composition", "recurrence"]),
    default="composition",
    show_default=True,
)
@click.option("--mode", type=click.Choice(["exact", "float"]), default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")
@_usage_errors
def table(lam_text, order, route, mode, fmt):
    """Print one row per degree m with the coefficients of C_m, lowest power first."""
    _check_bounds("--order", order, ORDER_LIMIT)
    (lam,) = _parse_literals([lam_text], mode)
    params = GegenbauerParams(lam, order)
    build = table_via_composition if route == "composition" else table_via_recurrence
    tbl = build(params)
    _finite(*(c for poly in tbl.polys for c in poly.coeffs))
    lam_cell = _serialize(lam)
    writer = RecordWriter(fmt) if fmt != "text" else None
    for m in range(order + 1):
        coeffs = [_serialize(c) for c in tbl.polys[m].coeffs]
        if writer is None:
            click.echo(f"m={m}: " + " ".join(_cell(c) for c in coeffs))
        else:
            writer.write(lam_cell, m, route, value=coeffs)


@cli.command("eval")
@click.option("--lambda", "lam_text", required=True)
@click.option("--degree", type=int, required=True, help=f"Degree m, at most {ORDER_LIMIT}.")
@click.option("--t", "t_text", required=True, help="Evaluation point (any magnitude).")
@click.option("--mode", type=click.Choice(["exact", "float"]), default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")
@_usage_errors
def eval_cmd(lam_text, degree, t_text, mode, fmt):
    """Evaluate C_degree at t (recurrence route, exact Horner in exact mode)."""
    _check_bounds("--degree", degree, ORDER_LIMIT)
    lam, t = _parse_literals([lam_text, t_text], mode)
    tbl = table_via_recurrence(GegenbauerParams(lam, degree))
    value = tbl.evaluate(degree, t)
    _finite(value)
    if fmt == "text":
        click.echo(_cell(_serialize(value)))
    else:
        RecordWriter(fmt).write(_serialize(lam), degree, "eval", value=_serialize(value))


@cli.command("at-one")
@click.option("--lambda", "lam_text", required=True)
@click.option("--degree", type=int, required=True, help=f"Degree m, at most {M_MAX_LIMIT}.")
@click.option("--mode", type=click.Choice(["exact", "float"]), default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")
@_usage_errors
def at_one(lam_text, degree, mode, fmt):
    """C_degree(1) by the closed form (2 lambda)_degree / degree!."""
    _check_bounds("--degree", degree, M_MAX_LIMIT)
    (lam,) = _parse_literals([lam_text], mode)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    value = value_at_one(lam, degree)
    _finite(value)
    if fmt == "text":
        click.echo(_cell(_serialize(value)))
    else:
        RecordWriter(fmt).write(_serialize(lam), degree, "at-one", value=_serialize(value))


@cli.command()
@click.option("--lambda-list", "lam_list", required=True, help="Comma-separated lambda values.")
@click.option("--m-max", type=int, required=True,
              help=f"Largest m to check, at most {M_MAX_LIMIT}.")
@click.option("--mode", type=click.Choice(["exact", "float"]), default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")
@click.option("--tolerance", type=float, default=1e-10, show_default=True,
              help="Float-mode residual bound, finite and >= 0.")
@_usage_errors
def verify(lam_list, m_max, mode, fmt, tolerance):
    """Check the convolution identity on the (lambda, m) grid; exit 1 on any failure."""
    _check_bounds("--m-max", m_max, M_MAX_LIMIT, tolerance)
    texts = [s for s in lam_list.split(",") if s.strip()]
    if not texts:
        raise ValueError("empty lambda list")
    lambdas = _parse_literals(texts, mode)
    reports = sweep(lambdas, m_max)
    for rep in reports:
        _finite(rep.lhs, rep.rhs, rep.residual)
    writer = RecordWriter(fmt) if fmt != "text" else None
    failures = 0
    for rep in reports:
        ok = rep.passed(tolerance)
        failures += 0 if ok else 1
        status = "pass" if ok else "fail"
        lam_cell = _serialize(rep.lam)
        if writer is None:
            parts = [f"lambda={_cell(lam_cell)}", f"m={rep.m}",
                     f"lhs={_cell(_serialize(rep.lhs))}", f"rhs={_cell(_serialize(rep.rhs))}"]
            if rep.residual is not None:
                parts.append(f"residual={rep.residual!r}")
            parts.append(f"status={status}")
            click.echo(" ".join(parts))
        else:
            writer.write(lam_cell, rep.m, "verify",
                         value=_serialize(rep.lhs), rhs=_serialize(rep.rhs),
                         residual=rep.residual, status=status)
    total = len(reports)
    click.echo(f"verify: {total - failures}/{total} checks passed", err=True)
    if failures:
        sys.exit(1)


@cli.command("deriv-check")
@click.option("--lambda", "lam_text", required=True)
@click.option("--t", "t_text", required=True)
@click.option("--r", "r_text", required=True)
@click.option("--order", type=int, required=True,
              help=f"Truncation order N, at most {ORDER_LIMIT}.")
@click.option("--tolerance", type=float, default=1e-10, show_default=True,
              help="Residual bound, finite and >= 0.")
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]), default="text")
@_usage_errors
def deriv_check(lam_text, t_text, r_text, order, tolerance, fmt):
    """Term-wise derivative vs. the closed form of d/dt of the generating function.

    Computes in float regardless of literal form (exact literals convert
    exactly).  Exit 1 when |A - B| exceeds the tolerance.
    """
    _check_bounds("--order", order, ORDER_LIMIT, tolerance)
    lam, t, r = _parse_literals([lam_text, t_text, r_text], "float")
    rep = derivative_interchange_check(lam, t, r, order)
    _finite(rep.closed_form, rep.partial_sum, rep.residual, rep.tail_budget)
    ok = rep.residual <= tolerance
    status = "pass" if ok else "fail"
    if fmt == "text":
        click.echo(f"closed_form={rep.closed_form!r}")
        click.echo(f"partial_sum={rep.partial_sum!r}")
        click.echo(f"residual={rep.residual!r}")
        click.echo(f"tail_budget={rep.tail_budget!r}")
        click.echo(f"status={status}")
    else:
        writer = RecordWriter(fmt)
        writer.write(rep.lam, order, "deriv-check",
                     value=rep.closed_form, rhs=rep.partial_sum,
                     residual=rep.residual, status=status)
        writer.write(rep.lam, order, "deriv-check-budget", value=rep.tail_budget)
    if not ok:
        sys.exit(1)


def main():
    cli()


if __name__ == "__main__":
    main()
