"""Command-line front end: tables, evaluation, identity sweeps, derivative check.

Each command hands `_emit` its records, in the seven fields
lambda,m,check,value_or_lhs,rhs,residual,status, and the layout of its text
lines, and returns the exit code `_emit` gives.  `_emit` exits 2 on an inf or
nan float before writing a byte, then writes text, csv (the seven columns under
a header, cells joined by ',') or json lines (the same keys and values, lists as
arrays) in one loop.  `json` is imported only to write json, since every call is
a fresh process that pays for each import; csv needs no module, as no cell holds
a comma, quote or line break.  `fields.format_scalar`, the one writer of scalar
text ("p/q", q may be 1, or the shortest round-tripping decimal), is also the
json default, so an exact scalar is a quoted "p/q" string.  Results go to stdout.

Exit 0 -- every check passes; exit 1 -- a printed record's status is fail, that
is a mathematical check failed (`_emit` returns it); exit 2 --
a usage, domain or arithmetic error, a non-finite float, or output that could not
be written because the reader closed the pipe (reason on stderr, last line
`Error: <reason>`).

The front end is written by hand, not with click: every call is a fresh process,
and importing click took about a quarter of each.  `OPTIONS` is the one table of
options and `_COMMANDS` names each command's function and options.  An option is
read as `--name value` or `--name=value`; the value is the next argument whatever
it begins with, so `--t -2/7` reaches the library, and a repeated option keeps
its last value.  `--help` prints the group's or a command's help.  A usage error
is worded as click words it.  `cli()` reads `sys.argv[1:]` (the console script),
and `cli.main(args=..., prog_name=...)` is the call `click.testing.CliRunner`
makes.

Scalar literals: `fields.parse_scalar` reads each one, and the type it returns
is the literal's kind.  An integer (int) fits either mode, "p/q" (Fraction) is
exact and a decimal/scientific literal (float) is float; mixing "p/q" with
decimal literals in one invocation is a usage error.  The literals are read in
order and the first that does not parse is named, before any mixing or --mode
conflict.
"""

from __future__ import annotations

import math
import os
import re
import sys
from fractions import Fraction
from itertools import chain

from .fields import EXACT, format_scalar, parse_scalar
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
"""Largest exact `verify --m-max`: O(m^2) big-by-small products, about 1.1 s end to end for
one lambda = 7/3 and 2 s for 355/113."""
ORDER_LIMIT = 1_000
"""Largest `table --order`, on either route: a table of O(N^2) entries, each one product on the
composition route.  End to end at lam = 17/7 and N = 1000 the table takes about 7 s on the
composition route and 6 s on the recurrence route.
"""

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
    """Infer the mode from the literals (or check it against --mode) and parse them in it.

    In float mode an exact literal past 1.8e308, and any nonzero literal that rounds to
    0.0, is refused by name.
    """
    values = [parse_scalar(text) for text in literals]
    kinds = {type(v) for v in values}
    if Fraction in kinds and float in kinds:
        raise ValueError("cannot mix exact 'p/q' literals and float literals in one invocation")
    if mode_flag == "exact" and float in kinds:
        raise ValueError("float literal given together with --mode exact")
    mode = mode_flag or ("float" if float in kinds else "exact")
    try:
        values = [float(v) for v in values] if mode == "float" else [EXACT.coerce(v) for v in values]
    except OverflowError:
        raise ValueError("an exact literal does not fit a float (magnitude above 1.8e308)") from None
    # a literal is nonzero when a digit 1-9 comes before any '/', 'e' or 'E'
    if any(not v and re.match(r"[^eE/]*[1-9]", text) for v, text in zip(values, literals)):
        raise ValueError("a nonzero literal underflows to 0.0 as a float (magnitude below 2.5e-324)")
    return values


def _cell(value) -> str:
    """Text and CSV form of a scalar field: '' for None, a tuple of coefficients space-separated."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return " ".join(map(format_scalar, value))
    return format_scalar(value)


def _emit(fmt: str, records: list[tuple], text=lambda rows: (row[3] for row in rows)) -> int:
    """Write `records` (tuples of FIELDS) to stdout in `fmt`, formatting one row at a time, and
    return the command's exit code: 1 if a record's status is fail, else 0.

    Raises OverflowError before any write if a float in them is inf or nan.
    `text` maps the rows, as tuples of cells, to the lines of --format text.  A cell is "p/q"
    digits, a float repr, space-separated coefficients or a fixed word, so a csv line is its
    cells joined by ',' and needs no quoting.
    """
    scalars = (v for record in records for field in record
               for v in (field if isinstance(field, tuple) else (field,)))
    if any(isinstance(v, float) and not math.isfinite(v) for v in scalars):
        raise OverflowError("result is not finite")
    rows = ((_cell(lam), str(m), check, _cell(value), _cell(rhs), _cell(residual), status)
            for lam, m, check, value, rhs, residual, status in records)
    if fmt == "json":
        import json

        lines = (json.dumps(dict(zip(FIELDS, record)), default=format_scalar) for record in records)
    else:
        lines = map(",".join, chain([FIELDS], rows)) if fmt == "csv" else text(rows)
    for line in lines:
        sys.stdout.write(line + "\n")
    return 1 if any(record[-1] == "fail" for record in records) else 0


OPTIONS = {
    "--lambda": (str, ..., "Order parameter lambda > 0."),
    "--lambda-list": (str, ..., "Comma-separated lambda values, each lambda > 0."),
    "--degree": (int, ..., f"Degree m, at most {M_MAX_LIMIT}."),
    "--m-max": (int, ..., f"Largest m, at most {EXACT_M_MAX_LIMIT} exact or {M_MAX_LIMIT} float."),
    "--order": (int, ..., f"Largest degree N: table at most {ORDER_LIMIT}, deriv-check at most "
                          f"{M_MAX_LIMIT}."),
    "--t": (str, ..., "Point t: any finite magnitude for eval, in [-1, 1] for deriv-check."),
    "--r": (str, ..., "Series variable r in [0, 1)."),
    "--route": (("composition", "recurrence"), "composition", ""),
    "--mode": (("exact", "float"), None,
               "Default: float if any literal is a decimal, else exact (p/q or integer)."),
    "--format": (("text", "csv", "json"), "text", ""),
    "--tolerance": (float, 1e-10, "Residual bound, finite and >= 0 (verify: float mode only)."),
}
"""The one table of options: flag -> (type, default, help).

The type is `str`, `int` or `float`, and a value is converted by calling it, or a tuple of
choices.  A default of `...` makes the option required.
"""
_METAVARS = {str: "TEXT", int: "INTEGER", float: "FLOAT"}


def _parse(flags: tuple, args: list) -> list | None:
    """The values of the options `flags`, in that order, read from `args`; None on --help."""
    given = {}
    while args:
        arg = args.pop(0)
        flag, eq, value = arg.partition("=")
        if arg == "--help":
            return None
        if flag not in flags:
            raise ValueError(f"No such option '{flag}'." if arg.startswith("-")
                             else f"Got unexpected extra argument ({arg})")
        if not (eq or args):
            raise ValueError(f"Option '{flag}' requires an argument.")
        given[flag] = value if eq else args.pop(0)
    values = []
    for flag in flags:
        (kind, default, _), value = OPTIONS[flag], given.get(flag)
        if value is None and default is ...:
            raise ValueError(f"Missing option '{flag}'.")
        try:  # a tuple of choices gives back its own entry, or raises ValueError
            values.append(default if value is None else
                          kind(value) if kind in _METAVARS else kind[kind.index(value)])
        except ValueError:
            what = (f"a valid {_METAVARS[kind].lower()}" if kind in _METAVARS
                    else f"one of {', '.join(map(repr, kind))}")
            raise ValueError(f"Invalid value for '{flag}': {value!r} is not {what}.") from None
    return values


def _option_row(flag: str) -> tuple:
    """The two help columns of an option: flag and metavar, then help, default or [required]."""
    kind, default, text = OPTIONS[flag]
    mark = "[required]" if default is ... else "" if default is None else f"[default: {default}]"
    return f"{flag} {_METAVARS.get(kind) or '[' + '|'.join(kind) + ']'}", f"{text}  {mark}".strip()


def _help(usage: str, function, flags: tuple) -> str:
    """The help of a command, or with no `flags` the group's: usage, docstring, two-column rows."""
    sections = {"Options": [*map(_option_row, flags), ("--help", "Show this message and exit.")]}
    if not flags:
        sections["Commands"] = [(name, (command.__doc__ or "").split("\n", 1)[0])
                                for name, (command, _) in sorted(_COMMANDS.items())]
    # a blank line, then the docstring; python -OO leaves no docstring
    doc = ("\n" + function.__doc__.strip()).splitlines() if function.__doc__ else []
    lines = [f"Usage: {usage}", *(f"  {line.strip()}".rstrip() for line in doc)]
    for title, rows in sections.items():
        width = max(len(left) for left, _ in rows) + 2
        lines += ["", f"{title}:", *(f"  {left:<{width}}{right}".rstrip() for left, right in rows)]
    return "\n".join(lines) + "\n"


def cli(args=None, prog_name=None):
    """Gegenbauer polynomial tables, evaluation, and identity checks."""
    args = list(sys.argv[1:] if args is None else args)
    name = args.pop(0) if args else ""
    function, flags = _COMMANDS.get(name, (cli, ()))
    path = (prog_name or os.path.basename(sys.argv[0])) + (f" {name}" if flags else "")
    usage = f"{path} [OPTIONS]" if flags else f"{path} [OPTIONS] COMMAND [ARGS]..."
    try:
        if not (flags or name == "--help"):
            flag = name.partition("=")[0]
            raise ValueError(f"No such option '{flag}'." if flag.startswith("-") else
                             f"No such command '{name}'." if name else "Missing command.")
        values = _parse(flags, args) if flags else None
        if values is None:
            sys.stdout.write(_help(usage, function, flags))
        code = 0 if values is None else function(*values)
        sys.stdout.flush()
    except ValueError as exc:
        message = str(exc)
    except OverflowError as exc:
        message = f"float overflow: {exc.args[-1]}"
    except ArithmeticError as exc:
        message = f"arithmetic defect: {exc}"
    except BrokenPipeError:
        # the reader is gone: what is still buffered, and the flush at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("Error: output could not be written: the reader closed the pipe\n")
        sys.exit(2)
    else:
        sys.exit(code)
    sys.stderr.write(f"Usage: {usage}\nTry '{path} --help' for help.\n\nError: {message}\n")
    sys.exit(2)


cli.name = "cli"
cli.main = cli


def table(lam_text, order, route, mode, fmt):
    """Print one row per degree m with the coefficients of C_m, lowest power first."""
    _check_bounds("--order", order, ORDER_LIMIT)
    (lam,) = _parse_literals([lam_text], mode)
    tbl = GegenbauerTable(GegenbauerParams(lam, order), route)
    return _emit(fmt, [(lam, m, route, poly.coeffs, None, None, "ok")
                       for m, poly in enumerate(tbl.polys)],
                 lambda rows: (f"m={row[1]}: {row[3]}" for row in rows))


def eval_cmd(lam_text, degree, t_text, mode, fmt):
    """Evaluate C_degree at t by the three-term recurrence on values at t (no table).

    Float mode runs in floats; exact mode runs in integers and stays exact.
    """
    _check_bounds("--degree", degree, M_MAX_LIMIT)
    lam, t = _parse_literals([lam_text, t_text], mode)
    value = value_via_recurrence(lam, degree, t)
    return _emit(fmt, [(lam, degree, "eval", value, None, None, "ok")])


def at_one(lam_text, degree, mode, fmt):
    """C_degree(1) by the closed form (2 lambda)_degree / degree!."""
    _check_bounds("--degree", degree, M_MAX_LIMIT)
    (lam,) = _parse_literals([lam_text], mode)
    return _emit(fmt, [(lam, degree, "at-one", value_at_one(lam, degree), None, None, "ok")])


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
    code = _emit(fmt, [(rep.lam, rep.m, "verify", rep.lhs, rep.rhs, rep.residual,
                        "pass" if ok else "fail") for rep, ok in zip(reports, passed)],
                 lambda rows: (f"lambda={lam} m={m} lhs={lhs} rhs={rhs}"
                               + (f" residual={residual}" if residual else "") + f" status={status}"
                               for lam, m, _, lhs, rhs, residual, status in rows))
    print(f"verify: {sum(passed)}/{len(reports)} checks passed", file=sys.stderr)
    return code


def _deriv_lines(rows):
    (*_, closed_form, partial_sum, residual, status), (*_, budget, _, _, _) = rows
    return [f"closed_form={closed_form}", f"partial_sum={partial_sum}", f"residual={residual}",
            f"tail_budget={budget}", f"status={status}"]


def deriv_check(lam_text, t_text, r_text, order, tolerance, fmt):
    """Term-wise derivative vs. the closed form of d/dt of the generating function.

    Computes in float regardless of literal form (exact literals convert
    exactly).  Exit 1 when |A - B| exceeds the tolerance.
    """
    _check_bounds("--order", order, M_MAX_LIMIT, tolerance)
    lam, t, r = _parse_literals([lam_text, t_text, r_text], "float")
    rep = derivative_interchange_check(lam, t, r, order)
    return _emit(fmt, [(lam, order, "deriv-check", rep.closed_form, rep.partial_sum, rep.residual,
                        "pass" if rep.residual <= tolerance else "fail"),
                       (lam, order, "deriv-check-budget", rep.tail_budget, None, None, "ok")],
                 _deriv_lines)


_COMMANDS = {
    "table": (table, ("--lambda", "--order", "--route", "--mode", "--format")),
    "eval": (eval_cmd, ("--lambda", "--degree", "--t", "--mode", "--format")),
    "at-one": (at_one, ("--lambda", "--degree", "--mode", "--format")),
    "verify": (verify, ("--lambda-list", "--m-max", "--mode", "--format", "--tolerance")),
    "deriv-check": (deriv_check, ("--lambda", "--t", "--r", "--order", "--tolerance", "--format")),
}
"""Command name -> (function, its options in `OPTIONS`).

The function takes the options' values in that order and returns the exit code of `_emit`: 1
when a record it printed has status fail, that is a mathematical check failed, else 0.
"""


if __name__ == "__main__":
    cli(prog_name="python -m gegenkit.cli")
