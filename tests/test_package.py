"""The public surface: every exported name resolves, every layer module imports, no import is unused."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gegenkit

LAYERS = ("cli", "identity", "gegenbauer", "series", "polynomials", "coefficients", "fields")


def test_every_exported_name_resolves():
    assert [name for name in gegenkit.__all__ if not hasattr(gegenkit, name)] == []


def test_package_all_is_the_layers_all_in_order():
    library = [importlib.import_module(f"gegenkit.{layer}") for layer in
               ("fields", "coefficients", "polynomials", "series", "gegenbauer", "identity")]
    names = [name for module in library for name in module.__all__]
    assert gegenkit.__all__ == names
    assert len(set(names)) == len(names)
    assert [name for module in library for name in module.__all__
            if getattr(gegenkit, name) is not getattr(module, name)] == []


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_module_imports(layer):
    module = importlib.import_module(f"gegenkit.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_names_the_benchmark_harness_reaches():
    # perfbench/ imports these names, patches `evaluate` on the class itself and reads these
    # record fields: breaking one must fail here, not only in the slower benchmark smoke
    from gegenkit import fields, gegenbauer, identity, polynomials, series

    assert series.compose_inner_polynomial is gegenbauer.compose_inner_polynomial
    assert "evaluate" in vars(polynomials.Polynomial)
    assert inspect.isclass(fields.CoefficientField)
    lam = Fraction(7, 3)
    tbl = gegenbauer.table_via_recurrence(gegenbauer.GegenbauerParams(lam, 6))
    assert [sum(row.coeffs) for row in tbl.polys] == [gegenbauer.value_at_one(lam, m)
                                                      for m in range(7)]
    assert list(inspect.signature(gegenbauer.value_via_conjugate_product).parameters) == [
        "lam", "phi", "m"]
    for record, read in [
        (gegenbauer.ConjugateValue, {"value", "imag_residue", "within_tolerance"}),
        (gegenbauer.DerivativeInterchangeReport, {"closed_form", "partial_sum", "residual"}),
        (identity.IdentityReport, {"lam", "m", "lhs", "rhs", "exact_equal"}),
    ]:
        assert read <= set(record._fields), record.__name__
    assert identity.verify(lam, 3).passed() is True


ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """The environment of a fresh interpreter that imports gegenkit from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def modules_loaded_by(statement: str) -> set:
    """The names in `sys.modules` of a fresh interpreter once it has run `statement`."""
    code = f"import sys\n{statement}\nprint(*sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_cli_start_up_loads_only_what_commands_use():
    # every command runs in a fresh process, so each module loaded here is paid on every call;
    # json loads only in the branch that writes json, and csv output needs no module
    loaded = modules_loaded_by("import gegenkit.cli")
    assert "gegenkit.cli" in loaded
    assert loaded & {"dataclasses", "csv", "json", "cmath", "click"} == set()


def test_commands_run_without_click():
    # a fresh interpreter in which `import click` fails runs `gegenkit.cli` as __main__ on the
    # first golden case of each command and the first that exits 2
    cases = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
    firsts = {case["args"][0]: case for case in reversed(cases)}
    picked = [*firsts.values(), next(case for case in cases if case["exit_code"] == 2)]
    code = ("import runpy, sys\nsys.modules['click'] = None\n"
            "runpy.run_module('gegenkit.cli', run_name='__main__')")
    for case in picked:
        run = subprocess.run([sys.executable, "-c", code, *case["args"]], capture_output=True,
                             env=child_env(), encoding="utf-8")
        assert (run.returncode, run.stdout) == (case["exit_code"], case["stdout"]), case["args"]


def test_commands_run_under_OO():
    # python -OO strips every docstring: help is still written, and the first golden case of
    # each command prints its golden bytes
    cases = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
    firsts = {case["args"][0]: case for case in reversed(cases)}

    def run(args):
        return subprocess.run([sys.executable, "-OO", "-m", "gegenkit.cli", *args],
                              capture_output=True, env=child_env(), encoding="utf-8")

    for args in (["--help"], ["table", "--help"]):
        res = run(args)
        lines = res.stdout.splitlines()
        # no docstring between the usage line and the options
        assert (res.returncode, lines[0][:7], lines[1:3]) == (0, "Usage: ", ["", "Options:"]), args
    for case in firsts.values():
        res = run(case["args"])
        assert (res.returncode, res.stdout) == (case["exit_code"], case["stdout"]), case["args"]


def test_csv_runs_import_no_csv():
    # a fresh interpreter in which `import csv` fails runs `gegenkit.cli` as __main__ on every
    # golden --format csv case: a csv line is its cells joined by ','
    cases = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
    code = ("import runpy, sys\nsys.modules['csv'] = sys.modules['_csv'] = None\n"
            "runpy.run_module('gegenkit.cli', run_name='__main__')")
    picked = [case for case in cases if ("--format", "csv") in zip(case["args"], case["args"][1:])]
    assert len(picked) >= 10
    for case in picked:
        run = subprocess.run([sys.executable, "-c", code, *case["args"]], capture_output=True,
                             env=child_env(), encoding="utf-8")
        assert (run.returncode, run.stdout) == (case["exit_code"], case["stdout"]), case["args"]


def test_library_import_does_not_load_click():
    loaded = modules_loaded_by("import gegenkit")
    assert "gegenkit.identity" in loaded and "click" not in loaded
    assert "gegenkit.cli" not in loaded


SOURCES = sorted((ROOT / "src" / "gegenkit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read, except names listed in `__all__`.

    `from .m import *` is kept under the key `*m.__all__`: it counts as read when
    `__all__` splices `m.__all__`, and is reported under that key otherwise.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    bound[f"*{node.module}.__all__"] = node.lineno
                else:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {ast.unparse(elt) if isinstance(elt, ast.Starred) else elt.value
                        for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


STAR_SOURCES = {
    "spliced": ("from . import fields\nfrom .fields import *\n__all__ = [*fields.__all__]\n", []),
    "not_spliced": ("from . import fields\nfrom .fields import *\n__all__ = [*fields.__all__]\n"
                    "from .series import *\n", ["*series.__all__ (line 4)"]),
    "no_all": ("from .fields import *\n", ["*fields.__all__ (line 1)"]),
    "plain_unused": ("from . import fields\nimport math\n__all__ = [*fields.__all__]\n",
                     ["math (line 2)"]),
}


@pytest.mark.parametrize("case", STAR_SOURCES)
def test_star_import_counts_as_read_only_when_its_all_is_spliced(case):
    source, expected = STAR_SOURCES[case]
    assert unused_imports(ast.parse(source)) == expected
