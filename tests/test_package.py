"""The public surface: every exported name resolves, every layer module imports, no import is unused."""

import ast
import importlib
from pathlib import Path

import pytest

import gegenkit

LAYERS = ("cli", "identity", "gegenbauer", "series", "polynomials", "coefficients", "fields")


def test_every_exported_name_resolves():
    assert [name for name in gegenkit.__all__ if not hasattr(gegenkit, name)] == []


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_module_imports(layer):
    module = importlib.import_module(f"gegenkit.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gegenkit").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read, except names listed in `__all__`."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
