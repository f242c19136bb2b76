"""The public surface: every exported name resolves, every layer module imports, no import is unused."""

import ast
import importlib
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


ROOT = Path(__file__).resolve().parent.parent
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
