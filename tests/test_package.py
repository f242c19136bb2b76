"""The public surface: every exported name resolves and every layer module imports."""

import importlib

import pytest

import gegenkit

LAYERS = ("cli", "identity", "gegenbauer", "series", "polynomials", "coefficients", "fields")


def test_every_exported_name_resolves():
    assert [name for name in gegenkit.__all__ if not hasattr(gegenkit, name)] == []


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_module_imports(layer):
    module = importlib.import_module(f"gegenkit.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
