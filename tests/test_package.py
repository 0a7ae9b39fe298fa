"""Package surface: every module's __all__ names only what the module has."""

import importlib
import pkgutil

import pytest

import rtikit

MODULES = sorted(m.name for m in pkgutil.iter_modules(rtikit.__path__, "rtikit."))


def test_every_module_is_found():
    assert "rtikit.geometry" in MODULES and "rtikit.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_only_existing_attributes(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} exports nothing"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
