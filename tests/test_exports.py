"""Every name a qhaar module exports in __all__ must exist, so star imports work."""

import importlib
import pkgutil

import pytest

import qhaar

MODULES = ["qhaar"] + [f"qhaar.{info.name}" for info in pkgutil.iter_modules(qhaar.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
