"""Every name a module exports resolves to one of its attributes."""

import importlib
import pkgutil

import pytest

import maxstorm

MODULES = ["maxstorm"] + [
    f"maxstorm.{info.name}" for info in pkgutil.iter_modules(maxstorm.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
