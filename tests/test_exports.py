"""Every name a module exports resolves, and the package exports exactly those."""

import importlib
import pkgutil

import pytest

import maxstorm

MODULES = ["maxstorm"] + [
    f"maxstorm.{info.name}" for info in pkgutil.iter_modules(maxstorm.__path__)
]
# Every module but the command line is library API.
LIBRARY = [name for name in MODULES[1:] if name != "maxstorm.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_each_library_module_all_once():
    assert len(set(maxstorm.__all__)) == len(maxstorm.__all__)
    expected = [n for name in LIBRARY for n in importlib.import_module(name).__all__]
    assert sorted(maxstorm.__all__) == sorted(expected)
