"""Every name a module lists in __all__ exists in that module."""
import importlib
import pkgutil

import pytest

import ektlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(ektlab.__path__))


def test_every_module_is_listed():
    assert {"cli", "embedding", "helicoid", "solver", "spaces"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ektlab.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
