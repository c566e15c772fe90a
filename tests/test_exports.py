"""Every name a module lists in __all__ exists in that module, and every
name it imports is used there or exported."""
import ast
import importlib
import inspect
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


def _module_names(name):
    """Names the module imports at any level, and names it reads."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"ektlab.{name}")))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    imported, used = _module_names(name)
    exported = set(getattr(importlib.import_module(f"ektlab.{name}"), "__all__", []))
    assert sorted(imported - used - exported) == []
