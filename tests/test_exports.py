"""Every name a module lists in __all__ exists in that module, every name
it imports is used there or exported, and every top-level definition has a
consumer in the program."""
import ast
import importlib
import inspect
import pkgutil

import pytest

import ektlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(ektlab.__path__))

# the console script that pyproject.toml declares
ENTRY_POINT = "cli.main"

# reference implementations that tests compare program code against; they
# have no caller in the program by design
REFERENCE_IMPLEMENTATIONS = {
    "helicoid.blowup_half_period":
        "integrates the profile ODE to its pole, checked against t_mu",
    "helicoid.vertex_base_distance_quadrature":
        "quadrature route to the closed-form base distance that the "
        "catenoid march starts from",
    "curves.distance_to_geodesic_diameter":
        "equidistant oracle that checks the Frenet march",
}


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


def _definitions_without_consumer():
    """module.name of each top-level function or class of the package that
    no code of the package references outside the definition itself."""
    trees = {name: ast.parse(inspect.getsource(
        importlib.import_module(f"ektlab.{name}"))) for name in MODULES}
    refs = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((name, node.lineno, node.attr))
    missing = set()
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if not any(ref == node.name and not (
                    mod == name and node.lineno <= line <= node.end_lineno)
                    for mod, line, ref in refs):
                missing.add(f"{name}.{node.name}")
    return missing


def test_every_definition_has_a_program_consumer():
    missing = _definitions_without_consumer()
    assert sorted(missing - {ENTRY_POINT} - set(REFERENCE_IMPLEMENTATIONS)) == []
    # an entry whose definition gained a consumer or was deleted leaves the dict
    assert set(REFERENCE_IMPLEMENTATIONS) <= missing
