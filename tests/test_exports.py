"""Every name a module lists in __all__ exists in that module, every name
it imports is used there or exported, every top-level definition has a
consumer in the program, and every optional parameter has a caller there
that passes it."""
import ast
import importlib
import inspect
import math
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def _optional_parameters_without_caller():
    """module.function.parameter of each parameter with a default, of any
    function or method of the package, that no call site in the package
    passes by keyword or by position.  A call site is matched by the called
    name (a method's through an attribute, __init__ through its class); a
    call that passes *args or **kwargs counts as passing every parameter."""
    trees = {name: ast.parse(inspect.getsource(
        importlib.import_module(f"ektlab.{name}"))) for name in MODULES}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)

    def passed(call, index, name):
        return (index < len(call.args)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or any(kw.arg in (name, None) for kw in call.keywords))

    missing = set()

    def visit(node, qualname, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{qualname}.{child.name}", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                here = f"{qualname}.{child.name}"
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                # a bound call leaves self (or cls) out of its arguments
                shift = 1 if owner and not static else 0
                names = [child.name] + ([owner] if child.name == "__init__"
                                        else [])
                sites = [c for n in names for c in calls.get(n, [])]
                a = child.args
                positional = a.posonlyargs + a.args
                optional = [(i - shift, p.arg) for i, p in enumerate(
                    positional) if i >= len(positional) - len(a.defaults)]
                optional += [(math.inf, p.arg) for p, d in zip(
                    a.kwonlyargs, a.kw_defaults) if d is not None]
                for index, param in optional:
                    if not any(passed(c, index, param) for c in sites):
                        missing.add(f"{here}.{param}")
                visit(child, here, None)

    for name, tree in trees.items():
        visit(tree, name, None)
    return missing


def test_every_optional_parameter_has_a_program_caller():
    exempt = (ENTRY_POINT,) + tuple(REFERENCE_IMPLEMENTATIONS)
    missing = _optional_parameters_without_caller()
    assert sorted(m for m in missing
                  if not m.startswith(tuple(e + "." for e in exempt))) == []


def _bench_layers():
    """The LAYERS table of bench/layers.py, read from its source text."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/layers.py defines no LAYERS")


def test_bench_hooks_resolve_after_importing_the_cli():
    """The benchmark wraps these functions in the modules that importing
    the CLI loads; a deleted or renamed hook would break its run."""
    hooks = [tuple(e) for entries in _bench_layers().values() for e in entries]
    assert hooks
    hooks.append(("ektlab.solver", "solve_jenkins_serrin"))
    check = ("import sys, ektlab.cli\n"
             f"hooks = {hooks!r}\n"
             "print([f'{m}.{a}' for m, a in hooks if m not in sys.modules\n"
             "       or not callable(getattr(sys.modules[m], a, None))])\n")
    src = str(pathlib.Path(ektlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", check],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_quadrature_or_interpolation():
    """scipy.integrate (which pulls in scipy.optimize) is imported inside
    the helicoid quadrature routes, and the solver interpolates with
    scipy.spatial, so no command pays for them at start-up."""
    heavy = ("scipy.interpolate", "scipy.integrate", "scipy.optimize")
    check = ("import sys, ektlab.cli\n"
             f"print([m for m in {heavy!r} if m in sys.modules])\n")
    src = str(pathlib.Path(ektlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", check],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
