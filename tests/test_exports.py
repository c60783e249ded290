"""Every exported name resolves, so `from legfam import *` and tools that
walk the modules' __all__ keep working after a name is deleted."""

import ast
import importlib
import inspect

import pytest

import legfam

MODULES = (
    "bounds",
    "checks",
    "fcomplexity",
    "gf",
    "lambertw",
    "legendre_seq",
    "ntheory",
)


def _top_level_names(module) -> set[str]:
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_package_all_resolves():
    for name in legfam.__all__:
        assert hasattr(legfam, name), name
    namespace: dict = {}
    exec("from legfam import *", namespace)
    assert set(legfam.__all__) <= set(namespace)


@pytest.mark.parametrize("modname", MODULES)
def test_module_all_names_are_defined_there(modname):
    module = importlib.import_module(f"legfam.{modname}")
    defined = _top_level_names(module)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{modname}.{name} does not resolve"
        assert name in defined, f"{modname}.{name} is not defined in {modname}"
