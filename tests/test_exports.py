"""Every exported name resolves, so `from legfam import *` and tools that
walk the modules' __all__ keep working after a name is deleted; every
size refusal in the package goes through the one budget gate; and no
module imports another one's private constant."""

import ast
import importlib
import inspect
import re
from pathlib import Path

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


SOURCES = sorted(Path(legfam.__file__).parent.glob("*.py"))

# gf._require_budget is the one comparison against DEFAULT_ENUM_BUDGET;
# crossover_prime raises BudgetExceededError too, for a search that found
# no prime below its limit rather than for a size
BUDGET_GATE = "_require_budget"
BUDGET_RAISERS = {BUDGET_GATE, "crossover_prime"}


def _mentions(node, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name or isinstance(n, ast.Attribute) and n.attr == name
        for n in ast.walk(node)
    )


def _budget_gate_violations(source: str) -> list[str]:
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare) and func != BUDGET_GATE:
            if any(_mentions(op, "DEFAULT_ENUM_BUDGET") for op in (node.left, *node.comparators)):
                found.append(f"line {node.lineno}: {func} compares against DEFAULT_ENUM_BUDGET")
        if isinstance(node, ast.Raise) and node.exc is not None and func not in BUDGET_RAISERS:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _mentions(exc, "BudgetExceededError"):
                found.append(f"line {node.lineno}: {func} raises BudgetExceededError")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_size_refusal_goes_through_the_budget_gate(path):
    assert _budget_gate_violations(path.read_text(encoding="utf-8")) == []


def test_budget_guard_flags_a_gate_written_out():
    # a grid gate of its own, as cli once had
    source = """
def _check_grid_budget(what, length):
    if length > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(
            f"the {what} holds {length} values, grid budget is {DEFAULT_ENUM_BUDGET}"
        )
"""
    assert _budget_gate_violations(source) == [
        "line 3: _check_grid_budget compares against DEFAULT_ENUM_BUDGET",
        "line 4: _check_grid_budget raises BudgetExceededError",
    ]


# a private constant such as a block size belongs to the module that
# defines it; a second module importing it sizes its own work by the
# first one's setting
PRIVATE_CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")


def _private_constant_imports(source: str) -> list[str]:
    return [
        f"line {node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if PRIVATE_CONSTANT.fullmatch(alias.name)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_constant(path):
    assert _private_constant_imports(path.read_text(encoding="utf-8")) == []


def test_private_constant_guard_flags_an_import():
    # a block size read from another module, as checks once did
    source = """
from .gf import _SIEVE_BLOCK, ExtField, _frobenius
from .ntheory import PRIMALITY_LIMIT
"""
    assert _private_constant_imports(source) == ["line 2: _SIEVE_BLOCK from .gf"]
