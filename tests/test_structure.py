"""Module structure of the package: imports at module level only, no import cycle."""

import ast
import graphlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sqnls"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def _package_imports(tree: ast.Module) -> set[str]:
    # the package's modules that a module imports, relatively or as sqnls.<name>
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found.update(alias.name for alias in node.names)
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module == "sqnls":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("sqnls."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("sqnls."))
    return found & MODULES.keys()


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    inside = [f"{func.name}:{node.lineno}"
              for func in ast.walk(MODULES[name])
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []


def test_package_imports_are_acyclic():
    graph = {name: _package_imports(tree) for name, tree in MODULES.items()}
    # the parse finds the package and its imports
    assert graph["genus1"] >= {"phase_geometry", "scattering", "specfun"}
    # raises graphlib.CycleError, naming the cycle, if there is one
    order = list(graphlib.TopologicalSorter(graph).static_order())
    assert order.index("phase_geometry") < order.index("genus1")
