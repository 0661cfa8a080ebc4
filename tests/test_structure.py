"""Module structure of the package: imports at module level only, no import cycle,
no module importing another's private name, every function the benchmark
tracer wraps still found, and no public definition or private function that
nothing reaches."""

import ast
import graphlib
import importlib.util
import sys
from pathlib import Path

import pytest

import sqnls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sqnls"
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


def test_no_module_imports_a_private_name():
    # an underscore name belongs to its module: no other package module imports it
    private = [f"{name}: {node.module}.{alias.name}"
               for name, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level == 1 or (node.module or "").startswith("sqnls"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    # every name, attribute and imported name under node, and its strings if asked
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.asname or sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _is_all(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets)


def _unreached(kinds: tuple[type, ...], private: bool) -> tuple[int, list[str]]:
    # the number of top-level definitions of the kinds and privacy asked for,
    # and the names of those not reached: by a name, attribute or import in
    # another of the library's top-level statements (a string in __all__ does
    # not count), by the acceptance suite, or by a name or string in the
    # scripts of tools/ and perfbench/, which the tracer finds by name
    outside = _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    for path in sorted([*(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        outside |= _names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    stmts = [(stmt, _names(stmt)) for tree in MODULES.values() for stmt in tree.body
             if not _is_all(stmt)]
    defs = [stmt for stmt, _ in stmts
            if isinstance(stmt, kinds) and stmt.name.startswith("_") == private]
    return len(defs), [d.name for d in defs
                       if d.name not in outside
                       and not any(d.name in names for stmt, names in stmts if stmt is not d)]


def test_every_public_definition_is_reached():
    count, unreached = _unreached((ast.FunctionDef, ast.ClassDef), private=False)
    assert count > 50
    assert unreached == []


def test_every_private_function_is_reached():
    # no helper is left behind when its last caller goes
    count, unreached = _unreached((ast.FunctionDef,), private=True)
    assert count > 20
    assert unreached == []


def test_every_traced_function_resolves(monkeypatch):
    # perfbench/tracing.py wraps these by name after `import sqnls`; one it
    # cannot find is skipped, and every metric that needs it is dropped. The
    # harness is only read: no bytecode is written beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("sqnls_tracing_under_test",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [f"{layer}.{name}" for table in (tracing.SPANNED, tracing.COUNTED)
             for layer, names in table.items() for name in names]
    assert len(names) > 10
    assert [n for n in names if tracing.find_function(*n.split(".")) is None] == []
