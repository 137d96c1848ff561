"""Package exports: every ``__all__`` entry resolves, the package
re-exports only names that its modules list in ``__all__``, only the
package itself imports the test-reference module ``quadrature``, which
imports nothing from the package but ``core``, the runtime dependencies in ``pyproject.toml`` are the third-party packages
that ``src/`` imports, ``Estimate`` is the one result type that a
``ConvergenceError`` carries, and every name the benchmark scripts take
from the package resolves."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import xpharq
from xpharq import bounds, sweep

MODULES = sorted(m.name for m in pkgutil.iter_modules(xpharq.__path__))


def test_every_all_entry_resolves():
    assert "simulate" in MODULES
    for name in MODULES:
        if name == "cli":  # the console entry point exports nothing
            continue
        module = importlib.import_module(f"xpharq.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)
        assert len(set(module.__all__)) == len(module.__all__), name


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(xpharq.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert len(imports) == len(MODULES) - 1  # every module but cli
    for node in imports:
        assert node.level == 1, node.module
        listed = importlib.import_module(f"xpharq.{node.module}").__all__
        unlisted = [alias.name for alias in node.names if alias.name not in listed]
        assert not unlisted, (node.module, unlisted)


def test_only_the_package_imports_the_quadrature_references():
    importers = []
    for path in sorted(Path(xpharq.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for a in node.names for p in a.name.split(".")]
            else:
                continue
            if "quadrature" in parts:
                importers.append((path.name, node.lineno))
    assert not importers


def test_the_quadrature_references_import_only_core():
    # a reference that took the recursion's nodes, panels or interpolants
    # would check the recursion against itself
    path = Path(xpharq.__file__).parent / "quadrature.py"
    package = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("xpharq")):
            package.append((node.level, node.module))
        elif isinstance(node, ast.Import):
            package += [(0, a.name) for a in node.names if a.name.split(".")[0] == "xpharq"]
    assert package == [(1, "core")]


def test_runtime_dependencies_are_the_third_party_imports():
    # scipy and mpmath are test references: a runtime import of either, or a
    # declared dependency that nothing imports, fails here
    tomllib = pytest.importorskip("tomllib")
    package = Path(xpharq.__file__).parent
    with open(package.parents[1] / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_")
                    for d in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"xpharq"}
    assert third_party == declared


def _identifiers(node: ast.AST):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, (ast.arg, ast.keyword)):
        yield node.arg
    elif isinstance(node, ast.alias):
        yield node.name


def test_convergence_errors_carry_one_estimate():
    # a ConvergenceError takes a message and at most an Estimate; the
    # second result type and the loose payload attributes stay gone
    retired = {"IntegrationResult", "best_estimate", "error_estimate", "abs_error_estimate"}
    raised, found = 0, []
    for path in sorted(Path(xpharq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            found += [(path.name, name) for name in _identifiers(node) if name in retired]
            if not (isinstance(node, ast.Call) and "ConvergenceError" in _identifiers(node.func)):
                continue
            raised += 1
            keywords = [k.arg for k in node.keywords]
            assert len(node.args) + len(keywords) <= 2, (path.name, node.lineno)
            assert set(keywords) <= {"estimate"}, (path.name, node.lineno, keywords)
    assert raised >= 5
    assert not found, found


def test_the_benchmark_scripts_resolve_every_package_name():
    # the benchmark scripts are kept unchanged across commits, so a name
    # they import, or the tracer patches by attribute, has to stay
    bench = Path(xpharq.__file__).parents[2] / "benchmarks"
    scripts = sorted(bench.glob("*.py"))
    assert scripts
    missing, imported = [], 0
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names if a.name.split(".")[0] == "xpharq"]
                for name in modules:
                    importlib.import_module(name)
                imported += len(modules)
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "xpharq"):
                module = importlib.import_module(node.module)
                missing += [(path.name, node.module, a.name) for a in node.names
                            if not hasattr(module, a.name)]
                imported += len(node.names)
    assert imported >= 6
    assert not missing, missing
    assert isinstance(bounds.Chebyshev, type) and hasattr(bounds.Chebyshev, "interpolate")
    assert callable(sweep._compute_row)
    assert "budget" in inspect.signature(xpharq.outage_upper_ir).parameters
