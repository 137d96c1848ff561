"""Package exports: every ``__all__`` entry resolves, the package
re-exports only names that its modules list in ``__all__``, and only the
package itself imports the test-reference module ``quadrature``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import xpharq

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
