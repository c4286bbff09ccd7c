"""Every public name the package advertises resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hpbl

MODULES = sorted(m.name for m in pkgutil.iter_modules(hpbl.__path__, "hpbl."))


def test_modules_found():
    assert "hpbl.fem" in MODULES and "hpbl.macro" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_resolve():
    tree = ast.parse(Path(hpbl.__file__).read_text())
    names = [a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names
    missing = [n for n in names if not hasattr(hpbl, n)]
    assert not missing, f"hpbl re-exports missing: {missing}"
