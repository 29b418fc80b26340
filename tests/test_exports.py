"""Every name a ``chants`` module exports in ``__all__`` must exist, and
every name it imports must be used or exported."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import chants

MODULES = sorted(info.name for info in pkgutil.iter_modules(chants.__path__, prefix="chants."))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists names the module does not define: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used_or_exported(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - set(getattr(module, "__all__", [])))
    assert unused == [], f"{name} imports names it neither uses nor exports: {unused}"
