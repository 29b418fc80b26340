"""Every name a ``chants`` module exports in ``__all__`` must exist, every
name it imports must be used or exported, and only ``harness`` names the
keys of the checkpoint layout and the files of the run directory that
``pretrain`` writes."""

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


# the keys pretrain writes and load_pretrained reads; no other module may name them
LAYOUT_KEYS = {"train_config", "norm.mean", "norm.std"}
# the files of a run directory besides its checkpoints; pretrain alone writes them
RUN_FILES = {"manifest.json", "log.jsonl"}


def _docstrings(tree):
    bodies = (node.body for node in ast.walk(tree) if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)))
    return {id(body[0].value) for body in bodies if body and isinstance(body[0], ast.Expr)}


def _modules_naming(constants):
    """``{module: the sorted constants it holds outside docstrings}`` over the modules that hold one."""
    found = {}
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text(encoding="utf-8"))
        docstrings = _docstrings(tree)
        named = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in constants and id(node) not in docstrings
        }
        if named:
            found[name] = sorted(named)
    return found


def test_only_the_harness_names_the_checkpoint_layout():
    assert _modules_naming(LAYOUT_KEYS) == {"chants.harness": sorted(LAYOUT_KEYS)}


def test_only_the_harness_names_the_run_directory_files():
    assert _modules_naming(RUN_FILES) == {"chants.harness": sorted(RUN_FILES)}
