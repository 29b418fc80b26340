"""Every name a ``chants`` module exports in ``__all__`` must exist."""

import importlib
import pkgutil

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

