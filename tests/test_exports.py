"""Every name a module lists in ``__all__`` resolves, so deleting a
function or class cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import orientlab

MODULES = ["orientlab", *(f"orientlab.{m.name}" for m in pkgutil.iter_modules(orientlab.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

