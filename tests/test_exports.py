"""Every public name the package and its modules export resolves, once."""

import importlib
import pkgutil

import pytest

import dombcheck

MODULES = [dombcheck] + [
    importlib.import_module(f"dombcheck.{m.name}") for m in pkgutil.iter_modules(dombcheck.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), module.__name__
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, f"{module.__name__} exports undefined {missing}"
