"""Every public name the package and its modules export resolves, once."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_identities_and_fractions_out():
    # a verify run reads neither: the package resolves the identity names on
    # first use, the cli imports identities in its command only, and padic
    # imports fractions only for a non-int rational
    src = str(Path(dombcheck.__file__).resolve().parents[1])
    code = (
        "import sys, dombcheck.cli; "
        "print(sorted({'fractions', 'dombcheck.identities'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
    assert dombcheck.check_identity is importlib.import_module("dombcheck.identities").check_identity
