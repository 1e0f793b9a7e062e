import importlib

import pytest

SUBMODULES = ("bounds", "cli", "extremal", "linalg", "radii", "unitary")


@pytest.mark.parametrize("module", ["opradius", *(f"opradius.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined attributes: {missing}"

