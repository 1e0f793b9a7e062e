import importlib
import re
from pathlib import Path

import pytest

SUBMODULES = ("bounds", "cli", "extremal", "linalg", "radii", "unitary")


@pytest.mark.parametrize("module", ["opradius", *(f"opradius.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined attributes: {missing}"


def test_package_names_each_module_name_once():
    # every public name is declared in its own module's __all__ only
    names = [name for m in ("bounds", "extremal", "linalg", "radii", "unitary")
             for name in importlib.import_module(f"opradius.{m}").__all__]
    package = importlib.import_module("opradius")
    assert package.__all__ == [*names, "__version__"]
    assert len(set(package.__all__)) == len(package.__all__)
    assert package.verify is importlib.import_module("opradius.extremal").verify


def test_readme_tour_runs():
    # the README's python block names only APIs that exist and runs as shown
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
