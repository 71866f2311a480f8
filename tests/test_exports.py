import importlib
import types
from collections import Counter

import pytest

import dirlap as dl

MODULES = ["graph", "generators", "operators", "semigroup", "spectral"]


def declared_names():
    """Every entry of the five modules' ``__all__`` lists, repeats included."""
    return [name for module in MODULES for name in importlib.import_module(f"dirlap.{module}").__all__]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_defined_and_re_exported(module):
    mod = importlib.import_module(f"dirlap.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"dirlap.{module}.__all__ names {name}, which it does not define"
        assert getattr(dl, name, None) is getattr(mod, name), f"dirlap does not re-export {module}.{name}"


def test_each_public_name_is_declared_once():
    counts = Counter(declared_names())
    assert [name for name, count in counts.items() if count > 1] == []


def test_the_package_exports_exactly_the_declared_names():
    names = {name for name, value in vars(dl).items() if not isinstance(value, types.ModuleType)}
    public = {name for name in names if not name.startswith("_") or name == "__version__"}
    assert public == set(declared_names()) | {"__version__"}
