import importlib

import pytest

import dirlap as dl


@pytest.mark.parametrize("module", ["graph", "generators", "operators", "semigroup", "spectral"])
def test_every_public_name_is_defined_and_re_exported(module):
    mod = importlib.import_module(f"dirlap.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"dirlap.{module}.__all__ names {name}, which it does not define"
        assert getattr(dl, name, None) is getattr(mod, name), f"dirlap does not re-export {module}.{name}"
