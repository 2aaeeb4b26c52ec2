import importlib
import pkgutil

import pytest

import qregsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(qregsim.__path__, "qregsim."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
