import importlib
import pkgutil
import types

import pytest

import qregsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(qregsim.__path__, "qregsim."))

#: the modules whose public names the package re-exports
LIBRARY = ("config", "dynamics", "matexp", "model", "presets", "sector", "spectral")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_each_library_name_once():
    lists = [importlib.import_module(f"qregsim.{name}").__all__ for name in LIBRARY]
    declared = [attr for names in lists for attr in names]
    assert len(declared) == len(set(declared))
    public = {
        attr
        for attr in dir(qregsim)
        if not attr.startswith("_") and not isinstance(getattr(qregsim, attr), types.ModuleType)
    }
    assert public == set(declared)
