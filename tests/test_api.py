import importlib
import importlib.util
import inspect
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import qregsim
import qregsim.cli

MODULES = sorted(info.name for info in pkgutil.iter_modules(qregsim.__path__, "qregsim."))

#: the modules whose public names the package re-exports
LIBRARY = ("config", "dynamics", "matexp", "model", "presets", "sector", "selfenergy", "spectral")


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


def test_run_entry_points():
    # run_preparations evolves several preparations of one model; the
    # one-preparation run_time_series keeps its signature, and the cli
    # reaches both at its own names
    assert qregsim.run_preparations is qregsim.dynamics.run_preparations
    assert list(inspect.signature(qregsim.run_time_series).parameters) == ["params", "prep", "grid"]
    assert list(inspect.signature(qregsim.run_preparations).parameters) == ["params", "preps", "grid"]
    assert qregsim.cli.run_preparations is qregsim.run_preparations
    assert qregsim.cli.run_time_series is qregsim.run_time_series


def test_every_traced_layer_resolves(monkeypatch):
    # perfbench's tracer wraps each (module, attribute) of its LAYERS table;
    # a moved or deleted name would otherwise fail only a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in spans.LAYERS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert spans.LAYERS and missing == []
