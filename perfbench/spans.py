"""Spans around the calls a verb makes into each qregsim layer.

The tracer replaces a function at the module attribute the caller looks it up
through (``qregsim.cli.run_time_series``, ``qregsim.dynamics.diagonalize``,
...) with a wrapper that records one span per call: name, start, end, parent
span and the verb invocation it belongs to. Spans stay in memory; the
per-layer metrics are computed from them after the traced pass.

Spans marked ``memory`` also record the tracemalloc peak above the memory
in use when the span started. tracemalloc runs only while such a span is
open, so layers outside them (CSV formatting in particular) are timed
without its per-allocation cost.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

MIB = 1024.0 * 1024.0


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Span | None
    op: int
    end: float = 0.0
    memory: bool = False
    owns_tracemalloc: bool = False
    mem_base: int = 0
    mem_peak: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_points(args, kwargs) -> dict[str, int]:
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    return {"points": grid.n_steps}


def _bytes_written(args, kwargs) -> dict[str, int]:
    path = kwargs["path"] if "path" in kwargs else args[0]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, record tracemalloc peak, counts of the call).
# Each attribute is the one the verbs call the layer through.
LAYERS = (
    ("qregsim.cli", "main", "cli.main", False, None),
    ("qregsim.cli", "run_time_series", "dynamics.run_time_series", True, _grid_points),
    ("qregsim.cli", "series_to_csv", "dynamics.series_to_csv", False, None),
    ("qregsim.cli", "write_atomic", "cli.write_atomic", False, _bytes_written),
    ("qregsim.cli", "format_config", "config.format_config", False, None),
    ("qregsim.cli", "build_h1", "model.build_h1", False, None),
    ("qregsim.cli", "diagonalize", "spectral.diagonalize", True, None),
    ("qregsim.cli", "secular_roots", "spectral.secular_roots", False, None),
    ("qregsim.dynamics", "build_h1", "model.build_h1", False, None),
    ("qregsim.dynamics", "diagonalize", "spectral.diagonalize", True, None),
)


class Tracer:
    """Context manager: installs the span wrappers on entry, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._ops = 0

    def __enter__(self) -> Tracer:
        for module_name, attr, name, memory, counts in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, memory, counts))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, memory, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._begin(name, memory)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(span)
            if counts is not None:
                span.counts = counts(args, kwargs)
            return result

        return wrapper

    def _begin(self, name: str, memory: bool) -> Span:
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._ops += 1
        span = Span(name, 0.0, parent, self._ops, memory=memory)
        if memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                span.owns_tracemalloc = True
            current, peak = tracemalloc.get_traced_memory()
            for outer in self._open:
                if outer.memory:
                    outer.mem_peak = max(outer.mem_peak, peak)
            tracemalloc.reset_peak()
            span.mem_base = span.mem_peak = current
        self._open.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.memory:
            span.mem_peak = max(span.mem_peak, tracemalloc.get_traced_memory()[1])
            for outer in self._open:
                if outer.memory:
                    outer.mem_peak = max(outer.mem_peak, span.mem_peak)
            if span.owns_tracemalloc:
                tracemalloc.stop()


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer totals over all spans: name -> (value, unit).

    A layer's self time is its span's duration minus that of its child
    spans; children never overlap, since every layer runs on one thread.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.duration
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(s.duration - child_time[id(s)] for s in by_name[name])

    def peak_mib(name: str) -> float:
        return max((s.mem_peak - s.mem_base for s in by_name[name]), default=0) / MIB

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in by_name[name])

    eval_self = self_total("dynamics.run_time_series")
    points = count("dynamics.run_time_series", "points")
    return {
        "spectral.diagonalize_s": (total("spectral.diagonalize"), "s"),
        "spectral.diagonalize_calls": (len(by_name["spectral.diagonalize"]), "count"),
        "spectral.secular_roots_s": (total("spectral.secular_roots"), "s"),
        "spectral.secular_roots_calls": (len(by_name["spectral.secular_roots"]), "count"),
        "dynamics.eval_self_s": (eval_self, "s"),
        "dynamics.grid_points_per_s": (points / eval_self if eval_self > 0 else 0.0, "1/s"),
        "model.build_h1_s": (total("model.build_h1"), "s"),
        "spectral.diagonalize_peak_mb": (peak_mib("spectral.diagonalize"), "MiB"),
        "dynamics.run_time_series_peak_mb": (peak_mib("dynamics.run_time_series"), "MiB"),
        "dynamics.series_to_csv_s": (total("dynamics.series_to_csv"), "s"),
        "cli.write_atomic_s": (total("cli.write_atomic"), "s"),
        "cli.bytes_written": (count("cli.write_atomic", "bytes"), "bytes"),
        "config.format_config_s": (total("config.format_config"), "s"),
        "cli.verb_self_s": (self_total("cli.main"), "s"),
    }

