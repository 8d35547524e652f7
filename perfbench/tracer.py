"""In-memory span tracer that observes moeqkd from outside the package.

The tracer never edits the package's source. It swaps selected functions for
timing wrappers in every ``moeqkd`` module namespace that binds them (a name
imported with ``from .quantum import x`` is a separate binding in the
importing module), and puts the originals back when the traced block ends.

A span is one call of a wrapped function: its name, start, end, the span that
was open when it began (its parent) and the experiment it belongs to. Spans
stay in flat arrays until the run ends, and are written out once. A span's
self time is its duration minus the durations of its direct children; self
times of all spans in one experiment add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.experiment_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self.experiment = -1
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        nid = self._name(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.experiment_id.append(self.experiment)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            return out

        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that its calls are counted but not timed."""
        self.counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def observer(self, name: str, fn):
        """Wrap ``fn`` so that its return values are kept but not timed."""
        kept = self.results.setdefault(name, [])

        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            kept.append(out)
            return out

        return observed

    @contextmanager
    def installed(self, spans, counters, observers):
        """Swap the listed functions for wrappers for the duration of the block.

        Each list holds ``(module, attribute path, name)`` triples; an attribute
        path like ``"KeyFunction.value"`` patches a method on its class. Lists
        are applied in order, so an observer of a function that is also a span
        wraps the span's wrapper and costs its caller, not the span.
        """
        undo = []
        try:
            for specs, make in ((spans, self.span), (counters, self.counter),
                                (observers, self.observer)):
                for module, path, name in specs:
                    undo += _patch(module, path, lambda fn, n=name: make(n, fn))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _durations(self) -> tuple[np.ndarray, np.ndarray]:
        parent = _copy(self.parent, np.int32)
        return parent, _copy(self.end, np.float64) - _copy(self.start, np.float64)

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(name id, self seconds) for every recorded span."""
        parent, dur = self._durations()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return _copy(self.name_id, np.int32), dur - covered

    def root_durations(self) -> np.ndarray:
        """Durations of the spans opened with no span open, one per experiment."""
        parent, dur = self._durations()
        return dur[parent < 0]

    def write(self, path: Path, t0: float) -> None:
        """Write every span, times relative to ``t0``, as one compressed file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=_copy(self.name_id, np.int32),
            parent=_copy(self.parent, np.int32),
            experiment=_copy(self.experiment_id, np.int32),
            start=_copy(self.start, np.float64) - t0,
            end=_copy(self.end, np.float64) - t0,
        )


def _copy(values: array, dtype) -> np.ndarray:
    # a copy, so the array buffer is not left exported and can still grow
    return np.frombuffer(values, dtype=dtype).copy()


def _patch(module_name: str, path: str, make) -> list[tuple[object, str, object]]:
    """Replace the object at ``module.path`` wherever moeqkd binds it."""
    module = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapper = make(original)
    if owner_path:
        setattr(owner, attr, wrapper)
        return [(owner, attr, original)]
    undo = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "moeqkd":
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                undo.append((mod, name, original))
    return undo
