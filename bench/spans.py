"""Tracing from outside the package.

Tracer.install() wraps every public function of each layer module and
rebinds every module attribute of the package that refers to one of them,
so calls made inside run_until, advance or intra_delay_study are seen as
well as the benchmark's own calls.  Spans (name, start, end, parent) are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("topology", "engine", "analysis", "experiments", "cli")


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans = []        # (name, start, end, parent index or -1)
        self.functions = set()  # "<layer>.<function>" of every wrapped function
        self._stack = []
        self._restore = []     # (module, attribute, original)

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
        return traced

    def install(self):
        wrapped = {}           # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self.functions.add(f"{layer}.{attr}")
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        modules = [m for name, m in sys.modules.items()
                   if name == self.package or name.startswith(self.package + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["index", "name", "start", "end", "parent"])
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([index, name, repr(start), repr(end), parent])

    def aggregate(self) -> dict:
        """Per span name: calls, total time, self time and each duration."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "durations": []})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - child_time[index]
            s["durations"].append(end - start)
        return stats
