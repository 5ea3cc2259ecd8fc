"""Per-layer spans for the traced run.

``Tracer.install`` replaces every public function of the specsep layers,
and ``numpy.linalg.eigvalsh``, ``eigh`` and ``qr``, with a wrapper that
times the call and counts it.  Each replacement is made wherever callers
look the function up: in every specsep module namespace (``from .states
import partial_transpose`` makes a second binding), in dicts held by those
modules (the CLI's command table) and on ``numpy.linalg``.  Spans stay in
memory; a span's self time is its duration minus that of the wrapped calls
made inside it.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

LAYERS = ("states", "criteria", "witnesses", "channels", "oracles", "fileio", "cli")
LINALG = ("eigvalsh", "eigh", "qr")


class Span:
    __slots__ = ("calls", "self_s", "total_s", "units")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.units = 0


class Tracer:
    """Wraps functions, keeps a ``Span`` per name, and undoes the wrapping.

    ``units`` maps a name to a function of the call's result that counts
    the work units it did (samples searched, see-saw iterations).
    """

    def __init__(self, units=None):
        self.spans = {}
        self._units = units or {}
        self._stack = [0.0]
        self._undo = []

    def wrap(self, name, fn):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        count_units = self._units.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                stack[-1] += dur
                span.calls += 1
                span.self_s += dur - inner
                span.total_s += dur
            if count_units is not None:
                span.units += count_units(out)
            return out

        return traced

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self, package):
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[fn] = self.wrap("%s.%s" % (layer, name), fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, key, wrapped[value])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._set(value, k, wrapped[v])
        for name in LINALG:
            self._set(np.linalg, name, self.wrap("linalg." + name, getattr(np.linalg, name)))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
