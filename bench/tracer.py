"""Span tracer for traced benchmark runs, built without touching the package.

``Tracer.install`` rebinds each instrumented public function in every
``pyrastab`` module that holds a reference to it, and each instrumented
method on its class, to a wrapper.  A span wrapper records
``(id, parent id, operation id, name, tag, start, end)``; a counter wrapper
only counts calls, for functions called tens of thousands of times per
operation.  ``uninstall`` restores the originals, so traced and untraced
passes can alternate in one process.  Spans stay in memory until
``write_spans`` at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self, functions=(), methods=()) -> None:
        """``functions``: (home module, attribute, metric name, mode, note);
        ``methods``: (class, attribute, metric name, mode, note).  Mode is
        "span" or "count"; ``note(tracer, args, kwargs, result, error)``
        may record counts and returns the span's tag or None."""
        self.functions = functions
        self.methods = methods
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack = [0]
        self._next_id = 1
        self._op_id = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            result = err = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                err = exc
                raise
            finally:
                end = _clock()
                tracer._stack.pop()
                tag = note(tracer, args, kwargs, result, err) if note else None
                tracer.spans.append((sid, parent, tracer._op_id, name, tag, start, end))

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation; its id tags every span inside."""
        sid = self._op_id = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans.append((sid, 0, sid, "op", kind, start, end))

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pyrastab" or name.startswith("pyrastab."))]
        for home, attr, name, mode, note in self.functions:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, mode, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for cls, attr, name, mode, note in self.methods:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, mode, note))

    def _wrap(self, name, fn, mode, note):
        if mode == "count":
            return self._counter(name, fn)
        return self._span(name, fn, note)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- reduction ---------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Span calls and self seconds by name, and by ``name.tag`` where a
        span carries a tag.  Self time is the span's duration minus the
        time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, _op, _name, _tag, start, end in self.spans:
            covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sid, _parent, _op, name, tag, start, end in self.spans:
            own = (end - start) - covered[sid]
            calls[name] += 1
            self_s[name] += own
            if tag is not None:
                self_s[f"{name}.{tag}"] += own
        return calls, self_s

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, parent, op, name, tag, start, end in self.spans:
                handle.write(json.dumps([sid, parent, op, name, tag, start, end]) + "\n")
