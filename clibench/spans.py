"""In-memory span tracer that wraps a package's public functions.

`Tracer.install()` replaces every public function bound in a
`package.<module>` namespace with a wrapper that records one span per call:
span id, parent span id, call id, name, start, end, thread and optional
counts. A function imported into several modules gets one wrapper, named
after the module that defines it, and is replaced in each namespace, so
calls between modules are traced too; the listed methods are wrapped as
well. `uninstall` restores the originals.

Parents are tracked per thread. A span opened in a worker thread has no
parent, so a caller's self time includes the time it waits for its pool.
Spans stay in memory; `summary` folds them into per-name totals and
self times (duration minus the time covered by direct children).
"""

from __future__ import annotations

import functools
import itertools
import pkgutil
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

# (args, result) -> counts added to the span
Probe = Callable[[tuple, object], dict[str, float]]


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    call_id: int
    name: str
    start: float
    end: float
    thread: int
    counts: dict[str, float] | None


class Tracer:
    def __init__(
        self,
        package: types.ModuleType,
        methods: tuple[tuple[type, str], ...] = (),
        probes: dict[str, Probe] | None = None,
    ):
        self.package = package
        self.methods = methods
        self.spans: list[Span] = []
        self.call_id = 0  # set by the caller before each traced request
        self._probes = probes or {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.names: set[str] = set()  # every wrapped function

    def _wrap(self, name: str, fn: Callable) -> Callable:
        self.names.add(name)
        probe = self._probes.get(name)
        ids, local, spans = self._ids, self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                # probes run after the span closes; their cost lands in the
                # parent's self time and in the tracing overhead
                counts = probe(args, result) if probe is not None and result is not None else None
                spans.append(
                    Span(span_id, parent, self.call_id, name, start, end, threading.get_ident(), counts)
                )

        return traced

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        package = self.package
        prefix = package.__name__ + "."
        modules = [
            sys.modules[prefix + info.name]
            for info in pkgutil.iter_modules(package.__path__)
            if prefix + info.name in sys.modules
        ]
        wrappers: dict[int, Callable] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith(prefix)
                ):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__[len(prefix):]}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(name, value)
                self._patch(module, attr, wrappers[id(value)])
        for owner, attr in self.methods:
            name = f"{owner.__module__[len(prefix):]}.{owner.__name__}.{attr}"
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {calls, s, self_s, <count>...}, summed over all spans."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.end - span.start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = out[span.name]
            duration = span.end - span.start
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - covered[span.span_id]
            for key, value in (span.counts or {}).items():
                row[key] = row.get(key, 0) + value
        return dict(out)
