"""Spans recorded from outside the program, and the arithmetic on them.

The traced pass of the benchmark wraps the public functions of each layer
of ``repro`` (layer = module name) with span-recording wrappers, runs the
same calls the untraced pass timed, and removes the wrappers again.
Nothing under ``src/`` knows it is being traced: a module-level function is
rebound in its defining module *and* in every loaded ``repro`` module that
imported it by name (``from x import f``), a method is rebound on its class.

A span is the list ``[name, start, end, parent, calls, busy]``.  ``parent``
is the index of the span that was open when this one started (``-1`` for a
root).  Ordinary spans have ``calls == 1`` and ``busy == end - start``.
Per-record functions (a compiled UDF runner is called once per row per UDF)
are wrapped in *aggregate* mode: one span per (parent, name) accumulates
``calls`` and ``busy`` so that memory stays bounded and the span file stays
readable.

Self time: a span's ``busy`` minus the ``busy`` of its direct children.
Nested spans of the same name (the simplifier is recursive) need no special
case — the inner span's time leaves the outer span's self time and enters
its own.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Callable, Iterator

NAME, START, END, PARENT, CALLS, BUSY = range(6)

ROOT_PREFIX = "bench."


class Tracer:
    """In-memory span store with the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._aggregates: dict[tuple[int, str], int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans (wrappers stay installed)."""

        if self._stack:
            raise RuntimeError("cannot reset the tracer inside an open span")
        self.spans = []
        self._aggregates = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span around a block of the benchmark's own code."""

        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 1, 0.0])
        stack.append(index)
        spans[index][START] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        now = perf_counter()
        record = self.spans[index]
        record[END] = now
        record[BUSY] = now - record[START]
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, aggregate: bool = False) -> Callable:
        """``fn`` with one span per call (or one per parent when aggregating)."""

        if aggregate:
            return self._wrap_aggregate(fn, name)
        open_, close = self._open, self._close

        @wraps(fn)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def _wrap_aggregate(self, fn: Callable, name: str) -> Callable:
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            # Looked up per call: reset() replaces both containers.
            spans, aggregates = self.spans, self._aggregates
            parent = stack[-1] if stack else -1
            key = (parent, name)
            index = aggregates.get(key)
            if index is None:
                index = aggregates[key] = len(spans)
                spans.append([name, perf_counter(), 0.0, parent, 0, 0.0])
            stack.append(index)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                record = spans[index]
                record[END] = now
                record[CALLS] += 1
                record[BUSY] += now - started
                stack.pop()

        return traced

    def wrap_factory(self, factory: Callable, name: str, product: str) -> Callable:
        """Trace ``factory`` as ``name`` and every callable it returns as
        ``product`` (aggregated): ``make_runner`` lowers once, its runner is
        then called per record."""

        traced_factory = self.wrap(factory, name)

        @wraps(factory)
        def traced(*args, **kwargs):
            return self._wrap_aggregate(traced_factory(*args, **kwargs), product)

        return traced

    # -- installing wrappers from outside ------------------------------------

    def install(self, points: list[tuple]) -> None:
        """Rebind every patch point to its traced wrapper.

        A point is ``(span name, module, attribute[, mode])``; the attribute
        is ``"function"`` or ``"Class.method"``; mode is ``"span"`` (default),
        ``"aggregate"`` or ``("factory", product span name)``.  Anything
        already installed is removed first if a point fails to resolve.
        """

        try:
            for point in points:
                name, module_name, attribute = point[:3]
                mode = point[3] if len(point) > 3 else "span"
                module = importlib.import_module(module_name)
                owner: object = module
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                self._rebind(owner, leaf, original, self._traced(original, name, mode))
        except BaseException:
            self.uninstall()
            raise

    def _traced(self, original: object, name: str, mode) -> object:
        if isinstance(original, staticmethod):
            return staticmethod(self._traced(original.__func__, name, mode))
        if mode == "span":
            return self.wrap(original, name)
        if mode == "aggregate":
            return self.wrap(original, name, aggregate=True)
        kind, product = mode
        if kind != "factory":
            raise ValueError(f"unknown patch mode {mode!r}")
        return self.wrap_factory(original, name, product)

    def _rebind(self, owner: object, leaf: str, original: object, traced: object) -> None:
        setattr(owner, leaf, traced)
        self._patched.append((owner, leaf, original))
        if isinstance(owner, type):
            return
        # ``from x import f`` copied the function into other namespaces.
        for module_name, module in list(sys.modules.items()):
            if module is None or module is owner:
                continue
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, traced)
                    self._patched.append((module, alias, original))

    def uninstall(self) -> None:
        """Put every original back (safe to call twice)."""

        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    @contextmanager
    def installed(self, points: list[tuple]) -> Iterator["Tracer"]:
        self.install(points)
        try:
            yield self
        finally:
            self.uninstall()


# -- arithmetic on recorded spans ---------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span: ``busy`` minus the ``busy`` of its direct children."""

    own = [record[BUSY] for record in spans]
    for record in spans:
        if record[PARENT] >= 0:
            own[record[PARENT]] -= record[BUSY]
    return own


def roots(spans: list[list]) -> list[int]:
    """Per span: index of its root ancestor (parents precede children)."""

    out: list[int] = []
    for index, record in enumerate(spans):
        parent = record[PARENT]
        out.append(index if parent < 0 else out[parent])
    return out


class Summary:
    """Totals of one traced pass, by span name and by (phase, span name).

    The phase of a span is the name of its root ancestor without the
    ``bench.`` prefix; the benchmark opens one root per timed call.
    """

    def __init__(self) -> None:
        self.rounds = 0  # calls of add(): the benchmark adds one round at a time
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.phase_self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.phase_busy_s: dict[tuple[str, str], float] = defaultdict(float)
        self.phase_wall_s: dict[str, float] = defaultdict(float)

    def add(self, spans: list[list]) -> None:
        self.rounds += 1
        own = self_times(spans)
        root_of = roots(spans)
        for index, record in enumerate(spans):
            name = record[NAME]
            phase = spans[root_of[index]][NAME].removeprefix(ROOT_PREFIX)
            if record[PARENT] < 0:
                self.phase_wall_s[phase] += record[BUSY]
            self.self_s[name] += own[index]
            self.calls[name] += record[CALLS]
            self.phase_self_s[(phase, name)] += own[index]
            self.phase_busy_s[(phase, name)] += record[BUSY]

    def wall_s(self) -> float:
        return sum(self.phase_wall_s.values())

    def unattributed_share(self) -> float:
        """Share of traced wall time that no layer's wrapper covered: the
        self time of the benchmark's own root spans."""

        wall = self.wall_s()
        if wall <= 0.0:
            return 0.0
        own = sum(s for name, s in self.self_s.items() if name.startswith(ROOT_PREFIX))
        return own / wall

    def phase_shares(self, phase: str) -> list[tuple[str, float]]:
        """``(span name, share of the phase's wall time)``, largest first."""

        wall = self.phase_wall_s.get(phase, 0.0)
        if wall <= 0.0:
            return []
        rows = [
            (name, own / wall)
            for (p, name), own in self.phase_self_s.items()
            if p == phase
        ]
        return sorted(rows, key=lambda row: -row[1])


def write_spans(path, workload: str, spans: list[list], summary: Summary) -> None:
    """One JSON document: the spans of one traced round plus the totals of
    all ``summary.rounds`` of them."""

    doc = {
        "workload": workload,
        "rounds": summary.rounds,
        "span_fields": ["name", "start", "end", "parent", "calls", "busy"],
        "spans": spans,
        "calls": dict(summary.calls),
        "phase_wall_s": dict(summary.phase_wall_s),
        "phase_self_s": {
            f"{phase}|{name}": own for (phase, name), own in summary.phase_self_s.items()
        },
        "phase_busy_s": {
            f"{phase}|{name}": busy for (phase, name), busy in summary.phase_busy_s.items()
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
