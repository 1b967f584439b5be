"""Tracing spans: nested wall/CPU timers with key:value attributes.

A :class:`Span` measures one region of work — a dataflow run, a pair
consolidation, one SMT check — with both wall-clock and CPU time, and
carries arbitrary ``key: value`` attributes.  Spans nest: entering a span
while another is open makes it a child, so a finished trace is a forest
mirroring the call structure::

    figure9.experiment {domain: weather, family: Mix}
      consolidate.batch {n: 50}
        consolidate.pair {left: q1, right: q2}
        ...
      dataflow.run {operator: whereConsolidated[50]}

The :class:`Tracer` owns the forest and the open-span stack.  It is
deliberately *not* thread-safe — a tracer belongs to one logical execution.

Use :class:`repro.telemetry.noop.NullTracer` when tracing is off; its
``span`` returns a shared no-op context manager and the hot path pays one
method call, no allocation, no clock read.
"""

from __future__ import annotations

from time import perf_counter, process_time

__all__ = ["Span", "Tracer"]


class Span:
    """One timed region.  Use as a context manager via :meth:`Tracer.span`."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start_wall",
        "end_wall",
        "start_cpu",
        "end_cpu",
        "_tracer",
    )

    def __init__(self, name: str, attributes: dict | None = None, tracer=None) -> None:
        self.name = name
        self.attributes = attributes or {}
        self.children: list[Span] = []
        self.start_wall = self.end_wall = 0.0
        self.start_cpu = self.end_cpu = 0.0
        self._tracer = tracer

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Span":
        self.start_wall = perf_counter()
        self.start_cpu = process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_cpu = process_time()
        self.end_wall = perf_counter()
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # -- recording -----------------------------------------------------------

    def set(self, key: str, value) -> None:
        self.attributes[key] = value

    @property
    def wall_seconds(self) -> float:
        return max(0.0, self.end_wall - self.start_wall)

    @property
    def cpu_seconds(self) -> float:
        return max(0.0, self.end_cpu - self.start_cpu)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": round(self.wall_seconds, 6),
            "cpu_s": round(self.cpu_seconds, 6),
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }


class Tracer:
    """Owns a forest of finished spans and the stack of open ones."""

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes) -> Span:
        """Open a span (context manager); nests under the open span, if any."""

        span = Span(name, attributes, tracer=self)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)
        self._stack.append(span)
        return span

    def _pop(self, span: Span) -> None:
        # Tolerate exits out of order (a span leaked across an exception):
        # unwind to the exiting span rather than corrupting the stack.
        while self._stack:
            if self._stack.pop() is span:
                break

    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self.roots]
