"""No-op twins of the tracing/metrics primitives.

The default :class:`~repro.telemetry.core.Telemetry` is the *null* one, so
every instrumented call site in the dataflow engine, the consolidator and
the solver must cost (almost) nothing when nobody asked for telemetry.
The twins here guarantee that:

* every method is an empty ``pass``/constant return — no clock reads, no
  allocation, no dict lookups;
* ``NullTracer.span`` returns one shared reusable context manager;
* ``NullRegistry.counter/gauge/histogram`` return shared singletons whose
  ``inc``/``set``/``observe`` do nothing;
* both expose ``enabled = False`` so hot loops that want *literally zero*
  overhead can hoist one boolean check and skip instrumentation wholesale
  (the dataflow engine's per-record loop does exactly this).

``tests/test_telemetry.py`` pins the mechanism down: a run with nothing
switched on builds the plain worker, gets the unwrapped runner and
allocates no per-operator stats.  What the instrumented paths cost on the
clock is a ``benchmarks/e2e`` row still to be added (ROADMAP item 5).
"""

from __future__ import annotations

__all__ = [
    "NullSpan",
    "NullTracer",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
]


class NullSpan:
    """A reusable, inert span: context manager + recorder, all no-ops."""

    __slots__ = ()
    name = "null"
    attributes: dict = {}
    children: tuple = ()
    wall_seconds = 0.0
    cpu_seconds = 0.0

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key, value) -> None:
        pass

    def to_dict(self) -> dict:
        return {}


_NULL_SPAN = NullSpan()


class NullTracer:
    __slots__ = ()
    enabled = False
    roots: tuple = ()

    def span(self, name, **attributes) -> NullSpan:
        return _NULL_SPAN

    def to_dicts(self) -> list:
        return []


class NullCounter:
    __slots__ = ()
    name = "null"
    labels: tuple = ()
    value = 0

    def inc(self, amount=1) -> None:
        pass


class NullGauge:
    __slots__ = ()
    name = "null"
    labels: tuple = ()
    value = 0

    def set(self, value) -> None:
        pass

    def inc(self, amount=1) -> None:
        pass


class NullHistogram:
    __slots__ = ()
    name = "null"
    labels: tuple = ()
    boundaries: tuple = ()
    sum = 0.0
    count = 0

    def observe(self, value) -> None:
        pass


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    __slots__ = ()
    enabled = False

    def counter(self, name, **labels) -> NullCounter:
        return _NULL_COUNTER

    def gauge(self, name, **labels) -> NullGauge:
        return _NULL_GAUGE

    def histogram(self, name, buckets=(), **labels) -> NullHistogram:
        return _NULL_HISTOGRAM

    def merge(self, other) -> None:
        pass

    def merge_counts(self, counts, prefix="", **labels) -> None:
        pass

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}
