"""Metric primitives: counters, gauges, histograms, and their registry.

The registry is the write side of the observability layer (see DESIGN.md
§Telemetry).  Instrumented code asks the registry for a named instrument —
``registry.counter("smt_checks_total")`` — and the registry hands back the
same object for the same ``(name, labels)`` pair every time, so hot paths
can hold a reference and skip the lookup entirely.

Design constraints, in order:

* **dependency-free** — everything here is standard library;
* **cheap** — ``Counter.inc`` is one attribute add; ``Histogram.observe``
  one ``bisect`` plus two adds.  The no-op twins in
  :mod:`repro.telemetry.noop` make the disabled path cheaper still;
* **mergeable** — per-experiment registries are folded
  into a parent with :meth:`MetricsRegistry.merge`, which is what lets the
  experiment harness give every Figure-9 row its own snapshot;
* **snapshot-able** — :meth:`MetricsRegistry.snapshot` returns plain
  JSON-able dicts; the sinks (:mod:`repro.telemetry.sinks`) render those
  to JSONL or Prometheus text exposition.

Histograms use *fixed* bucket boundaries chosen at creation time
(Prometheus-style cumulative ``le`` buckets plus an implicit ``+Inf``), so
merging two histograms of the same name is element-wise addition.
"""

from __future__ import annotations

from bisect import bisect_left
from threading import Lock
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

# Seconds-scale boundaries sized for this repository's workloads: SMT
# checks sit around 0.1-10 ms, pair consolidations around 1-500 ms, and
# whole dataflow runs up to a few seconds.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

# Count-scale boundaries (program sizes, record counts, ...).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
)

LabelItems = "tuple[tuple[str, str], ...]"


def _label_items(labels: Mapping[str, str]) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (int or float amounts)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that can go up and down (rates, depths, ratios)."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Histogram:
    """A distribution over fixed bucket boundaries.

    ``counts[i]`` is the number of observations ``<= boundaries[i]``
    exclusive of earlier buckets (i.e. *non*-cumulative per-bucket counts);
    ``counts[-1]`` is the ``+Inf`` overflow bucket.  The snapshot reports
    the Prometheus-style *cumulative* form.
    """

    __slots__ = ("name", "labels", "boundaries", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: tuple = (),
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(boundaries)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram boundaries must be non-empty and sorted")
        self.name = name
        self.labels = labels
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left keeps ``le`` inclusive: value == boundary lands in
        # that boundary's bucket, matching Prometheus semantics.
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict:
        cumulative = []
        running = 0
        for boundary, n in zip(self.boundaries, self.counts):
            running += n
            cumulative.append([boundary, running])
        cumulative.append(["+Inf", self.count])
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": cumulative,
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create registry of instruments, keyed by ``(name, labels)``.

    Creation is locked (the service's request threads share one registry);
    the instruments themselves rely on the GIL
    for their single add, the same contract ``collections.Counter`` has.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}
        self._lock = Lock()

    def _get(self, cls, name: str, labels: Mapping[str, str], **kwargs):
        key = (name, _label_items(labels))
        found = self._instruments.get(key)
        if found is None:
            with self._lock:
                found = self._instruments.get(key)
                if found is None:
                    found = cls(name, key[1], **kwargs)
                    self._instruments[key] = found
        if not isinstance(found, cls):
            raise ValueError(
                f"metric {name!r} already registered as {type(found).__name__}"
            )
        return found

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, boundaries=buckets)

    def __iter__(self):
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s instruments into this registry (additive).

        Counters and histograms add; gauges take the other registry's
        latest value (it is the more recent observation).
        """

        for inst in other:
            if isinstance(inst, Counter):
                self._get(Counter, inst.name, dict(inst.labels)).inc(inst.value)
            elif isinstance(inst, Histogram):
                mine = self._get(
                    Histogram, inst.name, dict(inst.labels), boundaries=inst.boundaries
                )
                if mine.boundaries != inst.boundaries:
                    raise ValueError(
                        f"histogram {inst.name!r} bucket boundaries differ"
                    )
                for i, n in enumerate(inst.counts):
                    mine.counts[i] += n
                mine.sum += inst.sum
                mine.count += inst.count
            elif isinstance(inst, Gauge):
                self._get(Gauge, inst.name, dict(inst.labels)).set(inst.value)

    def merge_counts(self, counts: Mapping[str, float], prefix: str = "", **labels) -> None:
        """Increment one counter per ``counts`` entry (stats-dict bridge).

        Existing subsystems report dict snapshots (``SolverStats``,
        ``SimplifyStats``); this folds such a dict into the registry
        without per-call-site boilerplate.
        """

        for key, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.counter(f"{prefix}{key}", **labels).inc(value)

    def snapshot(self) -> dict:
        """JSON-able snapshot grouped by instrument kind, sorted by name."""

        out: dict = {"counters": [], "gauges": [], "histograms": []}
        for inst in self._instruments.values():
            out[inst.kind + "s"].append(inst.snapshot())
        for group in out.values():
            group.sort(key=lambda m: (m["name"], sorted(m["labels"].items())))
        return out
