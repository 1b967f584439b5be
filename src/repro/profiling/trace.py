"""The persistent profiling trace store: schema-versioned JSONL.

One line per :class:`TraceSample`.  The file is append-only — the
profiler appends as samples fire, ``repro calibrate`` reads the whole
file back — and every line carries ``schema`` so a reader can skip (and
count) lines written by an incompatible future version instead of
mis-fitting on them.

The store is deliberately plain: no rotation, no compression, stdlib
``json`` only.  A trace is an *input artifact* to calibration, not an
operational log; EXPERIMENTS.md shows the whole
``repro profile → repro calibrate`` round trip.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceSample",
    "TraceStore",
    "read_trace",
    "trace_fingerprint",
    "finite",
]

TRACE_SCHEMA_VERSION = 1


def finite(value: object, what: str) -> float:
    """``value`` as a finite float, or ``ValueError``.

    The one gate every number read back from a trace or a saved model
    passes: ``float()`` alone accepts ``"nan"`` and ``"inf"``, and a single
    NaN sample turns a least-squares fit into all-zero weights.
    """

    if not isinstance(value, (int, float, str)):
        raise ValueError(f"{what} is not a number: {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} is not finite: {value!r}")
    return number


@dataclass(frozen=True)
class TraceSample:
    """One profiling observation: static units against observed seconds.

    ``units`` holds the *total* per-operation-kind unit counts the
    observation covers (for a column batch: per-record units times
    ``records``, including ``records`` itself on the
    :data:`~repro.profiling.features.RECORD_KIND` axis); ``seconds`` is
    the matching total wall time.  ``cost_units`` is the Figure-2 cost
    the run actually charged — kept for cross-checks, not used by the
    fitter.
    """

    pid: str
    backend: str
    domain: str
    units: Mapping[str, float]
    cost_units: int
    seconds: float
    records: int = 1
    ts: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "pid": self.pid,
            "backend": self.backend,
            "domain": self.domain,
            "units": {k: self.units[k] for k in sorted(self.units)},
            "cost_units": self.cost_units,
            "seconds": self.seconds,
            "records": self.records,
            "ts": self.ts,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "TraceSample":
        units = doc.get("units")
        if not isinstance(units, dict):
            raise ValueError("trace sample has no units mapping")
        return cls(
            pid=str(doc.get("pid", "")),
            backend=str(doc.get("backend", "")),
            domain=str(doc.get("domain", "")),
            units={str(k): finite(v, f"units[{k!r}]") for k, v in units.items()},
            cost_units=int(finite(doc.get("cost_units", 0), "cost_units")),
            seconds=finite(doc.get("seconds", 0.0), "seconds"),
            records=int(finite(doc.get("records", 1), "records")),
            ts=finite(doc.get("ts", 0.0), "ts"),
        )


@dataclass
class TraceStore:
    """Appends samples to a JSONL file (thread-safe, lazily opened)."""

    path: Union[str, Path]
    _handle: Optional[IO[str]] = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def append(self, sample: TraceSample) -> None:
        line = json.dumps(sample.to_dict(), sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def read(self) -> List[TraceSample]:
        samples, _skipped = read_trace(self.path)
        return samples

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_trace(path: Union[str, Path]) -> Tuple[List[TraceSample], int]:
    """Load every compatible sample; return ``(samples, skipped_lines)``.

    Lines that are not valid JSON objects, whose ``schema`` differs from
    :data:`TRACE_SCHEMA_VERSION`, or that carry a number :func:`finite`
    refuses (``"nan"``, ``Infinity``) are counted and skipped — a trace
    half-written by a newer repro, or corrupted, must degrade to "fewer
    samples", never to a mis-fit.
    """

    samples: List[TraceSample] = []
    skipped = 0
    trace_path = Path(path)
    if not trace_path.exists():
        return samples, skipped
    with open(trace_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA_VERSION:
                skipped += 1
                continue
            try:
                samples.append(TraceSample.from_dict(doc))
            except (ValueError, TypeError):
                skipped += 1
    return samples, skipped


def trace_fingerprint(samples: Iterable[TraceSample]) -> str:
    """A stable content hash of a sample set (recorded on fitted models).

    The hash covers the canonical JSON of every sample in order, so the
    same trace always fingerprints identically — the determinism test
    relies on this, and calibration staleness reporting uses it to tell
    "model fitted from this trace" apart from "model fitted from an
    older one".
    """

    digest = hashlib.sha256()
    for sample in samples:
        digest.update(json.dumps(sample.to_dict(), sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()
