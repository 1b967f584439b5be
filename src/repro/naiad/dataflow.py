"""A miniature timely-dataflow engine (the Naiad substitute; see DESIGN.md).

The paper implements its operators on Microsoft Naiad; the experiments only
need the slice of Naiad semantics those operators touch, which this module
provides faithfully:

* a dataflow *graph* of vertices connected by edges, built through the
  fluent API in :mod:`repro.naiad.linq`;
* *workers* that each own a partition of the input and push records through
  the graph — paralleling Naiad's data-parallel shards.  Workers keep a
  deterministic virtual clock in cost-model units (the paper's Figure 2
  cost semantics), and wall-clock time is measured around the run;
* per-record *IO* and per-operator *overhead* charges, so that "total time"
  and "UDF time" can be reported separately exactly as in Figure 9;
* a *notification* side-channel: a vertex may broadcast per-query booleans
  (the Naiad primitive the paper relies on for early result broadcast),
  which the engine routes into named result buckets.

Observability: :meth:`Dataflow.run` is the one loop over partitions, and
every call it makes into a vertex goes through the partition's
:class:`Worker` (``push`` / ``ingest`` / ``flush`` — the bare calls).  Pass
a live :class:`repro.telemetry.Telemetry` (normally via
``ExecutionConfig.telemetry``) and the run picks — once, not per record — a
worker subclass that times and counts around the same three calls,
recording **per-operator** records in/out, wall time, UDF cost and
notification counts onto ``RunMetrics.per_operator`` and into the registry
(``dataflow_operator_*{operator=...}`` series); traced and untraced runs
execute the same program, batch ingest included.  With telemetry off the
plain worker is the only one built (``tests/test_telemetry.py`` holds that).

Determinism: given the same graph, input and worker count, a run produces
identical costs and outputs — which is what makes the benchmark harness
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

from ..telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "Vertex",
    "Edge",
    "Dataflow",
    "Worker",
    "OperatorStats",
    "RunMetrics",
    "RunResult",
]


class Vertex:
    """A dataflow operator.

    Subclasses implement :meth:`process`, which either returns (or yields)
    the records to forward downstream or forwards them itself through
    :meth:`Worker.emit`, and charge the cost of handling each record to the
    worker (in cost-model units).  Vertices are wired by :class:`Dataflow`.
    """

    #: True when :meth:`ingest_batch` can replace per-record ``process``
    #: calls for this vertex (batch-buffering operators flip it on).
    accepts_batches = False

    #: True when ``process`` is the side-effect-free identity (yields its
    #: input, charges nothing beyond the push overhead).  Lets the engine
    #: forward a whole partition *through* this vertex to a downstream
    #: batch operator without the per-record push loop.
    passthrough = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.downstream: list[Vertex] = []

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        raise NotImplementedError

    def ingest_batch(self, records: Sequence[Any], worker: Worker) -> None:
        """Buffer a whole partition slice at once (batch operators only).

        Only called when :attr:`accepts_batches` is true; must be
        observably identical to calling :meth:`process` per record for an
        operator whose ``process`` buffers and yields nothing.
        """

        raise NotImplementedError

    def on_flush(self, worker: Worker) -> None:
        """Called once per worker after its partition is exhausted."""


@dataclass
class Edge:
    source: Vertex
    target: Vertex


@dataclass
class OperatorStats:
    """Per-operator accounting for one run (telemetry-enabled runs only).

    ``seconds`` covers the operator's own ``process`` / ``ingest_batch`` /
    ``on_flush`` calls, exclusive of the operators it forwards records to.
    """

    records_in: int = 0
    records_out: int = 0
    udf_cost: int = 0
    notifications: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "records_in": self.records_in,
            "records_out": self.records_out,
            "udf_cost": self.udf_cost,
            "notifications": self.notifications,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class RunMetrics:
    """Cost accounting for one dataflow run.

    ``udf_cost`` counts only the work done inside user-defined functions
    (Figure 2 units); ``total_cost`` adds IO and engine overhead.
    ``makespan`` is the maximum per-worker total — the virtual-time analogue
    of job completion time on a multi-worker cluster.

    ``per_operator`` maps operator name to an :class:`OperatorStats`; it is
    populated only when the run was handed a live telemetry (the per-record
    bookkeeping is skipped entirely otherwise).
    """

    udf_cost: int = 0
    io_cost: int = 0
    overhead_cost: int = 0
    wall_seconds: float = 0.0
    records: int = 0
    per_worker_total: list[int] = field(default_factory=list)
    per_worker_udf: list[int] = field(default_factory=list)
    per_operator: dict[str, OperatorStats] = field(default_factory=dict)

    @property
    def total_cost(self) -> int:
        return self.udf_cost + self.io_cost + self.overhead_cost

    @property
    def makespan(self) -> int:
        return max(self.per_worker_total, default=0)

    @property
    def udf_makespan(self) -> int:
        return max(self.per_worker_udf, default=0)


@dataclass
class RunResult:
    metrics: RunMetrics
    buckets: dict[str, list[Any]]


class Worker:
    """One data-parallel shard with its own virtual clock.

    :meth:`push`, :meth:`ingest` and :meth:`flush` are the only places the
    engine calls into a vertex; here they are the bare calls.
    """

    def __init__(self, index: int, run: RunResult, overhead_per_operator: int) -> None:
        self.index = index
        self._run = run
        self._overhead = overhead_per_operator
        self.total_clock = 0
        self.udf_clock = 0

    def charge_io(self, units: int) -> None:
        self.total_clock += units
        self._run.metrics.io_cost += units

    def charge_overhead(self, units: int) -> None:
        self.total_clock += units
        self._run.metrics.overhead_cost += units

    def charge_udf(self, units: int) -> None:
        self.total_clock += units
        self.udf_clock += units
        self._run.metrics.udf_cost += units

    def notify(self, bucket: str, record: Any) -> None:
        """Broadcast a record into a named result bucket (Naiad's notify)."""

        self._run.buckets.setdefault(bucket, []).append(record)

    def emit(self, vertex: Vertex, record: Any) -> None:
        """Push ``record`` to ``vertex``'s downstream operators.

        The stand-in for yielding from :meth:`Vertex.process`, and the only
        way to forward from :meth:`Vertex.on_flush`: batch-oriented
        operators (every ``Where*``) buffer their partition and
        produce outputs there, after the per-record push loop is over.
        """

        for child in vertex.downstream:
            self.push(child, record)

    def push(self, vertex: Vertex, record: Any) -> None:
        # charge_overhead, inlined: this is the hottest call in a run.
        overhead = self._overhead
        self.total_clock += overhead
        self._run.metrics.overhead_cost += overhead
        for output in vertex.process(record, self):
            for child in vertex.downstream:
                self.push(child, output)

    def ingest(self, path: Sequence[Vertex], records: Sequence[Any]) -> None:
        """Hand a whole partition to the batch operator ending ``path``: one
        overhead charge per hop per record, as the push loop would bill."""

        self.charge_overhead(self._overhead * len(records) * len(path))
        path[-1].ingest_batch(records, self)

    def flush(self, vertex: Vertex) -> None:
        vertex.on_flush(self)


class _TracedWorker(Worker):
    """The same three calls, timed and counted per operator.

    UDF cost and notifications are attributed to ``_op``, the operator
    whose ``process`` / ``ingest_batch`` / ``on_flush`` is running.  Kept
    out of :class:`Worker` so the plain worker pays nothing for the
    attribution hooks.
    """

    def __init__(self, index: int, run: RunResult, overhead_per_operator: int) -> None:
        super().__init__(index, run, overhead_per_operator)
        self._stats = run.metrics.per_operator
        self._op: OperatorStats | None = None

    def charge_udf(self, units: int) -> None:
        super().charge_udf(units)
        if self._op is not None:
            self._op.udf_cost += units

    def notify(self, bucket: str, record: Any) -> None:
        super().notify(bucket, record)
        if self._op is not None:
            self._op.notifications += 1

    def emit(self, vertex: Vertex, record: Any) -> None:
        stats = self._stats[vertex.name]
        stats.records_out += 1
        # emit is called from inside the emitter's timed process/on_flush,
        # and the children it reaches are timed on their own: take their
        # time back out so per-operator seconds stay exclusive and sum to
        # no more than the run's wall time.
        t0 = perf_counter()
        super().emit(vertex, record)
        stats.seconds -= perf_counter() - t0

    def push(self, vertex: Vertex, record: Any) -> None:
        self.charge_overhead(self._overhead)
        stats = self._stats[vertex.name]
        stats.records_in += 1
        outer, self._op = self._op, stats
        t0 = perf_counter()
        # Materialising the generator keeps the timing exclusive to this
        # operator: children are pushed only after the clock stops.
        outputs = list(vertex.process(record, self))
        stats.seconds += perf_counter() - t0
        self._op = outer
        stats.records_out += len(outputs)
        for output in outputs:
            for child in vertex.downstream:
                self.push(child, output)

    def ingest(self, path: Sequence[Vertex], records: Sequence[Any]) -> None:
        for hop in path:
            self._stats[hop.name].records_in += len(records)
        for hop in path[:-1]:
            self._stats[hop.name].records_out += len(records)
        self._timed(self._stats[path[-1].name], super().ingest, path, records)

    def flush(self, vertex: Vertex) -> None:
        self._timed(self._stats[vertex.name], vertex.on_flush, self)

    def _timed(self, stats: OperatorStats, call: Callable[..., None], *args: Any) -> None:
        outer, self._op = self._op, stats
        t0 = perf_counter()
        call(*args)
        stats.seconds += perf_counter() - t0
        self._op = outer


class Dataflow:
    """A dataflow graph under construction, and its executor."""

    def __init__(
        self,
        io_cost_per_record: int = 25,
        overhead_per_operator: int = 2,
    ) -> None:
        self.io_cost_per_record = io_cost_per_record
        self.overhead_per_operator = overhead_per_operator
        self._vertices: list[Vertex] = []
        self._roots: list[Vertex] = []

    # -- graph construction ----------------------------------------------------

    def add_vertex(self, vertex: Vertex, upstream: Vertex | None = None) -> Vertex:
        self._vertices.append(vertex)
        if upstream is None:
            self._roots.append(vertex)
        else:
            upstream.downstream.append(vertex)
        return vertex

    @property
    def vertices(self) -> list[Vertex]:
        return list(self._vertices)

    # -- execution ----------------------------------------------------------------

    def _partition(self, records: Sequence[Any], workers: int) -> list[list[Any]]:
        if workers == 1:
            return [list(records)]
        parts: list[list[Any]] = [[] for _ in range(workers)]
        for i, r in enumerate(records):
            parts[i % workers].append(r)
        return parts

    def _batch_path(self) -> list[Vertex] | None:
        """The route from a single root to a batch-buffering operator, if any.

        A single batch-buffering root (the ``Where*`` operators) takes its
        partition in one call: same IO/overhead charges, no per-record push
        loop.  Identity pass-through roots (the linq source vertex) are
        walked over.
        """

        if len(self._roots) != 1:
            return None
        path = [self._roots[0]]
        while path[-1].passthrough and len(path[-1].downstream) == 1:
            path.append(path[-1].downstream[0])
        return path if path[-1].accepts_batches else None

    def run(
        self,
        records: Sequence[Any],
        workers: int = 4,
        telemetry: Telemetry | None = None,
    ) -> RunResult:
        """Push every record through the graph; deterministic cost clock.

        A live ``telemetry`` (a :class:`repro.telemetry.Telemetry`, default
        no-op) runs the same loop with the instrumented worker: per-operator
        stats on the result's metrics, counters in the registry, and a
        ``dataflow.run`` span when tracing is on.
        """

        if workers < 1:
            raise ValueError("need at least one worker")
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        state = RunResult(RunMetrics(), {})
        make_worker = Worker
        if telemetry.enabled:
            make_worker = _TracedWorker
            state.metrics.per_operator = {v.name: OperatorStats() for v in self._vertices}
        roots = self._roots
        batch_path = self._batch_path()
        with telemetry.span("dataflow.run", workers=workers) as span:
            start = perf_counter()
            for index, part in enumerate(self._partition(records, workers)):
                worker = make_worker(index, state, self.overhead_per_operator)
                # IO charges and the record count are per-partition sums; batch
                # them so the per-record loop only pays for operator pushes.
                state.metrics.records += len(part)
                worker.charge_io(self.io_cost_per_record * len(part))
                if batch_path is not None:
                    worker.ingest(batch_path, part)
                else:
                    push = worker.push
                    for record in part:
                        for root in roots:
                            push(root, record)
                for vertex in self._vertices:
                    worker.flush(vertex)
                state.metrics.per_worker_total.append(worker.total_clock)
                state.metrics.per_worker_udf.append(worker.udf_clock)
            state.metrics.wall_seconds = perf_counter() - start
            span.set("records", state.metrics.records)
            span.set("total_cost", state.metrics.total_cost)
            span.set("udf_cost", state.metrics.udf_cost)
        if telemetry.enabled:
            self._record_metrics(state.metrics, telemetry)
        return state

    @staticmethod
    def _record_metrics(metrics: RunMetrics, telemetry: Telemetry) -> None:
        registry = telemetry.metrics
        registry.counter("dataflow_runs_total").inc()
        registry.counter("dataflow_records_total").inc(metrics.records)
        registry.counter("dataflow_wall_seconds_total").inc(metrics.wall_seconds)
        registry.counter("dataflow_udf_cost_total").inc(metrics.udf_cost)
        for name, stats in metrics.per_operator.items():
            for key, value in vars(stats).items():
                registry.counter(f"dataflow_operator_{key}_total", operator=name).inc(value)
