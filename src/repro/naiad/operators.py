"""Dataflow operators, including the paper's new LINQ operators.

The two that matter for the evaluation (Section 6.1):

* :class:`WhereMany` — the fair baseline: one operator holding *n* UDFs,
  reading each record **once** and running every UDF on it sequentially.
  (Running n separate queries would also multiply the IO; the paper
  deliberately compares against whereMany so that only UDF computation is
  measured.)
* :class:`WhereConsolidated` — holds the single merged UDF produced by
  :func:`repro.consolidation.divide_conquer.consolidate_all` and runs it
  once per record, demultiplexing the broadcast notifications into the
  same per-query buckets whereMany fills.

Both route a record into bucket ``pid`` whenever query ``pid`` accepts it,
so downstream consumers cannot tell them apart — equivalence is asserted by
the test-suite and the harness.  They are the same operator
(:class:`_UdfOperator`) differing only in how many programs it holds; the
public classes are constructors over it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from ..consolidation.algorithm import check_batch
from ..lang.ast import Program
from ..lang.compile import DEFAULT_BACKEND
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.functions import FunctionTable
from ..lang.vectorize import BatchResult, VectorizedProgram, columns_from_records, vectorize_cached
from ..telemetry import NULL_TELEMETRY, Telemetry
from .dataflow import Vertex, Worker

__all__ = [
    "Where",
    "WhereMany",
    "WhereConsolidated",
    "Select",
    "Count",
    "Collect",
]


class _Unit(NamedTuple):
    """One UDF held by a :class:`_UdfOperator`."""

    program: Program
    #: The notification channels to demultiplex: the program's own pid for
    #: ``where`` / ``whereMany``, every merged query's pid for
    #: ``whereConsolidated``.
    pids: tuple[str, ...]
    #: The program's execution ladder, entered where ``backend=`` says;
    #: ``None`` under a fused kernel until a batch falls back to it.
    plan: Optional[VectorizedProgram]


def _notified(batch: BatchResult, pid: str, records: Sequence[Any]) -> tuple[list[Any], bool]:
    """``(notified, complete)``: the records that broadcast ``true`` on ``pid``.

    A walk of the pid's hit list, with per-record error parity:
    ``RunResult.notification(pid)`` raises ``KeyError`` on a record that
    never notified, so a record-at-a-time loop delivers the hits before
    that record and then raises.  ``notified`` stops there too, and
    ``complete`` is false when the caller must raise."""

    hits = batch.hits.get(pid)
    if hits is None:
        return [], not records
    present = batch.partial.get(pid)
    if present is None or False not in present:
        return list(map(records.__getitem__, hits)), True
    missing = present.index(False)
    return list(map(records.__getitem__, hits[: bisect_left(hits, missing)])), False


class _UdfOperator(Vertex):
    """Read a record once, run the held UDFs, demultiplex their notifications.

    Section 6.1's ``whereMany`` and ``whereConsolidated`` are this one
    operator holding n programs or the single merged one; ``where`` is the
    one-program case that forwards accepted records downstream
    (``emits=True``) instead of notifying the per-query bucket.

    There is one execution path: the operator buffers its worker's
    partition (:meth:`process` / :meth:`ingest_batch`) and executes it from
    :meth:`on_flush` through :meth:`VectorizedProgram.run_batch` — the
    batch kernel, with the per-record closure and the interpreter behind
    it; ``backend=`` picks only the rung a batch enters on.  Several units
    (``whereMany``, which never emits) share one fused kernel that reads
    each record once and runs every UDF on it in turn; a batch it cannot
    run, or whose hits cannot all be delivered, re-runs unit by unit, each
    on its own ladder, which reproduces the exact errors, notifications and
    charges.  The engine flushes *before* capturing per-worker clocks, so
    batch-time charges land in exactly the per-worker totals
    record-at-a-time execution would produce.  IO and operator overhead are
    charged per record by the engine.
    """

    accepts_batches = True

    def __init__(
        self,
        name: str,
        programs: Sequence[tuple[Program, Sequence[str]]],
        emits: bool,
        functions: FunctionTable,
        cost_model: CostModel,
        backend: str,
        telemetry: Optional[Telemetry],
    ) -> None:
        super().__init__(name)
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        self._emits = emits
        self._pending: dict[int, list[Any]] = {}
        self._lower = partial(
            vectorize_cached, functions=functions, cost_model=cost_model,
            backend=backend, telemetry=telemetry,
        )
        fused: Optional[VectorizedProgram] = None
        if len(programs) > 1 and backend != "interp":
            fused = self._lower(tuple(program for program, _ in programs))
        self._fused = fused if fused is not None and fused.vectorized else None
        self.units: list[_Unit] = [
            _Unit(program, tuple(pids), None if self._fused else self._lower(program))
            for program, pids in programs
        ]

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        self._pending.setdefault(worker.index, []).append(record)
        return ()

    def ingest_batch(self, records: Sequence[Any], worker: Worker) -> None:
        self._pending.setdefault(worker.index, []).extend(records)

    def on_flush(self, worker: Worker) -> None:
        records = self._pending.pop(worker.index, None)
        if not records:
            return
        fused = self._fused
        if fused is not None:
            batch = fused.run_batch(columns_from_records(fused.program, records), len(records))
            if not batch.fallback:
                walks = {pid: _notified(batch, pid, records) for u in self.units for pid in u.pids}
                if all(complete for _, complete in walks.values()):
                    worker.charge_udf(sum(batch.costs))
                    for pid, (notified, _) in walks.items():
                        worker.notify_all(pid, notified)
                    return
        for unit in self.units:
            plan = unit.plan or self._lower(unit.program)
            batch = plan.run_batch(columns_from_records(unit.program, records), len(records))
            worker.charge_udf(sum(batch.costs))
            for pid in unit.pids:
                notified, complete = _notified(batch, pid, records)
                if self._emits:
                    for record in notified:
                        worker.emit(self, record)
                else:
                    worker.notify_all(pid, notified)
                if not complete:
                    raise KeyError(pid)


class Where(_UdfOperator):
    """A single-UDF filter: passes records the UDF accepts."""

    def __init__(
        self,
        program: Program,
        functions: FunctionTable,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        backend: str = DEFAULT_BACKEND,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        super().__init__(
            f"where[{program.pid}]", [(program, [program.pid])], True,
            functions, cost_model, backend, telemetry,
        )


class WhereMany(_UdfOperator):
    """The sequential baseline: run every UDF on every record."""

    def __init__(
        self,
        programs: Sequence[Program],
        functions: FunctionTable,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        backend: str = DEFAULT_BACKEND,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not programs:
            raise ValueError("whereMany needs at least one UDF")
        check_batch(programs)
        super().__init__(
            f"whereMany[{len(programs)}]", [(p, [p.pid]) for p in programs], False,
            functions, cost_model, backend, telemetry,
        )


class WhereConsolidated(_UdfOperator):
    """The consolidated operator: one merged UDF, all results broadcast."""

    def __init__(
        self,
        merged: Program,
        pids: Sequence[str],
        functions: FunctionTable,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        backend: str = DEFAULT_BACKEND,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        super().__init__(
            f"whereConsolidated[{len(pids)}]", [(merged, pids)], False,
            functions, cost_model, backend, telemetry,
        )


class FlatMap(Vertex):
    """Expand each record into zero or more records (Naiad's SelectMany).

    The per-record cost is ``base_cost + unit_cost * len(output)``, which
    models the traversal the expansion performs.
    """

    def __init__(
        self,
        fn: Callable[[Any], Iterable[Any]],
        base_cost: int = 5,
        unit_cost: int = 1,
        name: str = "flatMap",
    ) -> None:
        super().__init__(name)
        self.fn = fn
        self.base_cost = base_cost
        self.unit_cost = unit_cost

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        outputs = list(self.fn(record))
        worker.charge_udf(self.base_cost + self.unit_cost * len(outputs))
        return outputs


class CountByKey(Vertex):
    """A keyed counting sink: bucket ``name`` receives per-worker dicts.

    This is the aggregation at the heart of the Naiad tutorial's WordCount
    (which the paper's News Q1 family is modelled after); final per-key
    counts are obtained by summing the per-worker partial dictionaries,
    exactly as a data-parallel engine would combine its shards.
    """

    def __init__(self, bucket: str = "counts", cost_per_record: int = 2) -> None:
        super().__init__(f"countByKey[{bucket}]")
        self.bucket = bucket
        self.cost_per_record = cost_per_record
        self._partials: dict[int, dict[Any, int]] = {}

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        worker.charge_udf(self.cost_per_record)
        table = self._partials.setdefault(worker.index, {})
        table[record] = table.get(record, 0) + 1
        return ()

    def on_flush(self, worker: Worker) -> None:
        partial = self._partials.pop(worker.index, None)
        if partial is not None:
            worker.notify(self.bucket, partial)

    @staticmethod
    def combine(partials: Iterable[dict[Any, int]]) -> dict[Any, int]:
        """Sum per-worker partial counts into the final table."""

        totals: dict[Any, int] = {}
        for partial in partials:
            for key, count in partial.items():
                totals[key] = totals.get(key, 0) + count
        return totals


class Select(Vertex):
    """A projection with a fixed per-record cost."""

    def __init__(self, fn: Callable[[Any], Any], cost: int = 3, name: str = "select") -> None:
        super().__init__(name)
        self.fn = fn
        self.cost = cost

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        worker.charge_udf(self.cost)
        yield self.fn(record)


class Count(Vertex):
    """A counting sink feeding bucket ``name`` with the final count."""

    def __init__(self, bucket: str = "count") -> None:
        super().__init__(f"count[{bucket}]")
        self.bucket = bucket
        self._counts: dict[int, int] = {}

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        self._counts[worker.index] = self._counts.get(worker.index, 0) + 1
        return ()

    def on_flush(self, worker: Worker) -> None:
        if worker.index in self._counts:
            worker.notify(self.bucket, self._counts.pop(worker.index))


class Collect(Vertex):
    """A sink storing every record it sees into bucket ``name``."""

    def __init__(self, bucket: str = "out") -> None:
        super().__init__(f"collect[{bucket}]")
        self.bucket = bucket

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        worker.notify(self.bucket, record)
        return ()
