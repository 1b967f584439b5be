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

With ``prefilter=True`` the Where operators synthesize a sound
reject-early guard (:mod:`repro.analysis.prefilter`) per UDF at
construction time (``WhereConsolidated`` also takes the one the
consolidation already synthesised) and evaluate it first on every record:
a row the guard rejects provably notifies nobody, so the full UDF is
skipped and only the guard's (much smaller) cost is charged.  Guards fail
open — any synthesis or runtime problem means "no guard", never a changed
bucket.  The rejection counts surface as ``prefilter_checked_total`` /
``prefilter_rejected_total`` counters and a ``prefilter_selectivity``
gauge when telemetry is enabled.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from ..analysis.prefilter import PREFILTER_PID, Prefilter, make_guard
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
    """One UDF held by a :class:`_UdfOperator`, lowered once at construction."""

    program: Program
    #: The notification channels to demultiplex: the program's own pid for
    #: ``where`` / ``whereMany``, every merged query's pid for
    #: ``whereConsolidated``.
    pids: tuple[str, ...]
    #: The program's execution ladder, entered where ``backend=`` says.
    plan: VectorizedProgram
    #: The φ wrapper's ladder (None = run the UDF on every record).
    guard: Optional[VectorizedProgram]


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


def _guard_row(run: Callable[[Mapping[str, Any]], Any], args: dict[str, Any]) -> tuple[bool, int]:
    """One record's φ verdict and charged cost; a φ that raises passes, free."""

    try:
        result = run(args)
    except Exception:  # noqa: BLE001 - fail open: run the full UDF
        return True, 0
    return bool(result.notification(PREFILTER_PID)), result.cost


class _UdfOperator(Vertex):
    """Read a record once, run the held UDFs, demultiplex their notifications.

    Section 6.1's ``whereMany`` and ``whereConsolidated`` are this one
    operator holding n programs or the single merged one; ``where`` is the
    one-program case that forwards accepted records downstream
    (``emits=True``) instead of notifying the per-query bucket.

    There is one execution path: the operator buffers its worker's
    partition (:meth:`process` / :meth:`ingest_batch`) and executes it as
    one struct-of-arrays batch per unit from :meth:`on_flush`, through
    :meth:`VectorizedProgram.run_batch` — the batch kernel, with the
    per-record closure and the interpreter behind it; ``backend=`` picks
    only the rung a batch enters on.  The engine flushes *before*
    capturing per-worker clocks, so batch-time charges land in exactly the
    per-worker totals record-at-a-time execution would produce.  IO and
    operator overhead are charged per record by the engine.
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
        prefilter: bool | Prefilter,
    ) -> None:
        super().__init__(name)
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        self._emits = emits
        self._telemetry = telemetry
        self._pending: dict[int, list[Any]] = {}
        self._pre_checked = 0
        self._pre_rejected = 0
        self.units: list[_Unit] = []
        for program, pids in programs:
            plan = vectorize_cached(
                program, functions, cost_model, backend=backend, telemetry=telemetry
            )
            guard = None
            if prefilter:
                guard = make_guard(
                    program, functions, cost_model, backend=backend, telemetry=telemetry,
                    prefilter=prefilter if isinstance(prefilter, Prefilter) else None,
                )
            self.units.append(_Unit(program, tuple(pids), plan, guard))

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        self._pending.setdefault(worker.index, []).append(record)
        return ()

    def ingest_batch(self, records: Sequence[Any], worker: Worker) -> None:
        self._pending.setdefault(worker.index, []).extend(records)

    def on_flush(self, worker: Worker) -> None:
        records = self._pending.pop(worker.index, None)
        if records:
            emits = self._emits
            for unit in self.units:
                kept = self._apply_guard(unit, records, worker)
                if not kept:
                    continue
                batch = unit.plan.run_batch(columns_from_records(unit.program, kept), len(kept))
                worker.charge_udf(sum(batch.costs))
                for pid in unit.pids:
                    notified, complete = _notified(batch, pid, kept)
                    if emits:
                        for record in notified:
                            worker.emit(self, record)
                    else:
                        worker.notify_all(pid, notified)
                    if not complete:
                        raise KeyError(pid)
        telemetry = self._telemetry
        if telemetry.enabled and self._pre_checked:
            checked = telemetry.counter("prefilter_checked_total")
            rejected = telemetry.counter("prefilter_rejected_total")
            checked.inc(self._pre_checked)
            rejected.inc(self._pre_rejected)
            # Set from the counters just advanced, not from this partition's
            # counts: every worker flushes, and the last one to do so must
            # not overwrite the run's selectivity with its own.
            telemetry.gauge("prefilter_selectivity").set(1.0 - rejected.value / checked.value)
            self._pre_checked = 0
            self._pre_rejected = 0

    def _apply_guard(self, unit: _Unit, records: list[Any], worker: Worker) -> list[Any]:
        """φ as a batch-compacting filter that fails open.

        The φ wrapper's ladder runs over the whole batch (a kernel that
        raises has already degraded to its per-row rungs); the rows it
        keeps are its ``PREFILTER_PID`` hits, and the batch's whole cost is
        charged.  When the batch
        still raises — some row's φ is a genuine error — the rows re-run
        one by one through the row runner, and a row that raises passes,
        charged nothing: a guard problem never changes a bucket.
        """

        guard = unit.guard
        if guard is None:
            return records
        columns = columns_from_records(unit.program, records)
        try:
            batch = guard.run_batch(columns, len(records))
            passed = batch.hits[PREFILTER_PID]
        except Exception:  # noqa: BLE001 - guard problems fail open per row
            run, param = guard.row_runner(), unit.program.params[0]
            keep = []
            for record in records:
                passes, cost = _guard_row(run, {param: record})
                worker.charge_udf(cost)
                if passes:
                    keep.append(record)
        else:
            worker.charge_udf(sum(batch.costs))
            keep = list(map(records.__getitem__, passed))
        self._pre_checked += len(records)
        self._pre_rejected += len(records) - len(keep)
        return keep


class Where(_UdfOperator):
    """A single-UDF filter: passes records the UDF accepts."""

    def __init__(
        self,
        program: Program,
        functions: FunctionTable,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        backend: str = DEFAULT_BACKEND,
        telemetry: Optional[Telemetry] = None,
        prefilter: bool = False,
    ) -> None:
        super().__init__(
            f"where[{program.pid}]", [(program, [program.pid])], True,
            functions, cost_model, backend, telemetry, prefilter,
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
        prefilter: bool = False,
    ) -> None:
        if not programs:
            raise ValueError("whereMany needs at least one UDF")
        super().__init__(
            f"whereMany[{len(programs)}]", [(p, [p.pid]) for p in programs], False,
            functions, cost_model, backend, telemetry, prefilter,
        )


class WhereConsolidated(_UdfOperator):
    """The consolidated operator: one merged UDF, all results broadcast.

    ``prefilter`` may be the :class:`Prefilter` already synthesised for
    ``merged`` (``ConsolidationReport.prefilter``): the guard is compiled
    from it instead of synthesising φ again at every construction.
    """

    def __init__(
        self,
        merged: Program,
        pids: Sequence[str],
        functions: FunctionTable,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        backend: str = DEFAULT_BACKEND,
        telemetry: Optional[Telemetry] = None,
        prefilter: bool | Prefilter = False,
    ) -> None:
        if isinstance(prefilter, Prefilter) and prefilter.pid != merged.pid:
            raise ValueError(f"prefilter of {prefilter.pid!r} handed to UDF {merged.pid!r}")
        super().__init__(
            f"whereConsolidated[{len(pids)}]", [(merged, pids)], False,
            functions, cost_model, backend, telemetry, prefilter,
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
