"""LINQ-style query façade over the mini dataflow engine.

Mirrors how the paper's users write queries: build a query over a data
collection, attach ``where`` clauses holding UDFs, run.  Two batch entry
points implement the operators of Section 6.1:

* :func:`run_where_many` — the ``whereMany`` baseline (one pass over the
  data, every UDF executed sequentially per record);
* :func:`run_where_consolidated` — consolidates the batch with the
  divide-and-conquer driver, then runs the single merged UDF
  (``whereConsolidated``); returns both the run and the consolidation
  report so harnesses can separate consolidation time from execution time.

Configuration travels as ONE object: every entry point takes an
:class:`repro.config.ExecutionConfig` (``config=``) carrying backend,
workers, cost model, default function table and telemetry.
There are no per-call knobs beside it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from ..config import ExecutionConfig
from ..consolidation.algorithm import ConsolidationOptions
from ..consolidation.divide_conquer import ConsolidationReport, consolidate_all
from ..lang.ast import Program
from ..lang.functions import FunctionTable
from .dataflow import Dataflow, RunResult, Vertex, Worker
from .operators import (
    Collect,
    Count,
    CountByKey,
    FlatMap,
    Select,
    Where,
    WhereConsolidated,
    WhereMany,
)

__all__ = ["Query", "from_collection", "run_where_many", "run_where_consolidated"]


def _table(functions: Optional[FunctionTable]) -> FunctionTable:
    return FunctionTable() if functions is None else functions


class _Source(Vertex):
    passthrough = True  # identity: the engine may forward batches past it

    def process(self, record: Any, worker: Worker) -> Iterable[Any]:
        yield record


class Query:
    """A fluent builder: each call appends one operator to the graph.

    The query carries its :class:`ExecutionConfig`; operator methods take
    the function table explicitly (default: an empty table) and read every
    other knob from the config.
    """

    def __init__(
        self,
        records: Sequence[Any],
        dataflow: Dataflow,
        tail: Vertex | None,
        config: ExecutionConfig | None = None,
    ) -> None:
        self._records = records
        self._dataflow = dataflow
        self._tail = tail
        self._config = config or ExecutionConfig()

    @property
    def config(self) -> ExecutionConfig:
        return self._config

    def _extend(self, vertex: Vertex) -> Query:
        self._dataflow.add_vertex(vertex, upstream=self._tail)
        return Query(self._records, self._dataflow, vertex, self._config)

    def _udf_kwargs(self) -> dict[str, Any]:
        cfg = self._config
        return {
            "cost_model": cfg.cost_model,
            "backend": cfg.backend,
            "telemetry": cfg.telemetry,
        }

    def where(self, program: Program, functions: Optional[FunctionTable] = None) -> Query:
        return self._extend(Where(program, _table(functions), **self._udf_kwargs()))

    def where_many(
        self, programs: Sequence[Program], functions: Optional[FunctionTable] = None
    ) -> Query:
        return self._extend(WhereMany(programs, _table(functions), **self._udf_kwargs()))

    def where_consolidated(
        self,
        merged: Program,
        pids: Sequence[str],
        functions: Optional[FunctionTable] = None,
    ) -> Query:
        return self._extend(
            WhereConsolidated(merged, pids, _table(functions), **self._udf_kwargs())
        )

    def select(self, fn: Callable[[Any], Any], cost: int = 3) -> Query:
        return self._extend(Select(fn, cost))

    def flat_map(
        self, fn: Callable[[Any], Iterable[Any]], base_cost: int = 5, unit_cost: int = 1
    ) -> Query:
        return self._extend(FlatMap(fn, base_cost, unit_cost))

    def count_by_key(self, bucket: str = "counts") -> Query:
        return self._extend(CountByKey(bucket))

    def count(self, bucket: str = "count") -> Query:
        return self._extend(Count(bucket))

    def collect(self, bucket: str = "out") -> Query:
        return self._extend(Collect(bucket))

    def run(self, config: ExecutionConfig | None = None) -> RunResult:
        cfg = config or self._config
        return self._dataflow.run(self._records, cfg.workers, telemetry=cfg.telemetry)


def from_collection(records: Sequence[Any], config: ExecutionConfig | None = None) -> Query:
    """Start a query over an in-memory collection (one graph root)."""

    cfg = config or ExecutionConfig()
    dataflow = Dataflow()
    source = _Source("input")
    dataflow.add_vertex(source)
    return Query(records, dataflow, source, cfg)


def run_where_many(
    records: Sequence[Any],
    programs: Sequence[Program],
    functions: Optional[FunctionTable] = None,
    config: ExecutionConfig | None = None,
) -> RunResult:
    """Execute the ``whereMany`` baseline over the collection."""

    return from_collection(records, config).where_many(programs, functions).run()


def run_where_consolidated(
    records: Sequence[Any],
    programs: Sequence[Program],
    functions: Optional[FunctionTable] = None,
    options: ConsolidationOptions | None = None,
    config: ExecutionConfig | None = None,
) -> tuple[RunResult, ConsolidationReport]:
    """Consolidate the batch, execute ``whereConsolidated``, report both."""

    cfg = config or ExecutionConfig()
    table = _table(functions)
    report = consolidate_all(list(programs), table, options=options, config=cfg)
    pids = [p.pid for p in programs]
    query = from_collection(records, cfg).where_consolidated(report.program, pids, table)
    return query.run(), report
