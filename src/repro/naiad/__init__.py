"""The mini timely-dataflow engine (Naiad substitute; see DESIGN.md).

* :mod:`repro.naiad.dataflow` — graph, workers, cost clock, notifications,
* :mod:`repro.naiad.operators` — Where / WhereMany / WhereConsolidated / ...,
* :mod:`repro.naiad.linq` — the fluent query façade and batch entry points.
"""

from .dataflow import Dataflow, OperatorStats, RunMetrics, RunResult, Vertex, Worker
from .linq import Query, from_collection, run_where_consolidated, run_where_many
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


__all__ = [
    "Dataflow", "OperatorStats", "RunMetrics", "RunResult", "Vertex", "Worker",
    "Query", "from_collection", "run_where_consolidated", "run_where_many",
    "Collect", "Count", "CountByKey", "FlatMap", "Select",
    "Where", "WhereConsolidated", "WhereMany",
]
