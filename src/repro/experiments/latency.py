"""Latency-aware consolidation (the paper's Section 8 extension).

The paper's consolidation optimises *job completion time*; Section 8 notes
that latency-critical settings may additionally want a query execution
order so that consolidation "does not increase the response time of any
individual query", and footnote 2 already broadcasts each result as soon
as it is computed to minimise latency.

This experiment quantifies exactly that:

* **per-query latency** — the cumulative execution cost at the moment a
  query's result is broadcast (``RunResult.notification_costs``), averaged
  over the dataset;
* three strategies — the sequential baseline (query *i* waits for queries
  ``1..i-1``), the default divide-and-conquer consolidation, and the
  priority-ordered fold (``order='priority'``) that pins chosen queries to
  the front of the merged program.

The headline observations mirror the paper's discussion: consolidation
slashes *average* latency (everything finishes earlier because everything
costs less), and the priority order additionally bounds the latency of the
designated queries near the front of the merged program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..config import ExecutionConfig
from ..consolidation.algorithm import ConsolidationOptions
from ..consolidation.divide_conquer import consolidate_all
from ..datasets.records import Dataset
from ..lang.ast import Program
from ..lang.compile import DEFAULT_BACKEND, make_runner
from ..lang.cost import CostModel
from ..lang.interp import combine_sequential

__all__ = ["LatencyReport", "run_latency_experiment"]


@dataclass
class LatencyReport:
    """Average per-query broadcast latencies under each strategy."""

    n_udfs: int
    rows: int
    sequential: dict[str, float] = field(default_factory=dict)
    consolidated: dict[str, float] = field(default_factory=dict)
    prioritized: dict[str, float] = field(default_factory=dict)
    priority: tuple[str, ...] = ()

    def mean(self, table: dict[str, float]) -> float:
        return sum(table.values()) / len(table) if table else 0.0

    def summary(self) -> dict:
        out = {
            "sequential_mean": round(self.mean(self.sequential), 1),
            "consolidated_mean": round(self.mean(self.consolidated), 1),
            "prioritized_mean": round(self.mean(self.prioritized), 1),
        }
        for pid in self.priority:
            out[f"{pid}_sequential"] = round(self.sequential[pid], 1)
            out[f"{pid}_consolidated"] = round(self.consolidated[pid], 1)
            out[f"{pid}_prioritized"] = round(self.prioritized[pid], 1)
        return out


def _average_latencies(
    programs_or_merged,
    pids: Sequence[str],
    rows: Sequence[object],
    functions,
    cost_model: CostModel,
    merged: bool,
    backend: str = DEFAULT_BACKEND,
) -> dict[str, float]:
    totals = {pid: 0 for pid in pids}
    if merged:
        runners = [make_runner(programs_or_merged, functions, cost_model, backend=backend)]
        param = programs_or_merged.params[0]
    else:
        runners = [
            make_runner(p, functions, cost_model, backend=backend)
            for p in programs_or_merged
        ]
        param = programs_or_merged[0].params[0]
    for row in rows:
        args = {param: row}
        if merged:
            result = runners[0](args)
        else:
            result = combine_sequential(run(args) for run in runners)
        for pid in pids:
            totals[pid] += result.notification_costs[pid]
    return {pid: totals[pid] / len(rows) for pid in pids}


def run_latency_experiment(
    dataset: Dataset,
    programs: list[Program],
    priority: Sequence[str] = (),
    row_limit: int | None = 100,
    options: ConsolidationOptions | None = None,
    config: ExecutionConfig | None = None,
) -> LatencyReport:
    """Measure per-query broadcast latencies under the three strategies."""

    cfg = config or ExecutionConfig()
    rows = dataset.rows if row_limit is None else dataset.rows[:row_limit]
    pids = [p.pid for p in programs]

    merged_default = consolidate_all(
        programs, dataset.functions, options=options, config=cfg
    ).program
    merged_priority = consolidate_all(
        programs,
        dataset.functions,
        options=options,
        order="priority",
        priority=priority,
        config=cfg,
    ).program

    return LatencyReport(
        n_udfs=len(programs),
        rows=len(rows),
        sequential=_average_latencies(
            programs, pids, rows, dataset.functions, cfg.cost_model, merged=False, backend=cfg.backend
        ),
        consolidated=_average_latencies(
            merged_default, pids, rows, dataset.functions, cfg.cost_model, merged=True, backend=cfg.backend
        ),
        prioritized=_average_latencies(
            merged_priority, pids, rows, dataset.functions, cfg.cost_model, merged=True, backend=cfg.backend
        ),
        priority=tuple(priority),
    )
