"""The measurement harness behind Figures 9 and 10.

One experiment = one (dataset, UDF batch) pair measured under both
operators:

* ``whereMany``          — read once, run every UDF per record;
* ``whereConsolidated``  — consolidate the batch, run the merged UDF.

Reported quantities mirror the paper's:

* **UDF speedup** — ratio of cost-clock units spent inside UDFs (the dark
  bars of Figure 9); also reported in wall-clock.
* **Total speedup** — ratio including IO and engine overhead (light bars);
  the consolidated side's wall-clock total *includes consolidation time*,
  exactly as in Section 6.3.
* **Consolidation time** and its fraction of total query time (the paper
  reports 0.3 s / 0.4 % for 50 UDFs).

The harness verifies output equality (both operators must select the same
rows per query) and Theorem 1 on the sampled rows before reporting any
numbers — an experiment with a soundness violation raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..config import ExecutionConfig
from ..consolidation.algorithm import ConsolidationOptions
from ..datasets.records import Dataset
from ..lang.ast import Program
from ..naiad.linq import run_where_consolidated, run_where_many

__all__ = ["ExperimentResult", "SoundnessError", "run_experiment"]


class SoundnessError(AssertionError):
    """whereMany and whereConsolidated disagreed — consolidation bug."""


@dataclass
class ExperimentResult:
    """All measurements for one (domain, family, n) experiment."""

    domain: str
    family: str
    n_udfs: int
    rows: int

    many_udf_cost: int
    cons_udf_cost: int
    many_total_cost: int
    cons_total_cost: int
    many_wall: float
    cons_wall: float
    consolidation_seconds: float
    merged_program_size: int = 0
    pair_consolidations: int = 0
    distinct_udfs: int = 0  # α-classes: the UDFs the calculus consolidated
    simplify_stats: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    @property
    def smt_skips(self) -> int:
        """Entailment queries decided without the solver (pre-check skips)."""

        return int(self.simplify_stats.get("precheck_skips", 0))

    @property
    def udf_speedup(self) -> float:
        return self.many_udf_cost / max(1, self.cons_udf_cost)

    @property
    def total_speedup(self) -> float:
        return self.many_total_cost / max(1, self.cons_total_cost)

    @property
    def udf_speedup_wall(self) -> float:
        return self.many_wall / max(1e-9, self.cons_wall)

    @property
    def total_speedup_wall(self) -> float:
        """Wall-clock speedup with consolidation time charged to the merged side."""

        return self.many_wall / max(1e-9, self.cons_wall + self.consolidation_seconds)

    @property
    def consolidation_fraction(self) -> float:
        """Consolidation time as a fraction of consolidated total wall time."""

        denom = self.cons_wall + self.consolidation_seconds
        return self.consolidation_seconds / denom if denom else 0.0

    def row(self) -> dict:
        return {
            "domain": self.domain,
            "family": self.family,
            "n": self.n_udfs,
            "rows": self.rows,
            "udf_speedup": round(self.udf_speedup, 2),
            "total_speedup": round(self.total_speedup, 2),
            "udf_speedup_wall": round(self.udf_speedup_wall, 2),
            "total_speedup_wall": round(self.total_speedup_wall, 2),
            "distinct": self.distinct_udfs,
            "consolidation_s": round(self.consolidation_seconds, 3),
            "consolidation_frac": round(self.consolidation_fraction, 4),
            "smt_skips": self.smt_skips,
            "smt_queries": int(self.simplify_stats.get("smt_queries", 0)),
            "memo_hits": int(self.simplify_stats.get("memo_hits", 0)),
        }


def run_experiment(
    dataset: Dataset,
    programs: Sequence[Program],
    family: str = "?",
    row_limit: int | None = None,
    options: ConsolidationOptions | None = None,
    config: ExecutionConfig | None = None,
) -> ExperimentResult:
    """Measure one batch under both operators; raises on any disagreement.

    With a live ``config.telemetry`` each experiment runs against a child
    registry, so the result carries a metrics snapshot *for this experiment
    only* while the parent registry still aggregates the whole batch.
    """

    cfg = config or ExecutionConfig()
    local = cfg.telemetry.child()
    run_cfg = cfg if local is cfg.telemetry else cfg.evolve(telemetry=local)

    rows = dataset.rows if row_limit is None else dataset.rows[:row_limit]

    many = run_where_many(rows, programs, dataset.functions, config=run_cfg)
    cons, report = run_where_consolidated(
        rows, programs, dataset.functions, options=options, config=run_cfg
    )

    if many.buckets != cons.buckets:
        diff = {
            pid: (len(many.buckets.get(pid, [])), len(cons.buckets.get(pid, [])))
            for pid in set(many.buckets) | set(cons.buckets)
            if many.buckets.get(pid) != cons.buckets.get(pid)
        }
        raise SoundnessError(f"{dataset.name}/{family}: outputs differ: {diff}")
    if cons.metrics.udf_cost > many.metrics.udf_cost:
        raise SoundnessError(
            f"{dataset.name}/{family}: consolidated UDF cost "
            f"{cons.metrics.udf_cost} exceeds sequential {many.metrics.udf_cost}"
        )

    from ..lang.visitors import stmt_size

    metrics_snapshot = local.metrics.snapshot() if local.enabled else {}
    cfg.telemetry.absorb(local)

    return ExperimentResult(
        domain=dataset.name,
        family=family,
        n_udfs=len(programs),
        rows=len(rows),
        many_udf_cost=many.metrics.udf_cost,
        cons_udf_cost=cons.metrics.udf_cost,
        many_total_cost=many.metrics.total_cost,
        cons_total_cost=cons.metrics.total_cost,
        many_wall=many.metrics.wall_seconds,
        cons_wall=cons.metrics.wall_seconds,
        consolidation_seconds=report.duration,
        merged_program_size=stmt_size(report.program.body),
        pair_consolidations=report.pair_consolidations,
        distinct_udfs=len(programs) - len(report.rides),
        simplify_stats=dict(report.simplify_stats),
        metrics=metrics_snapshot,
    )
