"""Figure 10: scalability with the number of UDFs (News mixes).

The paper plots, against the number of UDFs (log-scale y):

* ``whereMany`` UDF and total time — growing roughly linearly,
* ``whereConsolidated`` UDF and total time — staying roughly constant,
* consolidation time — growing with n but < 1 s at 300 UDFs.

:func:`run_figure10` reproduces all five series on the News BC mixes.
Times are reported both in deterministic cost-clock units (the primary,
noise-free signal) and wall-clock seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..config import ExecutionConfig
from ..consolidation.algorithm import ConsolidationOptions
from ..datasets import generate_news
from ..queries import DOMAIN_QUERIES
from .harness import ExperimentResult, run_experiment

__all__ = ["ScalabilityPoint", "Figure10Report", "run_figure10", "DEFAULT_SWEEP"]

DEFAULT_SWEEP = (10, 25, 50, 100, 150, 200, 250, 300)


@dataclass
class ScalabilityPoint:
    n_udfs: int
    many_udf_cost: int
    many_total_cost: int
    cons_udf_cost: int
    cons_total_cost: int
    many_wall: float
    cons_wall: float
    consolidation_seconds: float

    @staticmethod
    def from_result(r: ExperimentResult) -> "ScalabilityPoint":
        return ScalabilityPoint(
            n_udfs=r.n_udfs,
            many_udf_cost=r.many_udf_cost,
            many_total_cost=r.many_total_cost,
            cons_udf_cost=r.cons_udf_cost,
            cons_total_cost=r.cons_total_cost,
            many_wall=r.many_wall,
            cons_wall=r.cons_wall,
            consolidation_seconds=r.consolidation_seconds,
        )


@dataclass
class Figure10Report:
    points: list[ScalabilityPoint] = field(default_factory=list)

    def growth_ratios(self) -> dict:
        """How each series scales from the first to the last sweep point.

        The paper's claim: whereMany grows ~linearly with n while
        whereConsolidated stays roughly constant.
        """

        first, last = self.points[0], self.points[-1]
        n_ratio = last.n_udfs / first.n_udfs
        return {
            "n_ratio": n_ratio,
            "many_total_growth": last.many_total_cost / max(1, first.many_total_cost),
            "cons_total_growth": last.cons_total_cost / max(1, first.cons_total_cost),
            "many_udf_growth": last.many_udf_cost / max(1, first.many_udf_cost),
            "cons_udf_growth": last.cons_udf_cost / max(1, first.cons_udf_cost),
        }


def run_figure10(
    sweep: Sequence[int] = DEFAULT_SWEEP,
    articles: int = 400,
    family: str = "BC",
    seed: int = 1,
    options: ConsolidationOptions | None = None,
    config: ExecutionConfig | None = None,
) -> Figure10Report:
    """Sweep the number of News-mix UDFs; returns all five series."""

    cfg = config or ExecutionConfig()
    dataset = generate_news(articles=articles)
    module = DOMAIN_QUERIES["news"]
    report = Figure10Report()
    for n in sweep:
        programs = module.make_batch(dataset, family, n=n, seed=seed)
        result = run_experiment(
            dataset, programs, family=family, options=options, config=cfg
        )
        report.points.append(ScalabilityPoint.from_result(result))
    return report
