"""Figure 9: UDF and total speedups across all five domains.

The paper's bar chart has one pair of bars (UDF speedup, total speedup)
per (domain, family) experiment, 50 UDFs each:

* Weather  Q1 Q2 Q3 Q4 Mix
* Flight   Q1 Q2 Q3 Mix
* News     Q1 Q2 Q3 BC
* Twitter  Q1 Q2 Q3 BC
* Stock    Q1 Q2 Q3 BC

and the text reports the aggregates: UDF speedups 2.6x-24.2x (avg 8.4x),
total 1.4x-23.1x (avg 6.0x), consolidation ~0.3 s for 50 UDFs (~0.4 % of
total query time).

:func:`run_figure9` regenerates every bar with this repository's engine.
``scale`` shrinks the datasets/rows for quick runs (speedups are ratios,
so the bar *shape* is row-count independent); ``scale=1.0`` is the paper's
cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..config import ExecutionConfig
from ..consolidation.algorithm import ConsolidationOptions
from ..datasets import (
    generate_flights,
    generate_news,
    generate_stocks,
    generate_twitter,
    generate_weather,
)
from ..queries import DOMAIN_QUERIES
from .harness import ExperimentResult, run_experiment

__all__ = ["Figure9Report", "run_figure9", "DOMAIN_ORDER"]

DOMAIN_ORDER = ["weather", "flight", "news", "twitter", "stock"]


@dataclass
class Figure9Report:
    results: list[ExperimentResult] = field(default_factory=list)

    @property
    def udf_speedups(self) -> list[float]:
        return [r.udf_speedup for r in self.results]

    @property
    def total_speedups(self) -> list[float]:
        return [r.total_speedup for r in self.results]

    def aggregates(self) -> dict:
        """The summary statistics Section 6.3 quotes."""

        udf = self.udf_speedups
        total = self.total_speedups
        cons = [r.consolidation_seconds for r in self.results]
        frac = [r.consolidation_fraction for r in self.results]
        skips = sum(r.smt_skips for r in self.results)
        wall = [r.total_speedup_wall for r in self.results]
        return {
            "smt_precheck_skips": skips,
            "udf_min": min(udf),
            "udf_max": max(udf),
            "udf_avg": sum(udf) / len(udf),
            "total_min": min(total),
            "total_max": max(total),
            "total_avg": sum(total) / len(total),
            "consolidation_avg_s": sum(cons) / len(cons),
            "consolidation_frac_avg": sum(frac) / len(frac),
            "total_wall_min": min(wall),
            "total_wall_max": max(wall),
            "total_wall_paying": sum(w >= 1.0 for w in wall),
            "udfs": sum(r.n_udfs for r in self.results),
            "distinct_udfs": sum(r.distinct_udfs for r in self.results),
        }


def make_datasets(scale: float = 1.0) -> dict:
    """The five evaluation datasets, optionally scaled down uniformly."""

    def n(full: int, minimum: int = 20) -> int:
        return max(minimum, int(full * scale))

    return {
        "weather": generate_weather(cities=n(500)),
        "flight": generate_flights(airlines=n(500)),
        "news": generate_news(articles=n(19043)),
        "twitter": generate_twitter(tweets=n(31152)),
        "stock": generate_stocks(companies=n(100), total_daily_rows=n(377423, 2000)),
    }


def run_figure9(
    n_udfs: int = 50,
    scale: float = 0.05,
    seed: int = 1,
    domains: Iterable[str] = DOMAIN_ORDER,
    options: ConsolidationOptions | None = None,
    datasets: dict | None = None,
    config: ExecutionConfig | None = None,
) -> Figure9Report:
    """Regenerate every Figure 9 bar pair; raises on any soundness failure."""

    cfg = config or ExecutionConfig()
    datasets = datasets or make_datasets(scale)
    report = Figure9Report()
    for domain in domains:
        ds = datasets[domain]
        module = DOMAIN_QUERIES[domain]
        for family in module.FAMILY_NAMES:
            programs = module.make_batch(ds, family, n=n_udfs, seed=seed)
            result = run_experiment(
                ds, programs, family=family, options=options, config=cfg
            )
            report.results.append(result)
    return report
