"""The four workloads and how their inputs are made.

Every workload runs the same script (see :mod:`measure`): consolidate a
batch, run it un-merged and merged on both backends, then drive a
``QueryRegistry`` through a register / unregister / re-register / run /
replay cycle.  What differs is the query family — which decides the layer
the time goes to — and the sizes, which put most of the measuring window
on that layer.

Inputs from the seeds:

* ``--seed`` draws the rows the queries run over (a seeded sample of the
  domain's dataset, generated with the generator's default seed) and the
  rows of the correctness sample.
* ``--family-seed`` (default 0) draws the queries with
  ``DOMAIN_QUERIES[domain].make_batch``.  It is *not* tied to ``--seed``:
  consolidation cost per draw is heavy-tailed (ten draws of News-BC at
  n=16 took 0.8 s to 9.2 s, SMT checks 571 to 1481), so tying it to the
  run seed would put the run-to-run spread of every consolidation timing
  far above any bound a regression gate could use.  ``--family-seed 1`` is
  reserved for validating a claimed gain on queries not used while the
  change was written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Sequence

REFERENCE_ROWS = 512


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    domain: str
    family: str
    generate: str  # name of the generator in repro.datasets
    generate_kwargs: dict
    n_udfs: int  # batch size of the consolidate / run phases
    n_rows: int  # rows sampled from the dataset by --seed
    # Queries registered one at a time, and how many of those are then
    # unregistered and registered again.  Register latency grows with the
    # position of the call in the cycle, so the pooled samples form one group
    # per position; the counts are chosen so that the median and the 80th
    # percentile of m + k registrations (7 or 13) and the median of k
    # unregistrations (odd) fall inside a group, not on the gap between two.
    service_queries: int
    service_churned: int
    # Runs per timed sample, per configuration: fixed, not adaptive, so a
    # sample measures the same work on every commit.
    run_loops: dict = field(default_factory=dict)

    def quick(self) -> "Workload":
        """The smoke-test size: 8 UDFs, 200 rows, 4 registered queries."""

        return replace(
            self,
            n_udfs=min(self.n_udfs, 8),
            n_rows=min(self.n_rows, 200),
            service_queries=min(self.service_queries, 4),
            service_churned=1,
            run_loops={},
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="loops",
            why="Weather Q3 bounded-loop UDFs: consolidation time is loop-invariant "
            "inference plus LIA, runs are milliseconds; engine changes must read no change",
            domain="weather",
            family="Q3",
            generate="generate_weather",
            generate_kwargs={},
            n_udfs=10,
            n_rows=400,
            service_queries=6,
            service_churned=1,
            run_loops={"many_compiled": 4, "cons_compiled": 12,
                       "many_vectorized": 3, "cons_vectorized": 8},
        ),
        Workload(
            name="bc_smt",
            why="News boolean combinations, no loops: consolidation time is SMT (CNF, SAT, "
            "theory combination) and the merged program is largest per input node",
            domain="news",
            family="BC",
            generate="generate_news",
            generate_kwargs={"articles": 2000},
            n_udfs=16,
            n_rows=1000,
            service_queries=6,
            service_churned=1,
            run_loops={"many_compiled": 3, "cons_compiled": 8,
                       "many_vectorized": 12, "cons_vectorized": 12},
        ),
        Workload(
            name="scan",
            why="Twitter Q2 straight-line UDFs over many rows: consolidation is cheap and "
            "execution dominates; solver changes must read no change on the run metrics",
            domain="twitter",
            family="Q2",
            generate="generate_twitter",
            generate_kwargs={"tweets": 8000},
            n_udfs=50,
            n_rows=2500,
            service_queries=6,
            service_churned=1,
            run_loops={"many_compiled": 1, "cons_compiled": 3,
                       "many_vectorized": 3, "cons_vectorized": 4},
        ),
        Workload(
            name="service_churn",
            why="Flight Mix (lowest sharing) through QueryRegistry with an fsync'd event log: "
            "incremental add/remove, plan cache and replay beside reads, one closed-loop client",
            domain="flight",
            family="Mix",
            generate="generate_flights",
            generate_kwargs={},
            n_udfs=12,
            n_rows=400,
            service_queries=10,
            service_churned=3,
            run_loops={"many_compiled": 8, "cons_compiled": 16,
                       "many_vectorized": 24, "cons_vectorized": 24},
        ),
    )
}


@dataclass
class Inputs:
    """Everything a workload's script reads; the program sees only this."""

    functions: Any
    programs: list
    rows: list
    reference_rows: list
    ir_nodes: int
    generate_s: float
    make_batch_s: float


def make_inputs(workload: Workload, seed: int, family_seed: int = 0) -> Inputs:
    """Generate the dataset, sample its rows and draw the query batch."""

    from repro import datasets
    from repro.lang.visitors import stmt_size
    from repro.queries import DOMAIN_QUERIES

    started = perf_counter()
    dataset = getattr(datasets, workload.generate)(**workload.generate_kwargs)
    generate_s = perf_counter() - started

    started = perf_counter()
    programs = DOMAIN_QUERIES[workload.domain].make_batch(
        dataset, workload.family, workload.n_udfs, family_seed
    )
    make_batch_s = perf_counter() - started

    rng = random.Random(seed)
    rows = _sample(rng, dataset.rows, workload.n_rows)
    return Inputs(
        functions=dataset.functions,
        programs=programs,
        rows=rows,
        reference_rows=_sample(rng, rows, REFERENCE_ROWS),
        ir_nodes=sum(stmt_size(p.body) for p in programs),
        generate_s=generate_s,
        make_batch_s=make_batch_s,
    )


def _sample(rng: random.Random, rows: Sequence, k: int) -> list:
    return rng.sample(list(rows), min(k, len(rows)))
