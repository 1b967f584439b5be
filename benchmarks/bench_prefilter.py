"""Prefilter speedup on a Froid-style low-selectivity workload (perf gate).

The prefilter pass (:mod:`repro.analysis.prefilter`) pays off exactly when
a UDF couples a *cheap* guard with an *expensive* body: the synthesized
necessary condition keeps the cheap conjunct, drops the loop-carried one,
and rejected rows never pay for the loop.  This benchmark builds that
workload deliberately:

* each UDF reads one monthly temperature (cost 40), then scans all twelve
  months accumulating rainfall and temperature sums (24 calls, cost 960),
  and notifies on ``T < t and (X < s and W < w)``;
* the temperature thresholds ``T`` are drawn from the dataset's own
  distribution so that the *union* selectivity over the whole batch is at
  most :data:`TARGET_SELECTIVITY` (asserted, not assumed);
* the loop-carried sums ``s``/``w`` cannot appear in an argument-only
  guard, so the prefilter is exactly the cheap disjunction of temperature
  tests — one call per UDF instead of twenty-five.

The batch is consolidated once and run through ``whereConsolidated`` with
the prefilter off and on; buckets must match exactly and the per-record
UDF cost must improve by at least :data:`SPEEDUP_BAR` (2x).  Costs come
from the deterministic cost semantics, so the gate is machine-independent;
wall-clock numbers are reported for context only.

Standalone run writes ``BENCH_prefilter.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_prefilter.py

Under pytest it runs a reduced-scale version with the same 2x assertion
(the gate is cost-based, hence stable under parallel test load).
"""

import json
import sys
import time
from pathlib import Path

from repro.analysis.prefilter import synthesize_prefilter
from repro.config import ExecutionConfig
from repro.consolidation import consolidate_all
from repro.datasets import generate_weather
from repro.lang.ast import (
    Arg,
    BinOp,
    BoolOp,
    Call,
    Cmp,
    IntConst,
    Notify,
    Program,
    Var,
    While,
    seq,
)
from repro.lang.ast import Assign
from repro.naiad.linq import run_where_consolidated

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_prefilter.json"

SPEEDUP_BAR = 2.0  # per-record UDF cost, prefilter off / on
TARGET_SELECTIVITY = 0.10  # max fraction of rows the merged guard may pass


def _froid_udf(pid: str, month: int, t_thresh: int, s_thresh: int, w_thresh: int) -> Program:
    """One guarded-aggregate UDF: cheap temperature test, expensive scan."""

    row = Arg("row")
    body = seq(
        Assign("t", Call("monthly_avg_temp", (row, IntConst(month)))),
        Assign("s", IntConst(0)),
        Assign("w", IntConst(0)),
        Assign("i", IntConst(1)),
        While(
            Cmp("<=", Var("i"), IntConst(12)),
            seq(
                Assign("s", BinOp("+", Var("s"), Call("monthly_rainfall", (row, Var("i"))))),
                Assign("w", BinOp("+", Var("w"), Call("monthly_avg_temp", (row, Var("i"))))),
                Assign("i", BinOp("+", Var("i"), IntConst(1))),
            ),
        ),
        Notify(
            pid,
            BoolOp(
                "and",
                Cmp("<", IntConst(t_thresh), Var("t")),
                BoolOp(
                    "and",
                    Cmp("<", IntConst(s_thresh), Var("s")),
                    Cmp("<", IntConst(w_thresh), Var("w")),
                ),
            ),
        ),
    )
    return Program(pid=pid, params=("row",), body=body)


def build_low_selectivity_batch(
    dataset, n_udfs: int = 6, target_selectivity: float = TARGET_SELECTIVITY
):
    """Build the workload; return ``(programs, union_selectivity)``.

    Temperature thresholds are per-UDF upper percentiles of the actual
    per-month distribution, sized so the union of the cheap guards passes
    at most ``target_selectivity`` of the rows; the loop-sum thresholds
    sit near the median, so the expensive conjuncts still decide who
    notifies among the survivors.
    """

    temp = dataset.functions["monthly_avg_temp"].fn
    rain = dataset.functions["monthly_rainfall"].fn
    rows = dataset.rows
    rain_sums = sorted(sum(rain(c, m) for m in range(1, 13)) for c in rows)
    temp_sums = sorted(sum(temp(c, m) for m in range(1, 13)) for c in rows)
    s_thresh = rain_sums[len(rows) // 2]
    w_thresh = temp_sums[len(rows) // 2]

    per_udf = max(1, int(len(rows) * target_selectivity / n_udfs))
    programs = []
    guards = []  # (month, t_thresh) of each UDF's cheap conjunct
    for k in range(n_udfs):
        month = (k % 12) + 1
        temps = sorted(temp(c, month) for c in rows)
        t_thresh = temps[-per_udf]  # ~per_udf rows strictly above
        guards.append((month, t_thresh))
        programs.append(
            _froid_udf(f"q{k}", month, t_thresh, s_thresh + k, w_thresh + k)
        )

    passing = sum(
        1 for c in rows if any(temp(c, month) > t for month, t in guards)
    )
    return programs, passing / len(rows)


def measure(cities: int = 120, n_udfs: int = 6, workers: int = 4) -> dict:
    """Run the A/B (prefilter off vs on); return the report dict."""

    dataset = generate_weather(cities=cities)
    programs, selectivity = build_low_selectivity_batch(dataset, n_udfs=n_udfs)
    assert selectivity <= TARGET_SELECTIVITY, (
        f"workload construction failed: union selectivity {selectivity:.3f} "
        f"exceeds the {TARGET_SELECTIVITY:.0%} target"
    )
    rows = dataset.rows

    started = time.perf_counter()
    report = consolidate_all(
        programs, dataset.functions, config=ExecutionConfig(prefilter=True)
    )
    consolidation_seconds = time.perf_counter() - started
    pre = report.prefilter
    assert pre is not None and not pre.trivial, (
        "prefilter synthesis went trivial on the workload built for it: "
        f"{pre and pre.degraded_reason}"
    )

    started = time.perf_counter()
    off, _ = run_where_consolidated(
        rows, programs, dataset.functions, config=ExecutionConfig()
    )
    off_seconds = time.perf_counter() - started

    started = time.perf_counter()
    on, _ = run_where_consolidated(
        rows, programs, dataset.functions, config=ExecutionConfig(prefilter=True)
    )
    on_seconds = time.perf_counter() - started

    assert off.buckets == on.buckets, (
        "prefilter changed the buckets — soundness bug, not a perf problem"
    )

    off_per_record = off.metrics.udf_cost / len(rows)
    on_per_record = on.metrics.udf_cost / len(rows)
    return {
        "experiment": "prefilter_low_selectivity",
        "domain": "weather",
        "n_udfs": n_udfs,
        "rows": len(rows),
        "workers": workers,
        "selectivity": round(selectivity, 4),
        "phi": pre.to_dict()["phi"],
        "shape": pre.shape,
        "certificate": pre.certificate,
        "synthesis_seconds": round(pre.synthesis_seconds, 4),
        "consolidation_seconds": round(consolidation_seconds, 4),
        "cost_per_record_off": round(off_per_record, 2),
        "cost_per_record_on": round(on_per_record, 2),
        "cost_speedup": round(off_per_record / max(1e-9, on_per_record), 4),
        "wall_seconds_off": round(off_seconds, 4),
        "wall_seconds_on": round(on_seconds, 4),
        "bar": SPEEDUP_BAR,
    }


def test_prefilter_speedup_and_parity():
    """Reduced-scale pytest entry; the gate is cost-based so it holds here."""

    report = measure(cities=50, n_udfs=4)
    assert report["certificate"] == "proved"
    assert report["selectivity"] <= TARGET_SELECTIVITY
    assert report["cost_speedup"] >= SPEEDUP_BAR


def main() -> int:
    report = measure()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    print(
        f"whereConsolidated[{report['n_udfs']}] Weather, selectivity "
        f"{report['selectivity']:.1%}: {report['cost_per_record_off']:.0f} -> "
        f"{report['cost_per_record_on']:.0f} cost/record "
        f"({report['cost_speedup']:.2f}x), phi = {report['phi']}"
    )
    if report["cost_speedup"] < SPEEDUP_BAR:
        print(
            f"FAIL: prefilter speedup {report['cost_speedup']:.2f}x is below "
            f"the {SPEEDUP_BAR:.1f}x bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
