"""Calibrated planner vs the related heuristic (perf + cost guardrail).

The cost-driven planner's pitch: spend consolidation effort where a
calibrated cost model predicts wall-clock payoff, skip pairs it predicts
unprofitable, and lose nothing on the merged plan's runtime cost.  This
file measures that pitch as a paired, same-process A/B on the Weather
Mix family:

* **A** — ``consolidate_all`` under ``ExecutionConfig(planner="related")``
  (the default clustered/related pipeline);
* **B** — the same under ``ExecutionConfig(planner="calibrated")`` with the
  uniform fallback model (no trace needed, so the benchmark is
  self-contained and deterministic).

Runs are interleaved A,B,A,B,… and each side keeps its best, so clock
drift hits both equally.  Beyond timing, both merged plans execute over
the dataset and must produce identical notification buckets (planning
must never change semantics); the runtime UDF cost ratio B/A is the
equal-or-better guardrail.

Bars: **speedup >= 1.15** (calibrated consolidation wall time at least
15% lower) and **cost_ratio <= 1.02** (merged-plan runtime cost within
noise of equal; in practice the loop-shape feature makes it better).

Standalone run writes ``BENCH_calibration.json`` at the repository
root::

    PYTHONPATH=src python benchmarks/bench_calibration.py

Under pytest (``pytest benchmarks/bench_calibration.py``) the same
scale runs once and enforces slightly relaxed bars (timing under suite
load is noisy); CI's bench smoke job runs the standalone entry.
"""

import json
import sys
import time
from pathlib import Path

from repro.config import ExecutionConfig
from repro.consolidation import consolidate_all
from repro.datasets import generate_weather
from repro.naiad.linq import from_collection, run_where_many
from repro.queries import DOMAIN_QUERIES

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_calibration.json"

SPEEDUP_BAR = 1.15  # calibrated planner consolidation wall-time speedup
COST_RATIO_BAR = 1.02  # merged-plan runtime UDF cost, calibrated / related


def measure(cities=50, years=1, n_udfs=24, seed=3, repeats=3, rows_limit=400):
    """Interleaved related-vs-calibrated timing + runtime cost parity."""

    dataset = generate_weather(cities=cities, years=years)
    programs = DOMAIN_QUERIES["weather"].make_batch(
        dataset, "Mix", n=n_udfs, seed=seed
    )
    pids = [p.pid for p in programs]
    rows = list(dataset.rows[:rows_limit])

    def consolidate(planner):
        started = time.perf_counter()
        report = consolidate_all(
            list(programs), dataset.functions, config=ExecutionConfig(planner=planner)
        )
        return time.perf_counter() - started, report

    # Warm both paths once (compile caches, SMT formula cache) so the
    # timed iterations compare planning strategies, not cold caches.
    consolidate("related")
    consolidate("calibrated")

    best = {"related": None, "calibrated": None}
    reports = {}
    for _ in range(repeats):
        for planner in ("related", "calibrated"):
            elapsed, report = consolidate(planner)
            reports[planner] = report
            if best[planner] is None or elapsed < best[planner]:
                best[planner] = elapsed

    many = run_where_many(rows, programs, dataset.functions)
    costs = {}
    for planner, report in reports.items():
        cfg = ExecutionConfig()
        result = (
            from_collection(rows, config=cfg)
            .where_consolidated(report.program, pids, dataset.functions)
            .run(cfg)
        )
        assert result.buckets == many.buckets, (
            f"{planner} planner changed notification buckets — soundness bug"
        )
        costs[planner] = result.metrics.udf_cost

    calibrated = reports["calibrated"]
    decisions = list(calibrated.planner_decisions)
    speedup = best["related"] / best["calibrated"]
    cost_ratio = costs["calibrated"] / max(1, costs["related"])
    return {
        "experiment": "calibration_planner",
        "domain": "weather",
        "family": "Mix",
        "n_udfs": n_udfs,
        "seed": seed,
        "rows": len(rows),
        "repeats": repeats,
        "related_consolidation_s": round(best["related"], 4),
        "calibrated_consolidation_s": round(best["calibrated"], 4),
        "weather_planner_consolidation_speedup": round(speedup, 4),
        "related_udf_cost": costs["related"],
        "calibrated_udf_cost": costs["calibrated"],
        "weather_planner_cost_ratio": round(cost_ratio, 4),
        "planner_merges": sum(1 for d in decisions if d["merged"]),
        "planner_skips": sum(1 for d in decisions if not d["merged"]),
        "planner_mispredictions": sum(1 for d in decisions if d["mispredicted"]),
        "speedup_bar": SPEEDUP_BAR,
        "cost_ratio_bar": COST_RATIO_BAR,
    }


def test_calibrated_planner_speedup_and_cost():
    """Pytest entry: parity always; relaxed bars against suite-load noise."""

    report = measure(repeats=2)
    # Bucket parity is asserted inside measure().  The standalone run and
    # CI's bench smoke enforce the full 1.15/1.02 bars.
    assert report["weather_planner_consolidation_speedup"] >= 1.05
    assert report["weather_planner_cost_ratio"] <= 1.05
    assert report["planner_skips"] >= 1, "planner never skipped a pair"


def main() -> int:
    report = measure()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    print(
        f"consolidate[{report['n_udfs']}] Weather Mix  "
        f"related {report['related_consolidation_s']:.3f}s  "
        f"calibrated {report['calibrated_consolidation_s']:.3f}s  "
        f"(speedup {report['weather_planner_consolidation_speedup']:.2f}x)"
    )
    print(
        f"merged-plan UDF cost  related {report['related_udf_cost']}  "
        f"calibrated {report['calibrated_udf_cost']}  "
        f"(ratio {report['weather_planner_cost_ratio']:.4f}); "
        f"{report['planner_merges']} merges, {report['planner_skips']} skips, "
        f"{report['planner_mispredictions']} mispredictions"
    )
    failed = False
    if report["weather_planner_consolidation_speedup"] < SPEEDUP_BAR:
        print(
            f"FAIL: planner speedup "
            f"{report['weather_planner_consolidation_speedup']:.3f} is under "
            f"the {SPEEDUP_BAR:.2f} bar",
            file=sys.stderr,
        )
        failed = True
    if report["weather_planner_cost_ratio"] > COST_RATIO_BAR:
        print(
            f"FAIL: planner cost ratio "
            f"{report['weather_planner_cost_ratio']:.4f} exceeds the "
            f"{COST_RATIO_BAR:.2f} bar",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
