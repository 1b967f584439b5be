"""Compiled backend vs interpreter on the Weather family (perf guardrail).

Times ``whereMany`` and ``whereConsolidated`` end-to-end under both
execution backends on the Weather Mix batch and records per-record
wall-clock plus speedups in ``BENCH_compiled.json`` at the repository
root::

    PYTHONPATH=src python benchmarks/bench_compiled_vs_interp.py

The guardrail this file exists for: the compiled backend must keep
``whereMany[50]`` at >= 5x lower wall-clock per record than the
interpreter on Weather.  Run under pytest it performs a reduced-scale
version of the same comparison (and asserts output parity) without
touching the JSON file.
"""

import json
import sys
import time
from pathlib import Path

from repro.config import ExecutionConfig
from repro.consolidation import consolidate_all
from repro.datasets import generate_weather
from repro.lang.compile import clear_compile_cache, compile_cached
from repro.naiad.linq import from_collection, run_where_many
from repro.queries import DOMAIN_QUERIES

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_compiled.json"


def _best_of(repeats, fn):
    best, result = None, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def measure(cities=120, n_udfs=50, family="Mix", seed=1, repeats=3):
    """Measure both operators under both backends; returns the report dict."""

    dataset = generate_weather(cities=cities)
    programs = DOMAIN_QUERIES["weather"].make_batch(dataset, family, n=n_udfs, seed=seed)
    rows = dataset.rows
    ft = dataset.functions

    # Consolidation happens once, outside every timed region: this file
    # compares *execution* backends, not the consolidator.
    merged = consolidate_all(programs, ft).program
    pids = [p.pid for p in programs]

    # One-time translation cost, then the cache serves every later run.
    clear_compile_cache()
    t0 = time.perf_counter()
    for p in programs:
        compile_cached(p, ft)
    compile_cached(merged, ft)
    compile_seconds = time.perf_counter() - t0

    report = {
        "experiment": "compiled_vs_interp",
        "domain": "weather",
        "family": family,
        "n_udfs": n_udfs,
        "rows": len(rows),
        "compile_seconds": round(compile_seconds, 4),
        "compile_seconds_per_udf": round(compile_seconds / (n_udfs + 1), 6),
    }

    def run_consolidated(backend):
        config = ExecutionConfig(backend=backend)  # default: 4 workers
        return from_collection(rows, config).where_consolidated(merged, pids, ft).run()

    def run_many(backend):
        return run_where_many(rows, programs, ft, config=ExecutionConfig(backend=backend))

    results = {}
    for label, run in (
        ("where_many", run_many),
        ("where_consolidated", run_consolidated),
    ):
        interp_s, interp_run = _best_of(repeats, lambda: run("interp"))
        compiled_s, compiled_run = _best_of(repeats, lambda: run("compiled"))
        assert interp_run.buckets == compiled_run.buckets, (
            f"{label}: backends disagree — compiled backend bug"
        )
        results[label] = (interp_run, compiled_run)
        report[label] = {
            "interp_s": round(interp_s, 4),
            "compiled_s": round(compiled_s, 4),
            "interp_ms_per_record": round(interp_s / len(rows) * 1e3, 4),
            "compiled_ms_per_record": round(compiled_s / len(rows) * 1e3, 4),
            "speedup": round(interp_s / compiled_s, 2),
        }

    return report, results


def test_backends_agree_and_compiled_is_faster():
    """Reduced-scale pytest entry: parity always, speed sanity-checked."""

    report, _ = measure(cities=40, n_udfs=10, repeats=1)
    # Parity is asserted inside measure(); the speedup bar is only enforced
    # by the standalone run (timing under pytest-parallel load is noisy),
    # but even here the compiled backend should never lose outright.
    assert report["where_many"]["speedup"] > 1.0


def main() -> int:
    report, _ = measure()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    many = report["where_many"]
    cons = report["where_consolidated"]
    print(f"wrote {OUTPUT}")
    print(
        f"whereMany[{report['n_udfs']}]        interp {many['interp_ms_per_record']:.3f} ms/record  "
        f"compiled {many['compiled_ms_per_record']:.3f} ms/record  ({many['speedup']:.1f}x)"
    )
    print(
        f"whereConsolidated[{report['n_udfs']}] interp {cons['interp_ms_per_record']:.3f} ms/record  "
        f"compiled {cons['compiled_ms_per_record']:.3f} ms/record  ({cons['speedup']:.1f}x)"
    )
    if many["speedup"] < 5.0:
        print("FAIL: whereMany compiled speedup below the 5x guardrail", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
