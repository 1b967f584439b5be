"""Shared machinery for the Figure 9 family benchmarks."""

from repro.consolidation import consolidate_all
from repro.naiad import from_collection, run_where_many
from repro.queries import DOMAIN_QUERIES

from conftest import BENCH_N_UDFS, BENCH_SEED


def figure9_family_benchmark(benchmark, dataset, domain, family, n_udfs=BENCH_N_UDFS):
    """Benchmark whereConsolidated on one (domain, family) bar of Figure 9.

    The benchmarked target is the consolidated *execution*; the baseline
    (whereMany) is measured once and reported through ``extra_info`` along
    with the speedups and consolidation time, so a benchmark run regenerates
    the full bar pair.
    """

    module = DOMAIN_QUERIES[domain]
    programs = module.make_batch(dataset, family, n=n_udfs, seed=BENCH_SEED)
    rows = dataset.rows

    many = run_where_many(rows, programs, dataset.functions)
    report = consolidate_all(programs, dataset.functions)
    pids = [p.pid for p in programs]

    def run_consolidated():
        query = from_collection(rows).where_consolidated(
            report.program, pids, dataset.functions
        )
        return query.run()  # ExecutionConfig default: 4 workers

    cons = benchmark(run_consolidated)

    assert many.buckets == cons.buckets, "operators disagreed — soundness bug"
    udf_speedup = many.metrics.udf_cost / max(1, cons.metrics.udf_cost)
    total_speedup = many.metrics.total_cost / max(1, cons.metrics.total_cost)
    assert udf_speedup >= 1.0, "consolidation must never slow UDF execution down"

    benchmark.extra_info.update(
        {
            "figure": "9",
            "domain": domain,
            "family": family,
            "n_udfs": n_udfs,
            "rows": len(rows),
            "udf_speedup": round(udf_speedup, 2),
            "total_speedup": round(total_speedup, 2),
            "consolidation_s": round(report.duration, 3),
        }
    )
    print(
        f"[fig9 {domain}/{family}] UDF {udf_speedup:.2f}x  total {total_speedup:.2f}x  "
        f"consolidation {report.duration:.2f}s ({n_udfs} UDFs, {len(rows)} rows)"
    )
    return udf_speedup, total_speedup
