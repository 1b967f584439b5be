"""Ablation: divide-and-conquer order vs a left fold for n-UDF batches.

Section 6.1 amortises consolidation with a balanced pairwise tree.  A left
fold consolidates the ever-growing accumulator against each new UDF — same
final semantics, different consolidation-time profile.  The batch holds
16 distinct UDFs (the first 16 α-classes of a weather Q1 draw): an α-copy
rides on its twin and takes no pair step, so copies would hide the
comparison.  Both orders take the same n − 1 pair steps; how many of
them share work (and merge rather than being declined) depends on
which programs meet.
"""

import pytest

from repro.consolidation import consolidate_all
from repro.lang.visitors import canonicalize, notified_pids
from repro.queries import DOMAIN_QUERIES

from conftest import BENCH_SEED

N = 16


def distinct_batch(dataset):
    """``N`` pairwise non-α-equivalent weather Q1 UDFs, in draw order."""

    firsts = {}
    for p in DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=4 * N, seed=BENCH_SEED):
        firsts.setdefault(canonicalize(p), p)
    programs = list(firsts.values())[:N]
    assert len(programs) == N
    return programs


@pytest.mark.parametrize("order", ("clustered", "tree", "fold"))
def test_ablation_dnc_order(benchmark, weather_ds, order):
    programs = distinct_batch(weather_ds)

    def consolidate():
        return consolidate_all(programs, weather_ds.functions, order=order)

    report = benchmark.pedantic(consolidate, rounds=1, iterations=1)
    assert notified_pids(report.program.body) == {p.pid for p in programs}
    benchmark.extra_info.update(
        {
            "ablation": "dnc-order",
            "order": order,
            "pairs": len(report.pairs),
            "merges": report.pair_consolidations,
            "depth": report.tree_depth,
            "consolidation_s": round(report.duration, 3),
        }
    )
    print(
        f"[ablation dnc {order}] {len(report.pairs)} pairs "
        f"({report.pair_consolidations} merged), depth "
        f"{report.tree_depth}, {report.duration:.2f}s"
    )


def test_tree_is_shallower(weather_ds):
    programs = distinct_batch(weather_ds)
    tree = consolidate_all(programs, weather_ds.functions, order="tree")
    fold = consolidate_all(programs, weather_ds.functions, order="fold")
    assert tree.tree_depth < fold.tree_depth
    assert len(tree.pairs) == len(fold.pairs) == N - 1
