"""WordCount over a consolidated filter (the Naiad tutorial workload).

The paper's News Q1 family "is modeled after the WordCount program provided
as part of the Naiad tutorial".  This example combines both halves: several
teams register article filters (consolidated into one UDF), and the
articles *any* team selected flow into a shared word-count aggregation —
a filter → flat_map → count_by_key dataflow.  Run with::

    python examples/news_wordcount.py
"""

from repro import ExecutionConfig, Telemetry
from repro.consolidation import consolidate_all
from repro.datasets import generate_news
from repro.lang import arg, call, eq, gt
from repro.naiad import CountByKey, from_collection
from repro.queries.families import expr_to_program


def main() -> None:
    # One config object carries every run-time knob (workers, backend,
    # cost model) plus a live telemetry capturing metrics for the whole job.
    cfg = ExecutionConfig(workers=4, telemetry=Telemetry.capture())
    dataset = generate_news(articles=800)
    word_ids = dataset.meta["word_ids"]
    words = dataset.meta["words"]

    # Three teams' filters over the same corpus.
    filters = [
        expr_to_program("finance", eq(call("contains_word", arg("row"), word_ids["market"]), 1)),
        expr_to_program("energy", eq(call("contains_word", arg("row"), word_ids["oil"]), 1)),
        expr_to_program("longform", gt(call("avg_word_length", arg("row")), 46)),
    ]
    report = consolidate_all(filters, dataset.functions, config=cfg)
    print(
        f"consolidated {report.num_inputs} filters in {report.duration * 1000:.0f} ms "
        f"({report.pair_consolidations} merges)"
    )

    # Route every article selected by at least one team into the counter.
    # The consolidated UDF broadcasts each team's verdict per article; here
    # we tap the union through a small adapter stage.
    selected: set[int] = set()
    run1 = (
        from_collection(dataset.rows, config=cfg)
        .where_consolidated(report.program, [p.pid for p in filters], dataset.functions)
        .run()
    )
    for pid in ("finance", "energy", "longform"):
        rows = run1.buckets.get(pid, [])
        print(f"  {pid}: {len(rows)} articles")
        selected.update(rows)

    # WordCount over the union of selections: flat_map into words, count.
    run2 = (
        from_collection(sorted(selected), config=cfg)
        .flat_map(lambda article: words[article])
        .count_by_key("counts")
        .run()
    )
    totals = CountByKey.combine(run2.buckets["counts"])
    top = sorted(totals.items(), key=lambda kv: -kv[1])[:8]
    print(f"\n{len(selected)} articles selected; top words (by interned id):")
    for word, count in top:
        print(f"  word#{word:<5} x{count}")
    print(f"\nword-count stage cost: {run2.metrics.udf_cost} units over {run2.metrics.records} articles")

    # The telemetry registry aggregated both dataflow runs and the
    # consolidation's SMT work; the same data lands in --metrics-out files.
    reg = cfg.telemetry.metrics
    print(
        f"telemetry: {reg.counter('dataflow_runs_total').value:.0f} runs, "
        f"{reg.counter('dataflow_records_total').value:.0f} records, "
        f"{reg.counter('smt_checks').value:.0f} SMT checks"
    )


if __name__ == "__main__":
    main()
