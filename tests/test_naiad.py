"""Tests for the mini dataflow engine and its operators."""

import pytest

from repro.config import ExecutionConfig
from repro.lang import (
    FunctionTable,
    LibraryFunction,
    arg,
    assign,
    call,
    ite_notify,
    lt,
    program,
    var,
)
from repro.naiad import (
    Collect,
    Count,
    Dataflow,
    Select,
    from_collection,
    run_where_consolidated,
    run_where_many,
)

FT = FunctionTable([LibraryFunction("val", lambda r: (r * 13) % 50, cost=15)])


def filt(pid, bound):
    return program(
        pid,
        ("row",),
        assign("x", call("val", arg("row"))),
        ite_notify(pid, lt(var("x"), bound)),
    )


class TestDataflowBasics:
    def test_where_filters(self):
        q = from_collection(range(20)).where(filt("q", 25), FT).collect("out")
        result = q.run(ExecutionConfig(workers=2))
        expected = [r for r in range(20) if (r * 13) % 50 < 25]
        assert sorted(result.buckets["out"]) == sorted(expected)

    def test_select_projects(self):
        q = from_collection(range(5)).select(lambda r: r * 2).collect("out")
        result = q.run(ExecutionConfig(workers=1))
        assert sorted(result.buckets["out"]) == [0, 2, 4, 6, 8]

    def test_count_sink(self):
        q = from_collection(range(10)).count("n")
        result = q.run(ExecutionConfig(workers=3))
        assert sum(result.buckets["n"]) == 10

    def test_io_cost_charged_once_per_record(self):
        q = from_collection(range(10), ExecutionConfig(io_cost_per_record=7)).collect("out")
        result = q.run(ExecutionConfig(workers=2))
        assert result.metrics.io_cost == 70

    def test_udf_cost_accumulates(self):
        q = from_collection(range(10)).where(filt("q", 25), FT).collect("out")
        result = q.run(ExecutionConfig(workers=2))
        # Each record: call(15) + arg(1) + assign(1) + var(1)+const+cmp(1)+branch(2)+notify(1)
        assert result.metrics.udf_cost == 10 * (15 + 1 + 1 + 1 + 1 + 2 + 1)

    def test_deterministic_across_runs(self):
        def build():
            return from_collection(range(30)).where_many([filt("a", 20), filt("b", 40)], FT)

        r1 = build().run(ExecutionConfig(workers=4))
        r2 = build().run(ExecutionConfig(workers=4))
        assert r1.metrics.total_cost == r2.metrics.total_cost
        assert r1.buckets == r2.buckets

    def test_worker_partitioning_covers_all(self):
        q = from_collection(range(17)).collect("out")
        result = q.run(ExecutionConfig(workers=5))
        assert sorted(result.buckets["out"]) == list(range(17))
        assert len(result.metrics.per_worker_total) == 5

    def test_invalid_worker_count(self):
        q = from_collection(range(3)).collect("out")
        with pytest.raises(ValueError):
            q.run(ExecutionConfig(workers=0))

    def test_makespan_is_max_worker(self):
        q = from_collection(range(16)).where(filt("q", 25), FT).collect("out")
        result = q.run(ExecutionConfig(workers=4))
        assert result.metrics.makespan == max(result.metrics.per_worker_total)


class TestOperators:
    def test_where_many_routes_by_pid(self):
        programs = [filt("a", 10), filt("b", 30), filt("c", 50)]
        result = run_where_many(list(range(40)), programs, FT)
        for pid, bound in [("a", 10), ("b", 30), ("c", 50)]:
            expected = [r for r in range(40) if (r * 13) % 50 < bound]
            assert sorted(result.buckets.get(pid, [])) == sorted(expected)

    def test_where_consolidated_equals_where_many(self):
        programs = [filt(f"q{i}", 10 + 7 * i) for i in range(6)]
        rows = list(range(60))
        many = run_where_many(rows, programs, FT)
        cons, report = run_where_consolidated(rows, programs, FT)
        assert many.buckets == cons.buckets
        assert cons.metrics.udf_cost <= many.metrics.udf_cost
        assert report.pair_consolidations == 5

    def test_consolidated_io_matches_many(self):
        programs = [filt(f"q{i}", 10 + 7 * i) for i in range(4)]
        rows = list(range(30))
        many = run_where_many(rows, programs, FT)
        cons, _report = run_where_consolidated(rows, programs, FT)
        assert many.metrics.io_cost == cons.metrics.io_cost

    def test_where_many_requires_programs(self):
        from repro.naiad.operators import WhereMany

        with pytest.raises(ValueError):
            WhereMany([], FT)

    def test_flat_map_expands(self):
        q = from_collection([2, 3]).flat_map(lambda n: range(n)).collect("out")
        result = q.run(ExecutionConfig(workers=1))
        assert sorted(result.buckets["out"]) == [0, 0, 1, 1, 2]

    def test_flat_map_cost_scales_with_output(self):
        q = from_collection([4]).flat_map(lambda n: range(n), base_cost=5, unit_cost=3)
        result = q.run(ExecutionConfig(workers=1))
        assert result.metrics.udf_cost == 5 + 3 * 4

    def test_count_by_key_combines_across_workers(self):
        from repro.naiad import CountByKey

        data = ["a", "b", "a", "c", "a", "b"] * 3
        q = from_collection(data).count_by_key("counts")
        result = q.run(ExecutionConfig(workers=4))
        totals = CountByKey.combine(result.buckets["counts"])
        assert totals == {"a": 9, "b": 6, "c": 3}

    def test_wordcount_pipeline(self):
        from repro.naiad import CountByKey

        docs = [["x", "y"], ["y", "y"], ["z"]]
        q = (
            from_collection(range(len(docs)))
            .flat_map(lambda d: docs[d])
            .count_by_key("wc")
        )
        totals = CountByKey.combine(q.run(ExecutionConfig(workers=2)).buckets["wc"])
        assert totals == {"x": 1, "y": 3, "z": 1}

    def test_multi_param_udf_rejected_as_row_filter(self):
        from repro.lang import notify
        from repro.lang.vectorize import VectorizeError

        bad = program("q", ("a", "b"), notify("q", True))
        with pytest.raises(VectorizeError, match="exactly the row handle"):
            from_collection([1]).where(bad).run()
