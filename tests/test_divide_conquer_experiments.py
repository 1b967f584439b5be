"""Tests for the n-UDF driver and the experiment harnesses."""

import pytest

pytestmark = pytest.mark.slow

from repro.config import ExecutionConfig
from repro.consolidation import ConsolidationOptions, check_soundness, consolidate_all
from repro.datasets import generate_news, generate_stocks
from repro.experiments import (
    SoundnessError,
    run_experiment,
    run_figure10,
    run_figure9,
    format_table,
    render_figure10,
    render_figure9,
)
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
from repro.lang.visitors import notified_pids
from repro.queries import DOMAIN_QUERIES

FT = FunctionTable([LibraryFunction("val", lambda r: (r * 13) % 50, cost=15)])


def filt(pid, bound):
    return program(
        pid,
        ("row",),
        assign("x", call("val", arg("row"))),
        ite_notify(pid, lt(var("x"), bound)),
    )


class TestDivideConquer:
    def test_single_program_passthrough(self):
        report = consolidate_all([filt("q0", 10)], FT)
        assert report.pair_consolidations == 0
        assert notified_pids(report.program.body) == {"q0"}

    def test_tree_merges_all(self):
        programs = [filt(f"q{i}", 5 * i + 3) for i in range(7)]
        report = consolidate_all(programs, FT)
        assert notified_pids(report.program.body) == {f"q{i}" for i in range(7)}
        assert report.pair_consolidations == 6
        assert report.tree_depth == 3  # ceil(log2(7))

    def test_tree_result_sound(self):
        programs = [filt(f"q{i}", 5 * i + 3) for i in range(7)]
        report = consolidate_all(programs, FT)
        sound = check_soundness(
            programs, report.program, FT, [{"row": r} for r in range(25)]
        )
        assert sound.ok, sound.violations

    def test_fold_order_sound(self):
        programs = [filt(f"q{i}", 5 * i + 3) for i in range(5)]
        report = consolidate_all(programs, FT, order="fold")
        assert report.tree_depth == 4
        sound = check_soundness(
            programs, report.program, FT, [{"row": r} for r in range(25)]
        )
        assert sound.ok

    def test_parallel_matches_serial(self):
        programs = [filt(f"q{i}", 5 * i + 3) for i in range(6)]
        serial = consolidate_all(programs, FT)
        parallel = consolidate_all(
            programs, FT, config=ExecutionConfig(executor="thread", max_workers=3)
        )
        assert serial.program == parallel.program
        assert serial.pair_consolidations == parallel.pair_consolidations == 5
        assert serial.tree_depth == parallel.tree_depth

    def test_report_records_pool_configuration(self):
        programs = [filt(f"q{i}", 5 * i + 3) for i in range(4)]
        serial = consolidate_all(
            programs, FT, config=ExecutionConfig(executor="serial", max_workers=8)
        )
        assert (serial.executor, serial.max_workers) == ("serial", 1)
        parallel = consolidate_all(
            programs, FT, config=ExecutionConfig(executor="thread", max_workers=2)
        )
        assert (parallel.executor, parallel.max_workers) == ("thread", 2)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            consolidate_all([], FT)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            consolidate_all([filt("q0", 5)], FT, order="zigzag")


class TestHarness:
    @pytest.fixture(scope="class")
    def news(self):
        return generate_news(articles=60)

    def test_experiment_runs_and_reports(self, news):
        batch = DOMAIN_QUERIES["news"].make_batch(news, "Q2", n=5, seed=2)
        result = run_experiment(news, batch, family="Q2")
        assert result.udf_speedup >= 1.0
        assert result.total_speedup >= 1.0
        assert result.rows == 60
        row = result.row()
        assert row["domain"] == "news" and row["family"] == "Q2"

    def test_udf_speedup_at_least_total(self, news):
        """IO dilutes the total speedup relative to the UDF speedup."""

        batch = DOMAIN_QUERIES["news"].make_batch(news, "Q2", n=6, seed=2)
        result = run_experiment(news, batch)
        assert result.udf_speedup >= result.total_speedup

    def test_row_limit(self, news):
        batch = DOMAIN_QUERIES["news"].make_batch(news, "Q2", n=3, seed=2)
        result = run_experiment(news, batch, row_limit=10)
        assert result.rows == 10


class TestFigureHarnesses:
    def test_figure9_small(self):
        report = run_figure9(n_udfs=4, scale=0.003, seed=2, domains=["stock"])
        assert len(report.results) == len(DOMAIN_QUERIES["stock"].FAMILY_NAMES)
        agg = report.aggregates()
        assert agg["udf_min"] >= 1.0
        text = render_figure9(report)
        assert "stock" in text and "paper" in text

    def test_figure10_small(self):
        report = run_figure10(sweep=(2, 4), articles=40, seed=2)
        assert [p.n_udfs for p in report.points] == [2, 4]
        growth = report.growth_ratios()
        assert growth["many_total_growth"] > growth["cons_total_growth"]
        text = render_figure10(report)
        assert "whereMany_total" in text

    def test_format_table(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert len(lines) == 4
