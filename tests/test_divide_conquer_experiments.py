"""Tests for the n-UDF driver and the experiment harnesses."""

import ast
from collections import Counter
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

from repro.config import ExecutionConfig
from repro.consolidation import ConsolidationOptions, check_soundness, consolidate_all
from repro.datasets import generate_news, generate_stocks, generate_weather
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
from repro.profiling import CalibratedCostModel
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

    @pytest.mark.parametrize(
        "planner, order", [("related", "clustered"), ("related", "fold"), ("calibrated", "tree")]
    )
    def test_pairs_merge_in_plan_order_on_one_solver(self, monkeypatch, planner, order):
        # One path: every pair merge runs in-process, in the order the
        # report lists it, and asks one solver whose entailment cache the
        # whole batch shares.
        from repro.consolidation import divide_conquer

        calls = []
        real = divide_conquer.merge_pair

        def spy(a, b, functions, cost_model, options, solver, **kwargs):
            calls.append((a.pid, b.pid, solver))
            return real(a, b, functions, cost_model, options, solver, **kwargs)

        monkeypatch.setattr(divide_conquer, "merge_pair", spy)
        programs = [filt(f"q{i}", 5 * i + 3) for i in range(6)]
        calibration = CalibratedCostModel.uniform() if planner == "calibrated" else None
        report = consolidate_all(
            programs, FT, order=order, config=ExecutionConfig(calibration=calibration)
        )
        assert report.pair_consolidations == 5 and not report.degraded
        assert [(left, right) for left, right, _ in calls] == [
            (record.left, record.right) for record in report.pairs
        ]
        assert len({id(solver) for *_, solver in calls}) == 1

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            consolidate_all([], FT)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            consolidate_all([filt("q0", 5)], FT, order="zigzag")


class TestPairAccount:
    """One PairRecord per pair merge; every report name is a view over them."""

    @pytest.fixture(scope="class")
    def weather(self):
        dataset = generate_weather(cities=12)
        return dataset, DOMAIN_QUERIES["weather"].make_batch(dataset, "Mix", n=8, seed=1)

    def test_each_pair_merge_is_validated_and_derived(self, weather):
        dataset, programs = weather
        report = consolidate_all(
            programs,
            dataset.functions,
            options=ConsolidationOptions(static_validate=True),
            config=ExecutionConfig(provenance=True),
        )
        assert not report.degraded, (report.skipped_pairs, report.degradations)
        assert (
            report.pair_consolidations, len(report.validations), len(report.derivations)
        ) == (7, 7, 7)
        assert report.simplify_stats["entail_queries"] > 0

    def test_every_view_lines_up_with_the_records(self, weather):
        from repro.testing import consolidation_pair_crash

        dataset, programs = weather
        with consolidation_pair_crash(after=2):
            report = consolidate_all(
                programs,
                dataset.functions,
                options=ConsolidationOptions(static_validate=True),
                config=ExecutionConfig(
                    provenance=True, calibration=CalibratedCostModel.uniform()
                ),
            )
        pairs = report.pairs
        assert report.pair_consolidations == len(pairs) == 7
        assert report.validations == [r.validation for r in pairs if r.validation]
        assert report.derivations == [r.derivation for r in pairs if r.derivation]
        assert report.planner_decisions == [r.planner for r in pairs]
        skipped = [r for r in pairs if r.skip_reason is not None]
        assert skipped and any(r.merged for r in pairs)
        assert report.skipped_pairs == [
            {"left": r.left, "right": r.right, "reason": r.skip_reason} for r in skipped
        ]
        for r in pairs:
            assert (r.planner["left"], r.planner["right"]) == (r.left, r.right)
            assert r.merged == r.planner["merged"]
            assert r.program.pid == f"{r.left}&{r.right}"
            if r.merged:
                tree = r.derivation
                assert (tree.left, tree.right, tree.merged) == (r.left, r.right, r.program.pid)
                assert Counter(r.rules) == Counter(tree.rule_counts())
                assert r.validation.merged_pid == r.program.pid
            else:
                assert r.derivation is r.validation is None and r.rules == ()
        totals = Counter()
        for r in pairs:
            totals.update(vars(r.stats))
        assert {k: report.simplify_stats[k] for k in totals} == dict(totals)

    @pytest.mark.parametrize("module", ["algorithm", "simplifier"])
    def test_the_calculus_leaves_rendering_to_the_recorder(self, module):
        import repro.consolidation

        source = Path(repro.consolidation.__file__).with_name(f"{module}.py").read_text()
        imported = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ImportFrom)]
        assert imported
        for node in imported:
            assert "render" not in (node.module or ""), ast.unparse(node)
            assert not {a.name for a in node.names} & {"format_expr", "format_formula", "clamp"}


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
        # The figure's shape: every bar is a speedup, and IO dilutes the totals.
        assert agg["udf_min"] >= 1.0 and agg["total_min"] >= 1.0
        assert agg["total_avg"] <= agg["udf_avg"]
        text = render_figure9(report)
        assert "stock" in text and "paper" in text

    def test_figure10_small(self):
        report = run_figure10(sweep=(2, 4), articles=40, seed=2)
        assert [p.n_udfs for p in report.points] == [2, 4]
        growth = report.growth_ratios()
        # The gap between the operators widens with n, in UDF cost and in total.
        assert growth["many_udf_growth"] > growth["cons_udf_growth"]
        assert growth["many_total_growth"] > growth["cons_total_growth"]
        text = render_figure10(report)
        assert "whereMany_total" in text

    def test_format_table(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert len(lines) == 4
