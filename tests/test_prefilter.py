"""Prefilter synthesis: soundness, degradation, operators, CLI, battery."""

import dataclasses

import pytest

from repro.analysis.prefilter import (
    PREFILTER_PID,
    SHAPES,
    classify_shape,
    make_guard,
    prefilter_program,
    synthesize_prefilter,
)
from repro.cli import main
from repro.config import ExecutionConfig
from repro.consolidation import consolidate_all
from repro.datasets import generate_weather
from repro.lang.ast import (
    Arg,
    Assign,
    BinOp,
    BoolConst,
    BoolOp,
    Call,
    Cmp,
    If,
    IntConst,
    Notify,
    Program,
    Var,
    While,
    SKIP,
    seq,
)
from repro.lang.compile import make_runner
from repro.lang.cost import DEFAULT_COST_MODEL
from repro.lang.interp import Interpreter
from repro.lang.printer import expr_to_str
from repro.naiad.linq import run_where_consolidated, run_where_many
from repro.queries import DOMAIN_QUERIES
from repro.telemetry import Telemetry
from repro.testing import faults
from repro.testing.oracles import run_battery


@pytest.fixture(scope="module")
def dataset():
    return generate_weather(cities=30)


@pytest.fixture(scope="module")
def batch(dataset):
    return DOMAIN_QUERIES["weather"].make_batch(dataset, "Mix", n=6, seed=2)


def _temp(month: int):
    return Call("monthly_avg_temp", (Arg("row"), IntConst(month)))


def _guarded_notify(pid: str, threshold: int) -> Program:
    """``if threshold < monthly_avg_temp(row, 1): notify pid true``"""

    body = If(Cmp("<", IntConst(threshold), _temp(1)), Notify(pid, BoolConst(True)), SKIP)
    return Program(pid=pid, params=("row",), body=body)


def _froid(pid: str) -> Program:
    """Cheap temperature test and an expensive loop-carried rainfall sum."""

    body = seq(
        Assign("t", _temp(1)),
        Assign("s", IntConst(0)),
        Assign("i", IntConst(1)),
        While(
            Cmp("<=", Var("i"), IntConst(12)),
            seq(
                Assign("s", BinOp("+", Var("s"), Call("monthly_rainfall", (Arg("row"), Var("i"))))),
                Assign("i", BinOp("+", Var("i"), IntConst(1))),
            ),
        ),
        Notify(
            pid,
            BoolOp("and", Cmp("<", IntConst(60), Var("t")), Cmp("<", IntConst(500), Var("s"))),
        ),
    )
    return Program(pid=pid, params=("row",), body=body)


class TestClassifyShape:
    def test_straight_line(self, dataset):
        program = Program(
            pid="p",
            params=("row",),
            body=seq(Assign("t", _temp(1)), Notify("p", Cmp("<", IntConst(5), Var("t")))),
        )
        assert classify_shape(program, dataset.functions) == "straight-line"

    def test_branch_free(self, dataset):
        assert classify_shape(_guarded_notify("p", 10), dataset.functions) == "branch-free"

    def test_bounded_loop(self, dataset):
        assert classify_shape(_froid("p"), dataset.functions) == "bounded-loop"

    def test_unbounded(self, dataset):
        body = seq(
            Assign("i", IntConst(0)),
            While(Cmp("<", Var("i"), _temp(1)), Assign("i", BinOp("+", Var("i"), IntConst(1)))),
            Notify("p", BoolConst(True)),
        )
        program = Program(pid="p", params=("row",), body=body)
        assert classify_shape(program, dataset.functions) == "unbounded"

    def test_every_tag_is_documented(self, dataset, batch):
        for program in batch:
            assert classify_shape(program, dataset.functions) in SHAPES


class TestSynthesis:
    def test_branch_condition_becomes_phi(self, dataset):
        pre = synthesize_prefilter(_guarded_notify("p", 42), dataset.functions)
        assert pre.certificate == "proved"
        assert expr_to_str(pre.phi) == "42 < monthly_avg_temp(@row, 1)"

    def test_loop_carried_conjunct_is_dropped_not_kept(self, dataset):
        pre = synthesize_prefilter(_froid("p"), dataset.functions)
        assert pre.certificate == "proved"
        # The rainfall sum is loop-carried, so only the cheap temperature
        # conjunct survives the necessary-condition weakening.
        assert expr_to_str(pre.phi) == "60 < monthly_avg_temp(@row, 1)"
        assert pre.dropped_conjuncts >= 1

    def test_loop_payload_weakens_to_true(self, dataset):
        body = seq(
            Assign("s", IntConst(0)),
            Assign("i", IntConst(1)),
            While(
                Cmp("<=", Var("i"), IntConst(12)),
                seq(
                    Assign("s", BinOp("+", Var("s"), Call("monthly_rainfall", (Arg("row"), Var("i"))))),
                    Assign("i", BinOp("+", Var("i"), IntConst(1))),
                ),
            ),
            Notify("p", Cmp("<", IntConst(500), Var("s"))),
        )
        pre = synthesize_prefilter(Program(pid="p", params=("row",), body=body), dataset.functions)
        assert pre.trivial
        assert pre.certificate == "trivial"

    def test_dead_site_rejects_everything(self, dataset):
        program = Program(pid="p", params=("row",), body=Notify("p", BoolConst(False)))
        pre = synthesize_prefilter(program, dataset.functions)
        assert pre.rejects_everything
        assert pre.certificate == "proved"

    def test_smt_unknown_degrades_without_raising(self, dataset):
        with faults.smt_unknown():
            pre = synthesize_prefilter(_guarded_notify("p", 42), dataset.functions)
        assert pre.trivial
        assert pre.certificate == "degraded"
        assert "not proved" in pre.degraded_reason

    def test_unknown_function_fails_open_at_compile_time(self):
        # Synthesis may still prove a phi that mentions the unknown call
        # (it is a sound uninterpreted term); the guard's batch and its
        # per-row rungs then raise at call time — and the operator must
        # swallow that and pass the record through unfiltered.
        from repro.lang.functions import FunctionTable
        from repro.naiad.dataflow import RunMetrics, RunResult, Worker
        from repro.naiad.operators import WhereConsolidated

        program = Program(
            pid="p",
            params=("row",),
            body=Notify("p", Cmp("<", IntConst(1), Call("missing", (Arg("row"),)))),
        )
        functions = FunctionTable()
        pre = synthesize_prefilter(program, functions)  # must not raise
        assert pre.pid == "p"
        vertex = WhereConsolidated(program, ["p"], functions, prefilter=pre)
        unit = vertex.units[0]
        assert unit.guard is not None
        worker = Worker(0, RunResult(RunMetrics(), {}), 0)
        assert vertex._apply_guard(unit, [0, 1], worker) == [0, 1]  # fail open
        assert worker.udf_clock == 0  # charge nothing

    def test_raising_row_passes_while_other_rows_are_filtered(self):
        # One row's φ raises, so the batch falls back to per-row verdicts:
        # that row passes uncharged, the others keep their own verdicts.
        from repro.lang.functions import FunctionTable, LibraryFunction
        from repro.naiad.dataflow import RunMetrics, RunResult, Worker
        from repro.naiad.operators import WhereConsolidated

        def g(x):
            if x < 0:
                raise ValueError("negative row")
            return x

        functions = FunctionTable([LibraryFunction("g", g, cost=7)])
        program = Program(
            pid="p",
            params=("row",),
            body=Notify("p", Cmp("<", IntConst(5), Call("g", (Arg("row"),)))),
        )
        vertex = WhereConsolidated(program, ["p"], functions, prefilter=True)
        unit = vertex.units[0]
        assert unit.guard is not None
        worker = Worker(0, RunResult(RunMetrics(), {}), 0)
        assert vertex._apply_guard(unit, [-1, 1, 10], worker) == [-1, 10]
        run = unit.guard.row_runner()
        assert worker.udf_clock == run({"row": 1}).cost + run({"row": 10}).cost
        assert (vertex._pre_checked, vertex._pre_rejected) == (3, 1)


class TestGuardSoundness:
    def test_rejected_rows_notify_nobody(self, dataset, batch):
        interp = Interpreter(dataset.functions, DEFAULT_COST_MODEL)
        for program in batch:
            pre = synthesize_prefilter(program, dataset.functions)
            if pre.trivial:
                continue
            guard = make_runner(prefilter_program(pre, program), dataset.functions)
            rejected = 0
            for row in dataset.rows:
                args = {program.params[0]: row}
                verdict = guard(args)
                assert verdict.cost > 0
                if verdict.notification(PREFILTER_PID):
                    continue
                rejected += 1
                result = interp.run(program, args)
                assert not any(result.notifications.values()), (
                    f"{program.pid} rejected row {row} but it notifies"
                )
            assert rejected >= 0  # rejection count is workload-dependent

    def test_trivial_prefilter_compiles_to_no_guard(self, dataset):
        pre = synthesize_prefilter(
            Program(pid="p", params=("row",), body=Notify("p", BoolConst(True))),
            dataset.functions,
        )
        assert pre.trivial
        assert make_guard(_guarded_notify("p", 1), dataset.functions, prefilter=pre) is None

    def test_guard_broadcasts_on_reserved_pid_only(self, dataset):
        guard = make_guard(_guarded_notify("p", 42), dataset.functions)
        assert guard is not None
        assert PREFILTER_PID.startswith("__")
        rows = dataset.rows
        result = guard.run_batch({"row": rows}, len(rows))
        assert list(result.present) == [PREFILTER_PID]
        # The batch verdicts are the per-record runner's, cost for cost.
        run = make_runner(guard.program, dataset.functions)
        expected = [run({"row": row}) for row in rows]
        assert result.values[PREFILTER_PID] == [r.notification(PREFILTER_PID) for r in expected]
        assert result.costs == [r.cost for r in expected]


class TestOperators:
    def test_buckets_identical_with_and_without_prefilter(self, dataset, batch):
        rows = dataset.rows
        base = ExecutionConfig()
        pre = ExecutionConfig(prefilter=True)
        many_off = run_where_many(rows, batch, dataset.functions, config=base)
        many_on = run_where_many(rows, batch, dataset.functions, config=pre)
        cons_off, _ = run_where_consolidated(rows, batch, dataset.functions, config=base)
        cons_on, _ = run_where_consolidated(rows, batch, dataset.functions, config=pre)
        assert many_off.buckets == many_on.buckets
        assert cons_off.buckets == cons_on.buckets
        assert many_off.buckets == cons_on.buckets

    def test_prefilter_wins_on_cheap_guard_expensive_body(self, dataset):
        # The guard only pays off when phi is much cheaper than the UDF:
        # every record pays the guard, rejected records skip the loop.
        # (On all-cheap batches like Mix the guard can cost as much as the
        # UDF itself, which is exactly why prefilter defaults to off.)
        froid = [_froid(f"q{i}") for i in range(3)]
        rows = dataset.rows
        off = run_where_many(rows, froid, dataset.functions, config=ExecutionConfig())
        on = run_where_many(
            rows, froid, dataset.functions, config=ExecutionConfig(prefilter=True)
        )
        assert off.buckets == on.buckets
        assert on.metrics.udf_cost < off.metrics.udf_cost
        # Through whereConsolidated the merged program's guard is proved too,
        # and with 11 of 30 rows passing it the batch costs under half as much.
        cons_off, _ = run_where_consolidated(rows, froid, dataset.functions)
        cons_on, report = run_where_consolidated(
            rows, froid, dataset.functions, config=ExecutionConfig(prefilter=True)
        )
        assert report.prefilter.certificate == "proved" and not report.prefilter.trivial
        assert cons_off.buckets == cons_on.buckets == off.buckets
        assert cons_off.metrics.udf_cost >= 2 * cons_on.metrics.udf_cost

    def test_telemetry_counters_and_selectivity_gauge(self, dataset):
        # Q1 queries are branch-free with proved guards, so the merged
        # program's prefilter is guaranteed non-trivial.
        q1 = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=4, seed=2)
        telemetry = Telemetry.capture()
        config = ExecutionConfig(prefilter=True, telemetry=telemetry)
        run_where_consolidated(dataset.rows, q1, dataset.functions, config=config)
        snap = telemetry.snapshot()
        counters = {c["name"]: c["value"] for c in snap["metrics"]["counters"]}
        gauges = {g["name"] for g in snap["metrics"]["gauges"]}
        assert counters.get("prefilter_checked_total", 0) > 0
        assert "prefilter_rejected_total" in counters
        assert "prefilter_selectivity" in gauges
        assert counters.get("prefilter_synthesized_total", 0) >= 1

    @pytest.mark.parametrize("backend", ["compiled", "vectorized"])
    def test_selectivity_gauge_is_the_runs_not_the_last_workers(
        self, dataset, batch, backend
    ):
        telemetry = Telemetry.capture()
        config = ExecutionConfig(
            prefilter=True, telemetry=telemetry, workers=4, backend=backend
        )
        run_where_many(dataset.rows, batch, dataset.functions, config=config)
        checked = telemetry.metrics.counter("prefilter_checked_total").value
        rejected = telemetry.metrics.counter("prefilter_rejected_total").value
        assert 0 < rejected < checked
        gauge = telemetry.metrics.gauge("prefilter_selectivity").value
        assert gauge == pytest.approx(1.0 - rejected / checked, abs=1e-12)

    @pytest.fixture()
    def syntheses(self, monkeypatch):
        """The pids φ was synthesised for, through every name it is called by."""

        import repro.analysis.prefilter as prefilter_module
        import repro.service.registry as registry_module

        calls = []

        def counting(program, *args, **kwargs):
            calls.append(program.pid)
            return synthesize_prefilter(program, *args, **kwargs)

        monkeypatch.setattr(prefilter_module, "synthesize_prefilter", counting)
        monkeypatch.setattr(registry_module, "synthesize_prefilter", counting)
        return calls

    def test_consolidated_run_synthesises_phi_once(self, dataset, syntheses):
        """``ConsolidationReport.prefilter`` reaches the operator: building
        ``whereConsolidated`` does not synthesise it a second time."""

        froid = [_froid(f"q{i}") for i in range(3)]
        off, _ = run_where_consolidated(dataset.rows, froid, dataset.functions)
        on, report = run_where_consolidated(
            dataset.rows, froid, dataset.functions, config=ExecutionConfig(prefilter=True)
        )
        assert syntheses == [report.program.pid]
        assert not report.prefilter.trivial
        assert on.buckets == off.buckets
        assert on.metrics.udf_cost < off.metrics.udf_cost  # and the guard is installed

    def test_registry_synthesises_phi_once_per_plan(self, dataset, syntheses):
        from repro.service import QueryRegistry

        registry = QueryRegistry(dataset.functions, config=ExecutionConfig(prefilter=True))
        for i in range(3):
            registry.register(_froid(f"q{i}"))
        runs = [registry.run(dataset.rows) for _ in range(3)]
        assert syntheses == [registry.tree.program.pid]
        assert runs[0].buckets == runs[1].buckets == runs[2].buckets
        plain = QueryRegistry(dataset.functions)
        for i in range(3):
            plain.register(_froid(f"q{i}"))
        assert runs[0].buckets == plain.run(dataset.rows).buckets
        assert runs[0].metrics.udf_cost < plain.run(dataset.rows).metrics.udf_cost
        # A new plan gets a new φ, once.
        registry.register(_froid("q3"))
        registry.run(dataset.rows)
        registry.run(dataset.rows)
        assert syntheses == [syntheses[0], registry.tree.program.pid]

    def test_a_prefilter_of_another_program_is_refused(self, dataset):
        from repro.naiad.operators import WhereConsolidated

        pre = synthesize_prefilter(_froid("other"), dataset.functions)
        with pytest.raises(ValueError, match="prefilter of 'other'"):
            WhereConsolidated(_froid("q0"), ["q0"], dataset.functions, prefilter=pre)

    def test_disabled_prefilter_builds_no_guard(self, dataset, batch):
        from repro.naiad.operators import WhereMany

        vertex = WhereMany(batch, dataset.functions)
        assert all(unit.guard is None for unit in vertex.units)


class TestConsolidateAll:
    def test_report_carries_prefilter_and_span(self, dataset, batch):
        telemetry = Telemetry.capture(trace=True)
        config = ExecutionConfig(prefilter=True, provenance=True, telemetry=telemetry)
        report = consolidate_all(batch, dataset.functions, config=config)
        assert report.prefilter is not None
        assert report.prefilter.certificate in ("proved", "trivial")
        assert report.prefilter_seconds > 0
        assert report.derivations[-1].merged == f"φ[{report.program.pid}]"

        def names(spans):
            for span in spans:
                yield span["name"]
                yield from names(span.get("children", ()))

        assert "consolidate.prefilter" in set(names(telemetry.tracer.to_dicts()))

    def test_prefilter_off_by_default(self, dataset, batch):
        report = consolidate_all(batch, dataset.functions)
        assert report.prefilter is None
        assert report.prefilter_seconds == 0.0


class TestConfig:
    def test_default_off_and_replace(self):
        config = ExecutionConfig()
        assert config.prefilter is False
        assert dataclasses.replace(config, prefilter=True).prefilter is True

    def test_linq_threads_prefilter_flag(self):
        from repro.naiad.linq import from_collection

        query = from_collection([], config=ExecutionConfig(prefilter=True))
        assert query._udf_kwargs()["prefilter"] is True
        assert from_collection([])._udf_kwargs()["prefilter"] is False


class TestBattery:
    def test_battery_runs_prefilter_oracle_clean(self, dataset, batch):
        result = run_battery(batch, dataset)
        assert result.ok, [str(d) for d in result.discrepancies]

    def test_battery_clean_under_smt_unknown(self, dataset, batch):
        # Fault-injected solver unknowns must degrade guards to true, never
        # produce an unsound rejection or an exception.
        with faults.smt_unknown():
            result = run_battery(batch, dataset)
        prefilter_issues = [d for d in result.discrepancies if d.oracle == "prefilter"]
        assert not prefilter_issues, [str(d) for d in prefilter_issues]


class TestCli:
    def test_prefilter_command_json(self, capsys):
        import json

        rc = main(["prefilter", "--domain", "weather", "--family", "Q1", "--n", "2", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["domain"] == "weather"
        assert all(row["shape"] in SHAPES for row in doc["rows"])
        assert any(row["certificate"] == "proved" for row in doc["rows"])

    def test_prefilter_command_consolidate_text(self, capsys):
        rc = main(
            ["prefilter", "--domain", "weather", "--family", "Q1", "--n", "2", "--consolidate"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # The merged program's guard rides last; its pid joins the inputs.
        assert "&" in out
        assert "branch-free" in out and "proved" in out

    def test_lint_sarif_with_prefilter_findings(self, capsys):
        import json

        rc = main(
            ["lint", "--domain", "weather", "--family", "Q1", "--n", "2",
             "--format", "sarif", "--prefilter"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        levels = {r["level"] for r in run["results"]}
        assert levels <= {"note", "warning", "error"}
        assert any(r["ruleId"] == "prefilter" for r in run["results"])
