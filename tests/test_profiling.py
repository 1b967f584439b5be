"""The profiling → calibration → planner pipeline (repro.profiling).

Covers the trace store's schema discipline, golden weight recovery and
byte-identical determinism of the fitter, the NULL-twin zero-cost
promise, sampling through both backend hooks, the cost-driven planner's
features and decisions (including the loop-shape axis and the SMT
budget), and semantics parity between planners end to end.
"""

import json
import random

import pytest

from repro.config import PLANNERS, ExecutionConfig
from repro.consolidation import consolidate_all
from repro.datasets import generate_weather
from repro.lang.builder import (
    add,
    arg,
    assign,
    block,
    call,
    gt,
    ite_notify,
    le,
    lt,
    program,
    var,
    while_,
)
from repro.lang.compile import make_runner
from repro.lang.cost import DEFAULT_COST_MODEL, cost_model_from_weights
from repro.naiad.linq import from_collection, run_where_consolidated, run_where_many
from repro.profiling import (
    NULL_PROFILER,
    OP_KINDS,
    RECORD_KIND,
    TRACE_SCHEMA_VERSION,
    CalibratedCostModel,
    Profiler,
    TraceSample,
    TraceStore,
    fit_calibration,
    pair_savings,
    plan_level,
    program_units,
    read_trace,
    trace_fingerprint,
)
from repro.queries import DOMAIN_QUERIES


@pytest.fixture(scope="module")
def weather():
    return generate_weather(cities=30)


def _loop_program(pid, accessor, threshold):
    """A Q3/Q4-shaped yearly loop (the fusion-candidate shape)."""

    return program(
        pid,
        ("row",),
        assign("s", 0),
        assign("m", 1),
        while_(
            le(var("m"), 12),
            block(
                assign("s", add(var("s"), call(accessor, arg("row"), var("m")))),
                assign("m", add(var("m"), 1)),
            ),
        ),
        ite_notify(pid, gt(var("s"), 12 * threshold)),
    )


def _cmp_program(pid, accessor, month, threshold):
    return program(
        pid,
        ("row",),
        ite_notify(pid, gt(call(accessor, arg("row"), month), threshold)),
    )


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


class TestFeatures:
    def test_program_units_counts_call_cost_and_record(self, weather):
        p = _cmp_program("q", "monthly_avg_temp", 6, 50)
        units = program_units(p, weather.functions)
        assert units[RECORD_KIND] == 1.0
        assert units["call"] == float(weather.functions["monthly_avg_temp"].cost)
        assert units["cmp"] == 1.0
        assert units["branch"] == 1.0

    def test_loop_unrolls_deterministically(self, weather):
        from repro.profiling.features import LOOP_UNROLL

        p = _loop_program("q", "monthly_avg_temp", 40)
        units = program_units(p, weather.functions)
        # One call per iteration, LOOP_UNROLL iterations.
        assert units["call"] == float(
            LOOP_UNROLL * weather.functions["monthly_avg_temp"].cost
        )
        # Loop test: 1 + LOOP_UNROLL evaluations, plus the notify's cmp.
        assert units["cmp"] == float(1 + LOOP_UNROLL) + 1.0


# ---------------------------------------------------------------------------
# trace store
# ---------------------------------------------------------------------------


class TestTraceStore:
    def _sample(self, pid="q0", seconds=0.5, ts=1.0):
        return TraceSample(
            pid=pid,
            backend="compiled",
            domain="weather",
            units={"cmp": 2.0, "call": 40.0, RECORD_KIND: 1.0},
            cost_units=42,
            seconds=seconds,
            ts=ts,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceStore(path) as store:
            store.append(self._sample("q0"))
            store.append(self._sample("q1", seconds=0.25, ts=2.0))
        samples, skipped = read_trace(path)
        assert skipped == 0
        assert [s.pid for s in samples] == ["q0", "q1"]
        assert samples[0].units == {"cmp": 2.0, "call": 40.0, RECORD_KIND: 1.0}
        assert samples[1].seconds == 0.25

    def test_incompatible_lines_are_skipped_not_misfit(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps(self._sample().to_dict())
        future = json.dumps(
            dict(self._sample().to_dict(), schema=TRACE_SCHEMA_VERSION + 1)
        )
        path.write_text(f"{good}\nnot json at all\n{future}\n[1,2,3]\n")
        samples, skipped = read_trace(path)
        assert len(samples) == 1
        assert skipped == 3

    def test_missing_file_is_empty(self, tmp_path):
        samples, skipped = read_trace(tmp_path / "nope.jsonl")
        assert samples == [] and skipped == 0

    def test_fingerprint_is_content_addressed(self):
        a = [self._sample("q0"), self._sample("q1")]
        b = [self._sample("q0"), self._sample("q1")]
        assert trace_fingerprint(a) == trace_fingerprint(b)
        assert trace_fingerprint(a) != trace_fingerprint(list(reversed(a)))


# ---------------------------------------------------------------------------
# calibration fitter
# ---------------------------------------------------------------------------


PLANTED = {"cmp": 2e-7, "call": 1e-8, "arith": 1e-7, RECORD_KIND: 5e-7}


def _synthetic_trace(n=200, seed=42):
    rng = random.Random(seed)
    samples = []
    for i in range(n):
        units = {
            "cmp": float(rng.randint(0, 20)),
            "call": float(rng.randint(0, 400)),
            "arith": float(rng.randint(0, 30)),
            RECORD_KIND: float(rng.randint(1, 64)),
        }
        seconds = sum(PLANTED[k] * v for k, v in units.items())
        samples.append(
            TraceSample(
                pid=f"q{i % 7}",
                backend=("compiled", "interp", "vectorized")[i % 3],
                domain="synthetic",
                units=units,
                cost_units=int(units["call"]),
                seconds=seconds,
                records=int(units[RECORD_KIND]),
                ts=float(i),
            )
        )
    return samples


class TestCalibration:
    def test_golden_weight_recovery(self):
        model = fit_calibration(_synthetic_trace())
        for kind, want in PLANTED.items():
            got = model.weights[kind]
            assert got == pytest.approx(want, rel=0.05), (kind, got, want)
        assert model.r2 > 0.99
        assert model.residual_abs_mean < 1e-7
        assert model.samples == 200
        assert model.backends == {"compiled": 67, "interp": 67, "vectorized": 66}
        assert model.fitted_at == 199.0  # newest sample ts, not wall clock
        assert model.source == "fit"
        # Unsupported kinds clamp to zero with zero support.
        assert model.weights["logic"] == 0.0
        assert model.support["logic"] == 0

    def test_same_trace_fits_byte_identical(self):
        a = fit_calibration(_synthetic_trace()).to_json()
        b = fit_calibration(_synthetic_trace()).to_json()
        assert a == b

    def test_model_json_round_trip(self, tmp_path):
        model = fit_calibration(_synthetic_trace())
        path = tmp_path / "model.json"
        model.save(path)
        loaded = CalibratedCostModel.load(path)
        assert loaded.to_json() == model.to_json()
        assert loaded.weights == dict(model.weights)

    def test_empty_trace_is_rejected(self):
        with pytest.raises(ValueError):
            fit_calibration([])

    def test_confidence_tiers(self):
        model = fit_calibration(_synthetic_trace())
        assert model.confidence("cmp") == "high"
        assert model.confidence("logic") == "low"  # no support at all

    def test_uniform_fallback(self):
        model = CalibratedCostModel.uniform(DEFAULT_COST_MODEL)
        assert model.source == "uniform"
        assert model.staleness_seconds() == 0.0
        p = _cmp_program("q", "f", 1, 5)
        assert model.predict_program_seconds(p) > 0.0

    def test_cost_model_seam(self):
        # Planted weights normalized to the reference kind give back an
        # integer Figure-2 model through the repro.lang.cost seam.
        cm = cost_model_from_weights({"var": 1e-8, "cmp": 2e-8, "arith": 1e-8})
        assert cm.cmp == 2 * cm.var
        model = fit_calibration(_synthetic_trace())
        assert model.to_cost_model() is not None


# ---------------------------------------------------------------------------
# profiler hooks + NULL twin
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_wrap_runner_samples_at_the_stride(self, tmp_path, weather):
        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        store = TraceStore(tmp_path / "t.jsonl")
        profiler = Profiler(store, domain="weather", sample_every=2)
        runner = make_runner(
            p, weather.functions, backend="compiled", profiler=profiler
        )
        row = weather.rows[0]
        for _ in range(6):
            runner({"row": row})
        store.close()
        samples, _ = read_trace(store.path)
        assert len(samples) == 3  # every 2nd of 6
        assert {s.backend for s in samples} <= {"compiled", "interp"}
        assert all(s.domain == "weather" for s in samples)
        assert all(s.units[RECORD_KIND] == 1.0 for s in samples)
        assert all(s.cost_units > 0 for s in samples)

    def test_record_batch_scales_units_by_records(self, tmp_path, weather):
        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        store = TraceStore(tmp_path / "t.jsonl")
        profiler = Profiler(store, domain="weather", sample_every=1)
        profiler.record_batch(p, weather.functions, "compiled", 0.5, 999, records=25)
        store.close()
        (sample,), _ = read_trace(store.path)
        per_record = program_units(p, weather.functions)
        assert sample.backend == "compiled"  # the tag is the caller's, not a constant
        assert sample.records == 25
        assert sample.units[RECORD_KIND] == 25.0
        assert sample.units["call"] == per_record["call"] * 25

    @pytest.mark.parametrize("backend", ["interp", "compiled", "vectorized"])
    def test_a_run_is_tagged_with_the_backend_it_was_configured_with(
        self, tmp_path, weather, backend
    ):
        """One ladder, one tag per run: a kernel-served partition is one
        batch sample under the run's backend, the interpreter rung samples
        record by record."""

        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        store = TraceStore(tmp_path / "t.jsonl")
        profiler = Profiler(store, domain="weather", sample_every=1)
        config = ExecutionConfig(backend=backend, workers=1, profiler=profiler)
        run_where_many(weather.rows, [p], weather.functions, config=config)
        store.close()
        samples, _ = read_trace(store.path)
        assert {s.backend for s in samples} == {backend}
        per_sample = 1 if backend == "interp" else len(weather.rows)
        assert [s.records for s in samples] == [per_sample] * (len(weather.rows) // per_sample)

    def test_a_degraded_batch_is_tagged_with_the_rung_that_served_it(self, tmp_path, weather):
        from repro.lang import parse_program

        unbounded = parse_program(
            "program ub(row) { s := 0; while (s < yearly_rainfall(@row)) { s := s + 7; }"
            " notify ub (s > 20); }"
        )
        store = TraceStore(tmp_path / "t.jsonl")
        profiler = Profiler(store, domain="weather", sample_every=1)
        config = ExecutionConfig(backend="vectorized", workers=1, profiler=profiler)
        run_where_many(weather.rows, [unbounded], weather.functions, config=config)
        store.close()
        samples, _ = read_trace(store.path)
        assert [(s.backend, s.records) for s in samples] == [("compiled", 1)] * len(weather.rows)

    def test_null_twin_is_inert_and_identity(self, weather):
        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        runner = object()
        assert NULL_PROFILER.wrap_runner(runner, p, None, "interp") is runner
        assert NULL_PROFILER.enabled is False
        NULL_PROFILER.record_batch(p, None, "compiled", 1.0, 1, 1)  # must not raise
        assert NULL_PROFILER.samples_taken == 0
        # make_runner with no profiler hands back the raw runner: a second
        # make_runner with the NULL twin must behave identically.
        bare = make_runner(p, weather.functions, backend="compiled")
        nulled = make_runner(
            p, weather.functions, backend="compiled", profiler=NULL_PROFILER
        )
        row = weather.rows[0]
        assert bare({"row": row}).cost == nulled({"row": row}).cost

    def test_sample_every_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Profiler(TraceStore(tmp_path / "t.jsonl"), sample_every=0)


# ---------------------------------------------------------------------------
# the cost-driven planner
# ---------------------------------------------------------------------------


class TestPlanner:
    def test_loop_shape_predicts_fusion_savings(self, weather):
        # Q3/Q4-shaped loops over *different* accessors share no call or
        # cmp feature, but their `while (m <= 12)` shapes match — SMT
        # loop fusion dedups the loop control, so the planner must see
        # positive savings (the regression that motivated the axis).
        a = _loop_program("qa", "monthly_avg_temp", 40)
        b = _loop_program("qb", "monthly_rainfall", 80)
        model = CalibratedCostModel.uniform(DEFAULT_COST_MODEL)
        plan = plan_level([a, b], weather.functions, model)
        (decision,) = plan.decisions
        assert decision.merge is True
        assert decision.predicted_savings > 0.0

    def test_disjoint_pair_is_skipped(self, weather):
        a = _cmp_program("qa", "monthly_avg_temp", 6, 50)
        b = _cmp_program("qb", "monthly_rainfall", 2, 80)
        model = CalibratedCostModel.uniform(DEFAULT_COST_MODEL)
        plan = plan_level([a, b], weather.functions, model)
        (decision,) = plan.decisions
        assert decision.merge is False
        assert decision.predicted_savings == 0.0

    def test_highest_savings_pairs_match_first(self, weather):
        loop_a = _loop_program("qa", "monthly_avg_temp", 40)
        loop_b = _loop_program("qb", "monthly_avg_temp", 60)
        cmp_c = _cmp_program("qc", "monthly_avg_temp", 6, 50)
        cmp_d = _cmp_program("qd", "monthly_avg_temp", 6, 80)
        model = CalibratedCostModel.uniform(DEFAULT_COST_MODEL)
        plan = plan_level(
            [cmp_c, loop_a, cmp_d, loop_b], weather.functions, model
        )
        merged = [(d.left, d.right) for d in plan.decisions if d.merge]
        # The two loops (indices 1, 3) share far more predicted seconds
        # than the two comparisons, so they pair first.
        assert merged[0] == (1, 3)
        assert (0, 2) in merged
        assert plan.carried == ()

    def test_plan_is_deterministic(self, weather):
        programs = DOMAIN_QUERIES["weather"].make_batch(
            weather, "Mix", n=9, seed=5
        )
        model = CalibratedCostModel.uniform(DEFAULT_COST_MODEL)
        a = plan_level(programs, weather.functions, model)
        b = plan_level(programs, weather.functions, model)
        assert a == b
        assert len(a.carried) == 1  # odd program carried, never dropped

    def test_pair_savings_is_symmetric(self):
        a = {("call", "f"): 3.0, ("cmp", "x"): 1.0}
        b = {("call", "f"): 2.0, ("loop", "s"): 5.0}
        assert pair_savings(a, b) == pair_savings(b, a) == 2.0


# ---------------------------------------------------------------------------
# planner end to end: semantics parity, budget, provenance, config
# ---------------------------------------------------------------------------


class TestPlannerEndToEnd:
    def test_calibrated_planner_preserves_buckets(self, weather):
        programs = DOMAIN_QUERIES["weather"].make_batch(
            weather, "Mix", n=10, seed=2
        )
        rows = list(weather.rows[:80])
        config = ExecutionConfig(planner="calibrated")
        many = run_where_many(rows, programs, weather.functions, config=config)
        planned, report = run_where_consolidated(
            rows, programs, weather.functions, config=config
        )
        assert planned.buckets == many.buckets
        assert planned.metrics.udf_cost <= many.metrics.udf_cost
        assert report.planner == "calibrated"
        assert report.planner_decisions, "planner recorded no decisions"
        for decision in report.planner_decisions:
            assert set(decision) >= {
                "left",
                "right",
                "merged",
                "predicted_savings_seconds",
                "observed_savings_seconds",
                "mispredicted",
                "used_smt",
            }

    def test_skipping_pairs_costs_the_merged_plan_nothing(self, weather):
        """The planner's pitch in cost units: on the batch it was validated on
        it declines pairs, and the merged plan runs no dearer than ``related``'s."""

        programs = DOMAIN_QUERIES["weather"].make_batch(weather, "Mix", n=24, seed=3)
        pids = [p.pid for p in programs]
        rows = list(weather.rows[:50])
        many = run_where_many(rows, programs, weather.functions)
        costs, reports = {}, {}
        for planner in ("related", "calibrated"):
            reports[planner] = consolidate_all(
                programs, weather.functions, config=ExecutionConfig(planner=planner)
            )
            result = (
                from_collection(rows)
                .where_consolidated(reports[planner].program, pids, weather.functions)
                .run()
            )
            assert result.buckets == many.buckets, planner
            costs[planner] = result.metrics.udf_cost
        assert any(not d["merged"] for d in reports["calibrated"].planner_decisions)
        assert costs["calibrated"] <= costs["related"]

    def test_related_planner_records_no_decisions(self, weather):
        programs = DOMAIN_QUERIES["weather"].make_batch(
            weather, "Mix", n=4, seed=2
        )
        report = consolidate_all(programs, weather.functions)
        assert report.planner == "related"
        assert report.planner_decisions == []

    def test_no_smt_options_merge_without_the_solver(self, weather):
        from repro.consolidation import ConsolidationOptions

        programs = DOMAIN_QUERIES["weather"].make_batch(
            weather, "Mix", n=8, seed=2
        )
        report = consolidate_all(
            programs,
            weather.functions,
            options=ConsolidationOptions(use_smt=False),
            config=ExecutionConfig(planner="calibrated"),
        )
        merges = [d for d in report.planner_decisions if d["merged"]]
        assert merges
        assert all(not d["used_smt"] for d in merges)
        assert report.solver_stats["checks"] == 0
        # A syntactic-only merge is still a sound merge.
        rows = list(weather.rows[:40])
        many = run_where_many(rows, programs, weather.functions)
        cfg = ExecutionConfig()
        result = (
            from_collection(rows, config=cfg)
            .where_consolidated(
                report.program, [p.pid for p in programs], weather.functions
            )
            .run(cfg)
        )
        assert result.buckets == many.buckets

    def test_planner_decisions_land_in_provenance(self, weather):
        programs = DOMAIN_QUERIES["weather"].make_batch(
            weather, "Mix", n=8, seed=2
        )
        report = consolidate_all(
            programs,
            weather.functions,
            config=ExecutionConfig(planner="calibrated", provenance=True),
        )
        heuristics = [
            h
            for tree in report.derivations
            for h in tree.root.heuristics
            if h.kind == "planner"
        ]
        assert heuristics, "no planner heuristic recorded on any derivation"
        assert all("predicted=" in h.detail for h in heuristics)

    def test_failed_merge_is_skipped_not_mispredicted(self, weather):
        """A planned merge that raised observed nothing, so it mispredicted
        nothing: its decision is a skip that carries the reason."""

        from repro.consolidation import divide_conquer
        from repro.telemetry import Telemetry
        from repro.testing.faults import fault_hook

        def crash(site, payload):
            if site == "consolidate.pair":
                raise RuntimeError("injected pair-merge crash")

        programs = DOMAIN_QUERIES["weather"].make_batch(weather, "Q1", n=2, seed=2)
        telemetry = Telemetry.capture()
        with fault_hook(divide_conquer, crash):
            report = consolidate_all(
                programs,
                weather.functions,
                config=ExecutionConfig(planner="calibrated", telemetry=telemetry),
            )
        (skip,) = report.skipped_pairs
        (decision,) = report.planner_decisions
        assert decision["predicted_savings_seconds"] > 0  # the planner asked for this merge
        assert decision["merged"] is False
        assert decision["mispredicted"] is False
        assert decision["skip_reason"] == skip["reason"]
        assert (decision["left"], decision["right"]) == (skip["left"], skip["right"])
        counter = telemetry.metrics.counter
        assert counter("planner_mispredictions_total").value == 0
        assert counter("planner_skips_total").value == 1
        assert counter("consolidation_skipped_pairs_total").value == 1

    def test_explain_carries_planner_section(self, weather):
        from repro.provenance import explain_batch, render_text

        report = explain_batch(
            "weather",
            pair=(0, 1),
            family="Mix",
            n=4,
            seed=1,
            rows=10,
            planner="calibrated",
        )
        assert report.planner == "calibrated"
        assert report.planner_decisions
        text = render_text(report)
        assert "planner (calibrated):" in text
        assert "predicted" in text
        assert report.to_dict()["planner"] == "calibrated"

    def test_config_validation(self):
        assert PLANNERS == ("related", "calibrated")
        with pytest.raises(ValueError):
            ExecutionConfig(planner="bogus")

    @pytest.mark.parametrize("order", ["fold", "priority"])
    def test_calibrated_planner_rejects_fold_orders(self, weather, order):
        # The calibrated planner plans tree levels; a fold has none.  The
        # combination used to run the plain fold while the report claimed
        # "calibrated" — now it is refused with the other preconditions.
        programs = DOMAIN_QUERIES["weather"].make_batch(
            weather, "Mix", n=3, seed=1
        )
        with pytest.raises(ValueError, match=rf"planner='calibrated'.*order='{order}'"):
            consolidate_all(
                programs,
                weather.functions,
                order=order,
                config=ExecutionConfig(planner="calibrated"),
            )

    def test_registry_metrics_doc_reports_calibration(self, weather):
        from repro.service.registry import QueryRegistry

        model = CalibratedCostModel.uniform(DEFAULT_COST_MODEL)
        registry = QueryRegistry(
            weather.functions,
            config=ExecutionConfig(planner="calibrated", calibration=model),
        )
        doc = registry.metrics_doc()
        assert doc["planner"] == "calibrated"
        assert doc["calibration_source"] == "uniform"
        assert doc["calibration_staleness_seconds"] == 0.0
        assert doc["planner_merges_total"] == 0
