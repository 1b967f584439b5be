"""ExecutionConfig API: validation, executors, telemetry.

The contract under test: the ``config=`` object is the one way to set
run-time knobs; telemetry never changes observable outputs; the process
pool produces the same merged program as the serial driver.
"""

import os
import pickle

import pytest

from repro.config import ExecutionConfig, ServiceConfig
from repro.consolidation import consolidate_all
from repro.datasets import generate_weather
from repro.lang import parse_program
from repro.naiad import from_collection, run_where_consolidated, run_where_many
from repro.queries.weather_queries import make_batch
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def weather():
    return generate_weather(cities=25, years=1, seed=3)


@pytest.fixture(scope="module")
def batch(weather):
    return make_batch(weather, "Q1", n=6, seed=3)


def _buckets(result):
    return {pid: sorted(map(repr, rows)) for pid, rows in result.buckets.items()}


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.backend == "compiled"
        assert cfg.executor == "serial"
        assert cfg.telemetry.enabled is False

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(backend="llvm")
        with pytest.raises(ValueError):
            ExecutionConfig(executor="fiber")
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)

    def test_frozen_and_evolve(self):
        cfg = ExecutionConfig()
        with pytest.raises(AttributeError):
            cfg.workers = 8
        assert cfg.evolve(workers=8).workers == 8
        assert cfg.workers == 4

    def test_omitted_functions_mean_an_empty_table(self, weather):
        # The config carries no function table: a call-free batch runs
        # without one, and a batch that calls a UDF cannot.
        from repro import api
        from repro.lang.functions import FunctionTable

        call_free = [
            parse_program("program p(row) { notify p @row < 0; }"),
            parse_program("program q(row) { notify q 2 < @row; }"),
        ]
        rows = [-2, -1, 0, 3, 5]
        explicit = api.run(rows, call_free, FunctionTable())
        assert api.run(rows, call_free).buckets == explicit.buckets
        assert (
            api.consolidate(call_free).program
            == api.consolidate(call_free, FunctionTable()).program
        )
        with pytest.raises(KeyError, match="monthly_avg_temp"):
            api.run(weather.rows[:5], [parse_program(PROGRAM_SRC)], consolidated=False)


class TestServiceConfig:
    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.5])
    def test_rebalance_factor_must_be_finite_and_at_least_one(self, factor):
        # NaN compares false both ways: a ``< 1.0`` check let it through,
        # and the registry's depth bound then never tripped a rebalance.
        with pytest.raises(ValueError, match=r"finite float >= 1\.0"):
            ServiceConfig(rebalance_factor=factor)

    def test_rebalance_factor_bounds_accepted(self):
        assert ServiceConfig(rebalance_factor=1.0).rebalance_factor == 1.0
        assert ServiceConfig(plan_cache_size=0).plan_cache_size == 0


class TestExecutors:
    """The process pool must reproduce the serial driver's output."""

    def test_programs_are_picklable(self, batch):
        assert pickle.loads(pickle.dumps(batch[0])) == batch[0]

    @pytest.mark.parametrize("executor", ["process"])
    def test_pool_matches_serial(self, weather, batch, executor):
        serial = consolidate_all(batch, weather.functions)
        pooled = consolidate_all(
            batch, weather.functions, config=ExecutionConfig(executor=executor)
        )
        assert pooled.executor == executor
        assert pooled.program == serial.program
        assert pooled.pair_consolidations == serial.pair_consolidations
        assert pooled.tree_depth == serial.tree_depth

    def test_executor_recorded_in_report(self, weather, batch):
        report = consolidate_all(
            batch, weather.functions, config=ExecutionConfig(executor="process")
        )
        assert report.executor == "process"
        assert report.max_workers >= 1

    @pytest.mark.parametrize(
        "executor, planner, order, cpus, expected",
        [
            ("process", "related", "clustered", 1, 1),
            ("process", "related", "clustered", 2, 2),
            # Six programs: the widest level has three pairs.
            ("process", "related", "clustered", 64, 3),
            ("process", "related", "clustered", None, 1),
            # One pair per level never starts a pool.
            ("process", "related", "fold", 64, 1),
            # Calibrated levels run in-process.
            ("process", "calibrated", "clustered", 64, 1),
            ("serial", "related", "clustered", 64, 1),
        ],
    )
    def test_pool_size_is_cores_capped_by_pairs(
        self, weather, batch, monkeypatch, executor, planner, order, cpus, expected
    ):
        serial = consolidate_all(
            batch, weather.functions, order=order,
            config=ExecutionConfig(planner=planner),
        )
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = consolidate_all(
            batch, weather.functions, order=order,
            config=ExecutionConfig(executor=executor, planner=planner),
        )
        assert report.max_workers == expected
        assert report.program == serial.program

    def test_unknown_executor_rejected(self):
        # ExecutionConfig owns the check; consolidate_all has no executor
        # keyword of its own to validate.
        with pytest.raises(ValueError, match="executor"):
            ExecutionConfig(executor="gpu")

    def test_end_to_end_process_executor(self, weather, batch):
        cfg = ExecutionConfig(executor="process")
        serial, _ = run_where_consolidated(
            weather.rows[:60], batch, weather.functions
        )
        pooled, report = run_where_consolidated(
            weather.rows[:60], batch, weather.functions, config=cfg
        )
        assert report.executor == "process"
        assert _buckets(serial) == _buckets(pooled)


class TestCostModelReachesTheConsolidator:
    """``config.cost_model`` prices the consolidation, not only the run.

    ``run_where_consolidated`` used to pass ``config=cfg`` but not
    ``cfg.cost_model``, so the batch was merged — and its cost-never-worse
    certificate proved — under ``DEFAULT_COST_MODEL`` while the run was
    charged under ``cfg.cost_model``.
    """

    def test_consolidator_validation_and_run_share_the_config_cost_model(
        self, weather, batch, monkeypatch
    ):
        from repro.analysis.static import validate_consolidation
        from repro.consolidation import ConsolidationOptions, divide_conquer
        from repro.lang.cost import DEFAULT_COST_MODEL, CostModel

        cm = CostModel(branch=DEFAULT_COST_MODEL.branch + 5)
        cfg = ExecutionConfig(cost_model=cm)
        seen = []

        class Spy(divide_conquer.Consolidator):
            def __init__(self, functions, cost_model, *args, **kwargs):
                seen.append(cost_model)
                super().__init__(functions, cost_model, *args, **kwargs)

        monkeypatch.setattr(divide_conquer, "Consolidator", Spy)
        pair, rows = batch[:2], weather.rows[:60]
        result, report = run_where_consolidated(
            rows,
            pair,
            weather.functions,
            options=ConsolidationOptions(static_validate=True),
            config=cfg,
        )
        assert seen and all(model is cm for model in seen)

        (validation,) = report.validations
        under_cm = validate_consolidation(pair, report.program, weather.functions, cm)
        under_default = validate_consolidation(pair, report.program, weather.functions)
        assert under_cm.originals_cost_upper != under_default.originals_cost_upper
        assert validation.originals_cost_upper == under_cm.originals_cost_upper
        assert validation.merged_cost_upper == under_cm.merged_cost_upper

        many = run_where_many(rows, pair, weather.functions, config=cfg)
        assert result.metrics.udf_cost <= many.metrics.udf_cost
        assert _buckets(result) == _buckets(many)


class TestExecutorBackendMatrix:
    """Every executor x backend combination reproduces the serial/compiled run.

    The vectorized backend buffers records per worker and replays them as
    column batches at flush time, so worker-level accounting (not just the
    merged buckets) must survive the backend swap under every executor.
    """

    @pytest.fixture(scope="class")
    def reference(self, weather, batch):
        return run_where_consolidated(weather.rows[:40], batch, weather.functions)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("backend", ["interp", "compiled", "vectorized"])
    def test_consolidated_parity(self, weather, batch, reference, executor, backend):
        baseline, _ = reference
        cfg = ExecutionConfig(executor=executor, backend=backend)
        result, report = run_where_consolidated(
            weather.rows[:40], batch, weather.functions, config=cfg
        )
        assert report.executor == executor
        assert _buckets(result) == _buckets(baseline)
        assert result.metrics.udf_cost == baseline.metrics.udf_cost
        assert result.metrics.per_worker_total == baseline.metrics.per_worker_total

    @pytest.mark.parametrize("backend", ["interp", "compiled", "vectorized"])
    def test_where_many_parity(self, weather, batch, backend):
        baseline = run_where_many(weather.rows[:40], batch, weather.functions)
        result = run_where_many(
            weather.rows[:40],
            batch,
            weather.functions,
            config=ExecutionConfig(backend=backend, workers=3),
        )
        assert _buckets(result) == _buckets(baseline)
        assert result.metrics.udf_cost == baseline.metrics.udf_cost


class TestTelemetryDifferential:
    """Telemetry on vs off: identical outputs, metrics only on the side."""

    def test_run_where_many_outputs_identical(self, weather, batch):
        plain = run_where_many(weather.rows, batch, weather.functions)
        live = ExecutionConfig(telemetry=Telemetry.capture(trace=True))
        traced = run_where_many(weather.rows, batch, weather.functions, config=live)
        assert _buckets(plain) == _buckets(traced)
        assert plain.metrics.udf_cost == traced.metrics.udf_cost
        assert plain.metrics.total_cost == traced.metrics.total_cost
        assert plain.metrics.per_worker_total == traced.metrics.per_worker_total

    def test_consolidated_outputs_identical(self, weather, batch):
        plain, plain_rep = run_where_consolidated(
            weather.rows, batch, weather.functions
        )
        live = ExecutionConfig(telemetry=Telemetry.capture())
        traced, traced_rep = run_where_consolidated(
            weather.rows, batch, weather.functions, config=live
        )
        assert _buckets(plain) == _buckets(traced)
        assert traced_rep.program == plain_rep.program

    SHAPES = ("chain", "where_many", "where_consolidated")

    @pytest.fixture(scope="class")
    def merged(self, weather, batch):
        return consolidate_all(batch, weather.functions).program

    @staticmethod
    def _run(shape, weather, batch, merged, config):
        query = from_collection(weather.rows, config=config)
        table = weather.functions
        if shape == "chain":
            query = query.where(batch[0], table).where(batch[1], table).collect("out")
        elif shape == "where_many":
            query = query.where_many(batch, table)
        else:
            query = query.where_consolidated(merged, [p.pid for p in batch], table)
        return query.run()

    @staticmethod
    def _counts(result):
        return {
            name: (op.records_in, op.records_out, op.udf_cost, op.notifications)
            for name, op in result.metrics.per_operator.items()
        }

    @pytest.mark.parametrize("spans", [False, True], ids=["metrics", "spans"])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("backend", ["interp", "compiled", "vectorized"])
    def test_traced_run_is_the_untraced_run(
        self, weather, batch, merged, backend, workers, shape, spans
    ):
        config = ExecutionConfig(backend=backend, workers=workers)
        plain = self._run(shape, weather, batch, merged, config)
        live = config.evolve(telemetry=Telemetry.capture(trace=spans))
        traced = self._run(shape, weather, batch, merged, live)
        names = [span["name"] for span in live.telemetry.tracer.to_dicts()]
        assert names == (["dataflow.run"] if spans else [])

        assert plain.buckets == traced.buckets  # same rows in the same order
        assert plain.metrics.udf_cost == traced.metrics.udf_cost
        assert plain.metrics.total_cost == traced.metrics.total_cost
        assert plain.metrics.per_worker_total == traced.metrics.per_worker_total
        assert plain.metrics.per_operator == {}

        # Per-operator counts are exact: they add up to the run's totals and
        # are the ones the row-at-a-time reference interpreter produces.
        ops = traced.metrics.per_operator
        assert sum(op.udf_cost for op in ops.values()) == traced.metrics.udf_cost
        assert sum(op.notifications for op in ops.values()) == sum(
            len(rows) for rows in traced.buckets.values()
        )
        assert ops["input"].records_in == ops["input"].records_out == len(weather.rows)
        reference = live.evolve(backend="interp", telemetry=Telemetry.capture())
        assert self._counts(traced) == self._counts(
            self._run(shape, weather, batch, merged, reference)
        )

    def test_traced_vectorized_run_takes_the_batch_route(
        self, weather, batch, monkeypatch
    ):
        from repro.naiad.operators import WhereMany

        ingested = []
        original = WhereMany.ingest_batch

        def spy(self, records, worker):
            ingested.append(len(records))
            original(self, records, worker)

        monkeypatch.setattr(WhereMany, "ingest_batch", spy)
        config = ExecutionConfig(
            backend="vectorized", workers=3, telemetry=Telemetry.capture()
        )
        result = run_where_many(weather.rows, batch, weather.functions, config=config)
        assert len(ingested) == 3 and sum(ingested) == len(weather.rows)
        assert result.metrics.per_operator[f"whereMany[{len(batch)}]"].records_in == len(
            weather.rows
        )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_operator_seconds_cover_flush_time_kernels(
        self, weather, batch, merged, shape, monkeypatch
    ):
        """Vectorized UDFs execute in ``on_flush``; that time is the operator's."""

        from time import perf_counter

        from repro.lang.vectorize import VectorizedProgram

        kernel_seconds = 0.0
        original = VectorizedProgram.run_batch

        def timed(self, columns, n):
            nonlocal kernel_seconds
            started = perf_counter()
            try:
                return original(self, columns, n)
            finally:
                kernel_seconds += perf_counter() - started

        monkeypatch.setattr(VectorizedProgram, "run_batch", timed)
        telemetry = Telemetry.capture()
        config = ExecutionConfig(backend="vectorized", workers=2, telemetry=telemetry)
        result = self._run(shape, weather, batch, merged, config)

        ops = result.metrics.per_operator
        udf_seconds = sum(op.seconds for name, op in ops.items() if name.startswith("where"))
        assert kernel_seconds > 0
        assert udf_seconds >= kernel_seconds
        # Exclusive per-operator times: a flush that emits downstream does
        # not bill its children's time twice.
        assert sum(op.seconds for op in ops.values()) <= result.metrics.wall_seconds
        for name, op in ops.items():
            series = telemetry.metrics.counter("dataflow_operator_seconds_total", operator=name)
            assert series.value == op.seconds

    def test_per_operator_metrics_content(self, weather, batch):
        cfg = ExecutionConfig(telemetry=Telemetry.capture(), workers=2)
        result = run_where_many(weather.rows, batch, weather.functions, config=cfg)
        ops = result.metrics.per_operator
        name = f"whereMany[{len(batch)}]"
        assert ops[name].records_in == len(weather.rows)
        assert ops[name].udf_cost == result.metrics.udf_cost
        assert ops[name].notifications == sum(
            len(rows) for rows in result.buckets.values()
        )
        reg = cfg.telemetry.metrics
        assert reg.counter("dataflow_records_total").value == len(weather.rows)
        assert (
            reg.counter("dataflow_operator_records_in_total", operator=name).value
            == len(weather.rows)
        )

    def test_disabled_run_skips_per_operator(self, weather, batch):
        result = run_where_many(weather.rows, batch, weather.functions)
        assert result.metrics.per_operator == {}

    def test_smt_and_compile_metrics_recorded(self, weather, batch):
        from repro.lang.vectorize import clear_vectorize_cache

        clear_vectorize_cache()
        cfg = ExecutionConfig(telemetry=Telemetry.capture())
        run_where_consolidated(weather.rows[:20], batch, weather.functions, config=cfg)
        reg = cfg.telemetry.metrics
        assert reg.counter("smt_checks").value > 0
        assert reg.histogram("smt_check_seconds").count > 0
        assert reg.counter("vectorized_plan_cache_misses_total").value > 0
        assert reg.counter("consolidation_pairs_total").value == len(batch) - 1
        assert reg.histogram("consolidation_pair_seconds").count == len(batch) - 1

    def test_harness_rows_carry_metrics(self, weather, batch):
        from repro.experiments.harness import run_experiment

        cfg = ExecutionConfig(telemetry=Telemetry.capture(), workers=2)
        result = run_experiment(weather, batch, family="Q1", config=cfg)
        names = {c["name"] for c in result.metrics["counters"]}
        assert "dataflow_records_total" in names
        assert "smt_checks" in names
        assert result.executor == "serial"
        # The parent registry aggregated the child's counters too.
        assert cfg.telemetry.metrics.counter("dataflow_runs_total").value >= 2


class TestTelemetryOverheadPath:
    def test_disabled_telemetry_takes_fast_path(self, weather, batch):
        """The untraced engine never allocates OperatorStats."""

        q = from_collection(weather.rows[:30]).where_many(batch, weather.functions)
        result = q.run()
        assert result.metrics.per_operator == {}


PROGRAM_SRC = """
program tiny(row) {
  t := monthly_avg_temp(@row, 7);
  if (t > 50) { notify tiny true; } else { notify tiny false; }
}
"""


def test_parse_alias_exported():
    import repro

    p = repro.parse(PROGRAM_SRC)
    assert p == parse_program(PROGRAM_SRC)
    assert p.pid == "tiny"
