"""The columnar batch backend: cost parity, fallbacks, cache, and faults.

The vectorized backend's contract is *bit-identical observability*: for
any program batch, ``backend="vectorized"`` must produce exactly the
buckets and exactly the Figure-2 costs of the compiled per-row backend —
including on merged ``whereConsolidated`` plans, under prefilter guards,
and after every rung of the fallback ladder.  These tests pin that
contract per domain family, exercise the recorded (never raised)
degradations, and hold the fault seams to their documented behaviour:
a kernel-translation crash degrades invisibly, a mis-masked ``If`` is
caught by the three-way differential oracle.
"""

import pytest

from repro import datasets as ds
from repro.config import ExecutionConfig
from repro.lang import parse_program
from repro.lang.ast import SKIP, Arg, BoolConst, Cmp, If, IntConst, Notify, Program
from repro.lang.compile import make_runner
from repro.lang.vectorize import (
    clear_vectorize_cache,
    columns_from_records,
    vectorize_cached,
    vectorize_program,
)
from repro.naiad import from_collection, run_where_consolidated, run_where_many
from repro.queries import DOMAIN_QUERIES
from repro.service import QueryRegistry
from repro.telemetry import Telemetry
from repro.testing import (
    case_inputs,
    generate_case,
    run_battery,
    schema_dataset,
    vectorize_crash,
    vectorize_mismask,
)

_MAKERS = {
    "weather": lambda: ds.generate_weather(cities=15),
    "flight": lambda: ds.generate_flights(airlines=15),
    "news": lambda: ds.generate_news(articles=40),
    "twitter": lambda: ds.generate_twitter(tweets=40),
    "stock": lambda: ds.generate_stocks(companies=8, total_daily_rows=300),
}


@pytest.fixture(scope="module")
def domain_datasets():
    return {name: make() for name, make in _MAKERS.items()}


def _buckets(result):
    return {pid: sorted(map(repr, rows)) for pid, rows in result.buckets.items()}


# -- the required regression: whereConsolidated cost parity per domain ------


@pytest.mark.parametrize("domain", sorted(_MAKERS))
def test_whereconsolidated_per_record_cost_parity(domain, domain_datasets):
    """Per-record cost on the merged plan is identical compiled vs vectorized.

    This is the regression pin for the whole backend: equal buckets AND
    equal exact udf cost over the same records means equal per-record
    cost, family by family, on every evaluation domain.
    """

    dataset = domain_datasets[domain]
    module = DOMAIN_QUERIES[domain]
    rows = dataset.rows[:30]
    for family in module.FAMILY_NAMES:
        batch = module.make_batch(dataset, family, n=3, seed=7)
        compiled, _ = run_where_consolidated(
            rows, batch, dataset.functions,
            config=ExecutionConfig(backend="compiled"),
        )
        vectorized, _ = run_where_consolidated(
            rows, batch, dataset.functions,
            config=ExecutionConfig(backend="vectorized"),
        )
        tag = f"{domain}/{family}"
        assert _buckets(vectorized) == _buckets(compiled), tag
        assert vectorized.metrics.udf_cost == compiled.metrics.udf_cost, tag
        assert (
            vectorized.metrics.per_worker_udf == compiled.metrics.per_worker_udf
        ), tag
        assert (
            vectorized.metrics.total_cost == compiled.metrics.total_cost
        ), tag


@pytest.mark.parametrize("domain", sorted(_MAKERS))
def test_wheremany_parity_with_prefilter(domain, domain_datasets):
    """The φ-guard composes: guard verdicts become a column mask, and the
    compacted batch still reproduces the compiled+prefilter run exactly."""

    dataset = domain_datasets[domain]
    module = DOMAIN_QUERIES[domain]
    family = module.FAMILY_NAMES[0]
    batch = module.make_batch(dataset, family, n=3, seed=7)
    rows = dataset.rows[:30]
    compiled = run_where_many(
        rows, batch, dataset.functions,
        config=ExecutionConfig(backend="compiled", prefilter=True),
    )
    vectorized = run_where_many(
        rows, batch, dataset.functions,
        config=ExecutionConfig(backend="vectorized", prefilter=True),
    )
    assert _buckets(vectorized) == _buckets(compiled)
    assert vectorized.metrics.udf_cost == compiled.metrics.udf_cost
    assert vectorized.metrics.per_worker_total == compiled.metrics.per_worker_total


# -- the fallback ladder is recorded, never raised --------------------------


UNBOUNDED_SRC = """
program ub(row) {
  s := 0;
  while (s < yearly_rainfall(@row)) {
    s := s + 7;
  }
  notify ub (s > 20);
}
"""


class TestFallbackLadder:
    def test_unbounded_shape_degrades_to_per_row(self, domain_datasets):
        dataset = domain_datasets["weather"]
        program = parse_program(UNBOUNDED_SRC)
        vp = vectorize_program(program, dataset.functions)
        assert not vp.vectorized
        assert vp.shape == "unbounded"
        assert "unbounded" in vp.degraded_reason
        rows = dataset.rows[:12]
        batch = vp.run_batch(columns_from_records(program, rows), len(rows))
        assert batch.fallback
        assert batch.fallback_reason == vp.degraded_reason
        runner = make_runner(program, dataset.functions, backend="compiled")
        for i, row in enumerate(rows):
            want = runner({"row": row})
            assert batch.costs[i] == want.cost
            assert batch.notifications_at(i) == want.notifications
            assert batch.notification_costs_at(i) == want.notification_costs

    def test_fallback_is_counted(self, domain_datasets):
        dataset = domain_datasets["weather"]
        program = parse_program(UNBOUNDED_SRC)
        telemetry = Telemetry.capture()
        vp = vectorize_program(program, dataset.functions, telemetry=telemetry)
        rows = dataset.rows[:9]
        vp.run_batch(columns_from_records(program, rows), len(rows))
        assert telemetry.counter("vectorized_fallbacks_total").value == 1
        assert (
            telemetry.counter("vectorized_fallback_records_total").value
            == len(rows)
        )

    def test_one_unbounded_udf_among_eight_degrades_only_its_own_records(self, domain_datasets):
        dataset = domain_datasets["weather"]
        batch = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=7, seed=7)
        batch.append(parse_program(UNBOUNDED_SRC))
        rows = dataset.rows
        telemetry = Telemetry.capture()
        got = run_where_many(
            rows, batch, dataset.functions,
            config=ExecutionConfig(backend="vectorized", telemetry=telemetry),
        )
        want = run_where_many(
            rows, batch, dataset.functions, config=ExecutionConfig(backend="compiled")
        )
        assert _buckets(got) == _buckets(want)
        assert got.metrics.udf_cost == want.metrics.udf_cost
        # Fallback rate 1/8: the unbounded UDF's records and nobody else's.
        assert telemetry.counter("vectorized_fallback_records_total").value == len(rows)
        assert telemetry.counter("vectorized_records_total").value == 8 * len(rows)

    def test_vectorized_run_emits_batch_series(self, domain_datasets):
        dataset = domain_datasets["weather"]
        module = DOMAIN_QUERIES["weather"]
        batch = module.make_batch(dataset, "Q1", n=3, seed=7)
        cfg = ExecutionConfig(
            backend="vectorized", telemetry=Telemetry.capture()
        )
        run_where_many(dataset.rows[:20], batch, dataset.functions, config=cfg)
        reg = cfg.telemetry
        assert reg.counter("vectorized_batches_total").value > 0
        assert reg.counter("vectorized_records_total").value > 0
        assert reg.histogram("vectorized_batch_size").count > 0
        assert reg.counter("vectorized_fallbacks_total").value == 0

    def test_nesting_python_cannot_compile_takes_the_per_row_rung(self, domain_datasets, caplog):
        """A 120-deep ``if`` chain is past CPython's 100-level indentation
        limit: no kernel (recorded reason, counted), and the compiled
        closure behind it fails the same way, so the rows reach the
        interpreter — never an error."""

        dataset = domain_datasets["weather"]
        body = Notify("deep", BoolConst(True))
        for level in range(120):
            body = If(Cmp("<", IntConst(level), Arg("row")), body, SKIP)
        program = Program("deep", ("row",), body)
        clear_vectorize_cache()
        telemetry = Telemetry.capture()
        vp = vectorize_cached(program, dataset.functions, telemetry=telemetry)
        assert not vp.vectorized
        assert "kernel translation failed" in vp.degraded_reason
        assert telemetry.counter("vectorized_unvectorizable_total").value == 1
        rows = [500, 60, 500]
        with caplog.at_level("WARNING", logger="repro.lang.compile"):
            batch = vp.run_batch(columns_from_records(program, rows), len(rows))
        assert batch.fallback
        assert batch.fallback_reason == vp.degraded_reason
        assert telemetry.counter("vectorized_fallback_records_total").value == 3
        assert telemetry.counter("compile_fallbacks_total").value == 1
        assert [batch.notifications_at(i) for i in range(3)] == [
            {"deep": True}, {}, {"deep": True},
        ]


class TestPlanCache:
    def test_hit_and_miss_are_counted(self, domain_datasets):
        dataset = domain_datasets["weather"]
        module = DOMAIN_QUERIES["weather"]
        program = module.make_batch(dataset, "Q1", n=1, seed=7)[0]
        clear_vectorize_cache()
        telemetry = Telemetry.capture()
        first = vectorize_cached(
            program, dataset.functions, telemetry=telemetry
        )
        again = vectorize_cached(
            program, dataset.functions, telemetry=telemetry
        )
        assert again is first
        assert telemetry.counter("vectorized_plan_cache_misses_total").value == 1
        assert telemetry.counter("vectorized_plan_cache_hits_total").value == 1

    def test_cached_plan_counts_into_the_sink_that_built_the_query(self, domain_datasets):
        """Two queries over one program under two sinks share the lowering,
        not the sink: running the first must not count into the second."""

        dataset = domain_datasets["weather"]
        batch = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=2, seed=7)
        c1 = ExecutionConfig(backend="vectorized", telemetry=Telemetry.capture())
        c2 = ExecutionConfig(backend="vectorized", telemetry=Telemetry.capture())
        q1 = from_collection(dataset.rows[:20], c1).where_many(batch, dataset.functions)
        from_collection(dataset.rows[:20], c2).where_many(batch, dataset.functions)
        q1.run()
        assert c1.telemetry.counter("vectorized_batches_total").value > 0
        assert c2.telemetry.counter("vectorized_batches_total").value == 0

    def test_unvectorizable_is_counted(self, domain_datasets):
        dataset = domain_datasets["weather"]
        program = parse_program(UNBOUNDED_SRC)
        clear_vectorize_cache()
        telemetry = Telemetry.capture()
        vp = vectorize_cached(program, dataset.functions, telemetry=telemetry)
        assert not vp.vectorized
        assert telemetry.counter("vectorized_unvectorizable_total").value == 1


# -- the service serves the vectorized backend ------------------------------


def test_service_registry_runs_vectorized(domain_datasets):
    dataset = domain_datasets["weather"]
    module = DOMAIN_QUERIES["weather"]
    batch = module.make_batch(dataset, "Mix", n=4, seed=11)
    rows = dataset.rows[:25]
    results = {}
    for backend in ("compiled", "vectorized"):
        registry = QueryRegistry(
            dataset.functions, config=ExecutionConfig(backend=backend)
        )
        for program in batch:
            registry.register(program)
        results[backend] = registry.run(rows)
    assert _buckets(results["vectorized"]) == _buckets(results["compiled"])
    assert (
        results["vectorized"].metrics.udf_cost
        == results["compiled"].metrics.udf_cost
    )


# -- fault seams ------------------------------------------------------------


WEATHER = schema_dataset("weather")
PROGRAMS = generate_case(2, "weather", 3, n_programs=4)
INPUTS = case_inputs("weather")


class TestVectorizeFaults:
    def test_translation_crash_degrades_identically(self):
        """An injected kernel-translation crash must be invisible except in
        the fallback telemetry: every batch rides the per-row rung."""

        baseline = run_where_many(
            WEATHER.rows[:20], PROGRAMS, WEATHER.functions,
            config=ExecutionConfig(backend="vectorized"),
        )
        cfg = ExecutionConfig(
            backend="vectorized", telemetry=Telemetry.capture()
        )
        with vectorize_crash():
            crashed = run_where_many(
                WEATHER.rows[:20], PROGRAMS, WEATHER.functions, config=cfg
            )
        assert _buckets(crashed) == _buckets(baseline)
        assert crashed.metrics.udf_cost == baseline.metrics.udf_cost
        assert cfg.telemetry.counter("vectorized_fallbacks_total").value > 0

    def test_battery_green_under_translation_crash(self):
        with vectorize_crash():
            result = run_battery(
                PROGRAMS, WEATHER, inputs=INPUTS,
                executors=("serial",), check_validator=False,
            )
        assert result.ok, [str(d) for d in result.discrepancies]

    def test_mismask_is_caught_by_battery(self):
        """The harness testing itself: a deliberately negated guard column
        must surface as a 'vectorized' oracle discrepancy."""

        with vectorize_mismask():
            result = run_battery(
                PROGRAMS, WEATHER, inputs=INPUTS,
                executors=("serial",), check_validator=False,
            )
        assert not result.ok
        assert "vectorized" in {d.oracle for d in result.discrepancies}
