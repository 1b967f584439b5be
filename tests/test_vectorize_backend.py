"""The batch kernel every ``Where*`` runs on: cost parity, the ladder, cache, faults.

The kernel's contract is *bit-identical observability*: for any program
batch, a run that enters the ladder at the kernel (``backend="compiled"``,
the default, and ``"vectorized"``) must produce exactly the buckets and
exactly the Figure-2 costs of the run that enters at the interpreter
(``backend="interp"``) — including on merged ``whereConsolidated`` plans
and after every rung of the fallback ladder.
These tests pin that contract per domain family, exercise the recorded
(never raised) degradations, hold the operator to its one execution path,
and hold the fault seams to their documented behaviour: a
kernel-translation crash degrades invisibly, a mis-masked ``If`` is caught
by the three-way differential oracle.
"""

import pytest

from repro import datasets as ds
from repro.config import ExecutionConfig
from repro.consolidation import consolidate_all
from repro.lang import parse_program
from repro.lang.ast import SKIP, Arg, BoolConst, Cmp, If, IntConst, Notify, Program
from repro.lang.compile import CompiledProgram, clear_compile_cache, make_runner
from repro.lang.cost import DEFAULT_COST_MODEL
from repro.lang.interp import Interpreter
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
    compile_fallback,
    generate_case,
    miscompile,
    run_battery,
    schema_dataset,
    vectorize_crash,
    vectorize_mismask,
)
from repro.testing.oracles import _check_backends, _check_vectorized_dataflow

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
    """Per-record cost on the merged plan is identical interpreter vs kernel.

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
            config=ExecutionConfig(backend="interp"),
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
def test_wheremany_per_record_cost_parity(domain, domain_datasets):
    """The sequential baseline reproduces the interpreter run exactly, per worker."""

    dataset = domain_datasets[domain]
    module = DOMAIN_QUERIES[domain]
    family = module.FAMILY_NAMES[0]
    batch = module.make_batch(dataset, family, n=3, seed=7)
    rows = dataset.rows[:30]
    compiled = run_where_many(
        rows, batch, dataset.functions,
        config=ExecutionConfig(backend="interp"),
    )
    vectorized = run_where_many(
        rows, batch, dataset.functions,
        config=ExecutionConfig(backend="vectorized"),
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


@pytest.mark.parametrize("backend", ["compiled", "vectorized"])
class TestFallbackLadder:
    """One ladder whichever name the kernel was entered under."""

    def test_unbounded_shape_degrades_to_per_row(self, domain_datasets, backend):
        dataset = domain_datasets["weather"]
        program = parse_program(UNBOUNDED_SRC)
        vp = vectorize_program(program, dataset.functions, backend=backend)
        assert not vp.vectorized
        assert vp.shape == "unbounded"
        assert "unbounded" in vp.degraded_reason
        rows = dataset.rows[:12]
        batch = vp.run_batch(columns_from_records(program, rows), len(rows))
        assert batch.fallback
        assert batch.fallback_reason == vp.degraded_reason
        runner = make_runner(program, dataset.functions, backend="compiled")
        interp = Interpreter(dataset.functions)
        for i, row in enumerate(rows):
            want = runner({"row": row})
            assert batch.costs[i] == want.cost
            assert batch.notifications_at(i) == want.notifications
            # The batch keeps no latencies; the closure row still matches.
            assert want.notification_costs == interp.run(program, {"row": row}).notification_costs

    def test_fallback_is_counted(self, domain_datasets, backend):
        dataset = domain_datasets["weather"]
        program = parse_program(UNBOUNDED_SRC)
        telemetry = Telemetry.capture()
        vp = vectorize_program(
            program, dataset.functions, backend=backend, telemetry=telemetry
        )
        rows = dataset.rows[:9]
        vp.run_batch(columns_from_records(program, rows), len(rows))
        assert telemetry.counter("vectorized_fallbacks_total").value == 1
        assert (
            telemetry.counter("vectorized_fallback_records_total").value
            == len(rows)
        )

    def test_one_unbounded_udf_among_eight_degrades_only_its_own_records(
        self, domain_datasets, backend
    ):
        dataset = domain_datasets["weather"]
        batch = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=7, seed=7)
        batch.append(parse_program(UNBOUNDED_SRC))
        rows = dataset.rows
        telemetry = Telemetry.capture()
        got = run_where_many(
            rows, batch, dataset.functions,
            config=ExecutionConfig(backend=backend, telemetry=telemetry),
        )
        want = run_where_many(
            rows, batch, dataset.functions, config=ExecutionConfig(backend="interp")
        )
        assert _buckets(got) == _buckets(want)
        assert got.metrics.udf_cost == want.metrics.udf_cost
        # Fallback rate 1/8: the unbounded UDF's records and nobody else's.
        assert telemetry.counter("vectorized_fallback_records_total").value == len(rows)
        assert telemetry.counter("vectorized_records_total").value == 8 * len(rows)

    def test_vectorized_run_emits_batch_series(self, domain_datasets, backend):
        dataset = domain_datasets["weather"]
        module = DOMAIN_QUERIES["weather"]
        batch = module.make_batch(dataset, "Q1", n=3, seed=7)
        cfg = ExecutionConfig(backend=backend, telemetry=Telemetry.capture())
        run_where_many(dataset.rows[:20], batch, dataset.functions, config=cfg)
        reg = cfg.telemetry
        assert reg.counter("vectorized_batches_total").value > 0
        assert reg.counter("vectorized_records_total").value > 0
        assert reg.histogram("vectorized_batch_size").count > 0
        assert reg.counter("vectorized_fallbacks_total").value == 0

    def test_nesting_python_cannot_compile_takes_the_per_row_rung(
        self, domain_datasets, caplog, backend
    ):
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
        vp = vectorize_cached(program, dataset.functions, backend=backend, telemetry=telemetry)
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


class TestOneExecutionPath:
    """The kernel runs every ``Where*``; the per-record closure is a degrade rung."""

    @pytest.fixture()
    def closure_calls(self, monkeypatch):
        """Counts ``CompiledProgram.run`` calls on freshly lowered programs
        (a cached ladder may hold a row runner bound before the spy)."""

        clear_vectorize_cache()
        clear_compile_cache()
        calls = []
        original = CompiledProgram.run

        def spy(self, args, max_steps=None):
            calls.append(self.program.pid)
            return original(self, args, max_steps)

        monkeypatch.setattr(CompiledProgram, "run", spy)
        yield calls
        clear_vectorize_cache()
        clear_compile_cache()

    def test_bounded_batch_never_calls_the_closure(self, domain_datasets, closure_calls):
        dataset = domain_datasets["weather"]
        batch = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=3, seed=7)
        telemetry = Telemetry.capture()
        query = from_collection(
            dataset.rows, ExecutionConfig(telemetry=telemetry)
        ).where_many(batch, dataset.functions)
        result = query.run()
        assert result.metrics.records == len(dataset.rows)
        assert closure_calls == []
        # ... because none was lowered, not because one sat idle.
        assert telemetry.counter("compile_cache_misses_total").value == 0
        assert telemetry.counter("vectorized_fallbacks_total").value == 0

    def test_unbounded_udf_calls_the_closure_once_per_record(
        self, domain_datasets, closure_calls
    ):
        dataset = domain_datasets["weather"]
        program = parse_program(UNBOUNDED_SRC)
        result = from_collection(dataset.rows).where(program, dataset.functions).run()
        assert result.metrics.records == len(dataset.rows)
        assert closure_calls == ["ub"] * len(dataset.rows)

    def test_compile_fallback_under_the_default_backend_reaches_the_interpreter(
        self, domain_datasets
    ):
        """Kernel -> closure -> interpreter: the bottom rung is still there
        when the default backend's batch degrades and the closure cannot be
        built, and it is counted."""

        dataset = domain_datasets["weather"]
        program = parse_program(UNBOUNDED_SRC)
        rows = dataset.rows
        want = run_where_many(
            rows, [program], dataset.functions, config=ExecutionConfig(backend="interp")
        )
        telemetry = Telemetry.capture()
        clear_vectorize_cache()
        with compile_fallback():
            got = run_where_many(
                rows, [program], dataset.functions,
                config=ExecutionConfig(telemetry=telemetry, workers=1),
            )
        clear_vectorize_cache()  # its row runner is the interpreter: do not leave it cached
        assert _buckets(got) == _buckets(want)
        assert got.metrics.udf_cost == want.metrics.udf_cost
        assert telemetry.counter("vectorized_fallback_records_total").value == len(rows)
        assert telemetry.counter("compile_fallbacks_total").value == 1

    def test_interp_enters_at_the_bottom_rung(self, domain_datasets):
        """No kernel, no closure, and nothing recorded as degraded."""

        dataset = domain_datasets["weather"]
        program = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=1, seed=7)[0]
        telemetry = Telemetry.capture()
        vp = vectorize_cached(
            program, dataset.functions, backend="interp", telemetry=telemetry
        )
        assert not vp.vectorized and vp.degraded_reason == "" and vp.source == ""
        rows = dataset.rows[:10]
        batch = vp.run_batch(columns_from_records(program, rows), len(rows))
        assert not batch.fallback
        interp = Interpreter(dataset.functions)
        for i, row in enumerate(rows):
            want = interp.run(program, {"row": row})
            assert batch.costs[i] == want.cost
            assert batch.notifications_at(i) == want.notifications
        assert telemetry.counter("vectorized_fallbacks_total").value == 0
        assert telemetry.counter("vectorized_unvectorizable_total").value == 0
        assert telemetry.counter("compile_cache_misses_total").value == 0

    def test_kernel_names_share_one_lowering(self, domain_datasets):
        dataset = domain_datasets["weather"]
        program = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=1, seed=7)[0]
        compiled = vectorize_cached(program, dataset.functions, backend="compiled")
        vectorized = vectorize_cached(program, dataset.functions, backend="vectorized")
        assert compiled is vectorized and compiled.vectorized
        interp = vectorize_cached(program, dataset.functions, backend="interp")
        assert interp is not compiled and not interp.vectorized
        with pytest.raises(ValueError, match="unknown backend"):
            vectorize_cached(program, dataset.functions, backend="llvm")


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
    for backend in ("interp", "compiled", "vectorized"):
        registry = QueryRegistry(
            dataset.functions, config=ExecutionConfig(backend=backend)
        )
        for program in batch:
            registry.register(program)
        results[backend] = registry.run(rows)
    for backend in ("compiled", "vectorized"):
        assert _buckets(results[backend]) == _buckets(results["interp"])
        assert results[backend].metrics.udf_cost == results["interp"].metrics.udf_cost


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

    def test_mismask_is_caught_by_the_dataflow_leg_alone(self):
        """The bucket-level leg compares kernel runs against the interpreter
        rung (against ``backend="compiled"`` it would be kernel vs kernel
        and both sides would carry the same corruption)."""

        found = []
        with vectorize_mismask():
            _check_vectorized_dataflow(
                PROGRAMS, None, WEATHER, WEATHER.rows[:20], DEFAULT_COST_MODEL, found
            )
        assert found and {d.oracle for d in found} == {"vectorized"}
        clean = []
        _check_vectorized_dataflow(
            PROGRAMS, None, WEATHER, WEATHER.rows[:20], DEFAULT_COST_MODEL, clean
        )
        assert clean == []

    def test_a_dropped_hit_on_the_merged_kernel_is_caught_by_the_bucket_leg(self):
        """One lost ``true`` on one pid of the merged program — the smallest
        sparse-output corruption — must show as a whereConsolidated bucket
        difference, and nothing else."""

        report = consolidate_all(PROGRAMS, WEATHER.functions)
        merged = report.program
        dropped = []

        def drop_one_hit(vectorized):
            inner = vectorized.plan
            if inner is None or vectorized.program is not merged:
                return vectorized

            def corrupted(n, budget, *columns):
                costs, hits, partial = inner(n, budget, *columns)
                pid = min(p for p in hits if hits[p])
                dropped.append((pid, hits[pid].pop(0)))
                return costs, hits, partial

            vectorized.plan = corrupted
            return vectorized

        found = []
        with vectorize_mismask(drop_one_hit):
            _check_vectorized_dataflow(
                PROGRAMS, report, WEATHER, WEATHER.rows[:20], DEFAULT_COST_MODEL, found
            )
        assert dropped
        assert [str(d) for d in found] == [
            "[vectorized] whereConsolidated buckets differ between interp and vectorized"
        ]

    def test_miscompile_is_caught_by_the_per_record_leg(self):
        """A corrupted per-record closure is off the operators' path now:
        the per-record leg is what sees it, the dataflow leg stays quiet."""

        per_record, dataflow = [], []
        with miscompile():
            _check_backends(PROGRAMS, WEATHER, INPUTS, DEFAULT_COST_MODEL, per_record)
            _check_vectorized_dataflow(
                PROGRAMS, None, WEATHER, WEATHER.rows[:20], DEFAULT_COST_MODEL, dataflow
            )
        assert per_record and {d.oracle for d in per_record} == {"backend"}
        assert dataflow == []

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
