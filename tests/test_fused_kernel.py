"""whereMany's fused batch kernel: one row loop runs every UDF in turn.

The fused kernel must be observably the per-UDF loop it replaces: each
UDF keeps its own step budget and its own view of the row, a batch it
cannot run re-runs UDF by UDF with the exact errors, notifications and
charges, and a corrupted fused kernel is caught by the differential
oracle.  A batch whose programs share a notification id is refused when
the operator is built, as ``consolidate_all`` refuses it.
"""

import pytest

from repro.config import ExecutionConfig
from repro.consolidation.algorithm import ConsolidationError
from repro.lang import FunctionTable, LibraryFunction, parse_program
from repro.lang.cost import DEFAULT_COST_MODEL
from repro.lang.interp import InterpError
from repro.lang.vectorize import vectorize_program
from repro.lang.visitors import stmt_size
from repro.naiad import run_where_many
from repro.naiad.operators import WhereMany
from repro.testing import schema_dataset
from repro.testing.faults import vectorize_mismask
from repro.testing.oracles import _check_vectorized_dataflow
from repro.telemetry import Telemetry

FT = FunctionTable(
    [
        LibraryFunction("val", lambda r: (r * 13) % 50, cost=15),
        LibraryFunction("bad2", lambda r: "s" if r == 7 else r, cost=5),
        LibraryFunction("bad5", lambda r: "s" if r == 3 else r, cost=5),
    ]
)


def filt(pid, func="val", bound=25):
    return parse_program(
        f"program {pid}(row) {{ x := {func}(@row); notify {pid} (x < {bound}); }}"
    )


class _Recorder:
    """A worker stand-in that logs what an operator charges and delivers."""

    index = 0

    def __init__(self):
        self.log = []

    def charge_udf(self, units):
        self.log.append(("charge", units))

    def notify_all(self, pid, records):
        self.log.append(("notify", pid, list(records)))


def _flush(programs, rows, backend):
    """Drive one partition through a whereMany: ``(log, (error class, message))``."""

    op = WhereMany(programs, FT, backend=backend)
    worker = _Recorder()
    op.ingest_batch(rows, worker)
    try:
        op.on_flush(worker)
    except Exception as exc:  # noqa: BLE001 - the error is the observable
        return worker.log, (type(exc), str(exc))
    return worker.log, None


class TestSharedNotificationIds:
    """Each of these returned wrong buckets or a bare ``KeyError`` before."""

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    @pytest.mark.parametrize(
        "sources",
        [
            ["program q0(row) { notify q0 true; }", "program q0(row) { notify q0 false; }"],
            ["program q0(row) { notify q0 true; }"] * 2,
            ["program q0(row) { notify q0 true; }", "program q1(row) { notify q0 true; }"],
        ],
        ids=["same-pid", "same-program", "foreign-pid"],
    )
    def test_where_many_refuses_the_batch(self, sources, backend):
        weather = schema_dataset("weather")
        programs = [parse_program(src) for src in sources]
        with pytest.raises(ConsolidationError, match="share notification id 'q0'"):
            run_where_many(
                weather.rows[:3], programs, weather.functions,
                config=ExecutionConfig(backend=backend),
            )


class TestFusedKernel:
    def test_each_udf_has_its_own_step_budget(self):
        loop = "i := 0; while (i < 300) {{ i := i + 1; }} notify {0} (i < 9);"
        programs = tuple(parse_program(f"program {p}(row) {{ {loop.format(p)} }}") for p in "ab")
        loop_stmt = programs[0].body.stmts[1]
        need = 301 * stmt_size(loop_stmt)  # one UDF's fuel: 301 loop-head tests
        budget = need * 3 // 2
        assert 2 * need > budget  # two UDFs on one budget would run out
        fused = vectorize_program(programs, FT, max_steps=budget)
        assert fused.vectorized, fused.degraded_reason
        batch = fused.run_batch({"row": [0, 1]}, 2)
        assert not batch.fallback, batch.fallback_reason
        assert batch.hits == {"a": [], "b": []}

    def test_a_udf_that_assigns_the_row_does_not_change_the_next_ones(self):
        programs = [
            parse_program("program a(row) { row := 100; notify a (@row < 50); }"),
            parse_program("program b(row) { notify b (@row < 50); }"),
        ]
        rows = [1, 99, 7]
        fused = vectorize_program(tuple(programs), FT)
        batch = fused.run_batch({"row": rows}, len(rows))
        assert not batch.fallback
        assert batch.hits == {"a": [], "b": [0, 2]}
        got = run_where_many(rows, programs, FT)
        want = run_where_many(rows, programs, FT, config=ExecutionConfig(backend="interp"))
        assert got.buckets == want.buckets == {"b": [1, 7]}

    def test_a_failing_batch_reproduces_the_per_udf_loop(self):
        """UDF 2 fails on row 7 and UDF 5 on row 3: the fused kernel meets
        row 3 first, but the per-UDF loop reaches UDF 2 first — its error
        wins, after UDFs 0 and 1 were charged and delivered."""

        programs = [filt(f"q{i}") for i in range(6)]
        programs[2] = filt("q2", "bad2", 20)
        programs[5] = filt("q5", "bad5", 30)
        rows = list(range(10))
        want_log, want_err = _flush(programs, rows, "interp")
        got_log, got_err = _flush(programs, rows, "compiled")
        assert want_err == (InterpError, "ordering on non-integers: x < 20")
        assert got_err == want_err
        assert got_log == want_log
        assert [entry[0] for entry in got_log] == ["charge", "notify"] * 2

    def test_a_corrupted_fused_kernel_is_caught(self):
        weather = schema_dataset("weather")
        programs = [
            parse_program(
                f"program {pid}(row) {{ t := yearly_avg_temp(@row);"
                f" notify {pid} (t > {bound}); }}"
            )
            for pid, bound in (("q0", 55), ("q1", 60), ("q2", 65))
        ]
        corrupted = []

        def fused_only(vectorized):
            if len(vectorized.programs) == 1 or vectorized.plan is None:
                return vectorized
            inner = vectorized.plan

            def plan(n, budget, *columns):
                costs, hits, partial = inner(n, budget, *columns)
                hits["q1"] = [i for i in range(n) if i not in set(hits["q1"])]
                corrupted.append(n)
                return costs, hits, partial

            vectorized.plan = plan
            return vectorized

        found = []
        with vectorize_mismask(fused_only):
            _check_vectorized_dataflow(
                programs, None, weather, weather.rows[:20], DEFAULT_COST_MODEL, found
            )
        assert corrupted
        assert [str(d) for d in found] == [
            "[vectorized] whereMany buckets differ between interp and vectorized"
        ]

    def test_counters_keep_their_per_udf_meaning(self):
        programs = [filt(f"q{i}", bound=10 * i) for i in range(5)]
        rows = list(range(40))
        telemetry = Telemetry.capture()
        run_where_many(rows, programs, FT, config=ExecutionConfig(telemetry=telemetry))
        assert telemetry.counter("vectorized_batches_total").value == 5 * 4  # 4 workers
        assert telemetry.counter("vectorized_records_total").value == 5 * len(rows)
        assert telemetry.histogram("vectorized_batch_size").count == 5 * 4
        assert telemetry.counter("vectorized_fallbacks_total").value == 0
