"""Tests for backend selection, the compile cache, and fallback behaviour."""

import logging

import pytest

from repro.config import ExecutionConfig
from repro.lang import (
    CompileError,
    FunctionTable,
    LibraryFunction,
    arg,
    assign,
    call,
    compile_cached,
    compile_program,
    ite_notify,
    lift,
    lt,
    make_runner,
    program,
    var,
)
from repro.lang.compile import clear_compile_cache
from repro.naiad.linq import run_where_consolidated, run_where_many

FT = FunctionTable([LibraryFunction("val", lambda r: (r * 13) % 50, cost=15)])


def filt(pid, bound):
    return program(
        pid,
        ("row",),
        assign("x", call("val", arg("row"))),
        ite_notify(pid, lt(var("x"), bound)),
    )


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_runner(filt("q0", 10), FT, backend="jit")

    def test_both_backends_agree(self):
        p = filt("q0", 10)
        interp_run = make_runner(p, FT, backend="interp")
        compiled_run = make_runner(p, FT, backend="compiled")
        for row in range(20):
            a = interp_run({"row": row})
            b = compiled_run({"row": row})
            assert (a.env, a.notifications, a.cost, a.notification_costs) == (
                b.env,
                b.notifications,
                b.cost,
                b.notification_costs,
            )

    def test_unknown_function_raises_compile_error(self):
        p = program("q0", ("row",), assign("x", call("nosuch", arg("row"))))
        with pytest.raises(CompileError, match="unknown library function"):
            compile_program(p, FT)

    def test_fallback_to_interpreter_is_logged(self, caplog):
        # An unknown function cannot be compiled; make_runner must fall back
        # (and warn) rather than raise — the interpreter reproduces the
        # dynamic error lazily, only if the call site is ever reached.
        p = program(
            "q0",
            ("row",),
            ite_notify("q0", lt(arg("row"), lift(3))),
            assign("x", call("nosuch", arg("row"))),
        )
        with caplog.at_level(logging.WARNING, logger="repro.lang.compile"):
            runner = make_runner(p, FT, backend="compiled")
        assert any("falling back to the interpreter" in r.message for r in caplog.records)
        with pytest.raises(Exception, match="nosuch"):
            runner({"row": 0})


class TestCompileCache:
    def test_cache_returns_identical_object(self):
        clear_compile_cache()
        p = filt("q0", 10)
        first = compile_cached(p, FT)
        second = compile_cached(p, FT)
        assert first is second

    def test_structurally_equal_programs_share_one_compilation(self):
        clear_compile_cache()
        assert compile_cached(filt("q0", 10), FT) is compile_cached(filt("q0", 10), FT)

    def test_cache_discriminates_programs_and_options(self):
        clear_compile_cache()
        base = compile_cached(filt("q0", 10), FT)
        assert compile_cached(filt("q0", 11), FT) is not base
        assert compile_cached(filt("q1", 10), FT) is not base
        assert compile_cached(filt("q0", 10), FT, max_steps=1_000) is not base

    def test_cache_discriminates_function_tables(self):
        clear_compile_cache()
        other = FunctionTable([LibraryFunction("val", lambda r: r, cost=15)])
        p = filt("q0", 10)
        assert compile_cached(p, FT) is not compile_cached(p, other)


    def test_cache_is_bounded_and_keeps_admitting(self, monkeypatch):
        """A churning registry lowers one new plan per patch: the bucket is
        an LRU shared by both lowering caches, not a dict that only grows."""

        from repro.lang import compile as compile_mod, vectorize as vectorize_mod
        from repro.lang.vectorize import clear_vectorize_cache, vectorize_cached

        cap = 6
        monkeypatch.setattr(compile_mod, "_LOWERED_LIMIT", cap)
        for cached, store, clear in (
            (compile_cached, compile_mod._CACHE, clear_compile_cache),
            (vectorize_cached, vectorize_mod._CACHE, clear_vectorize_cache),
        ):
            clear()
            hot = cached(filt("hot", 1), FT)
            for i in range(3 * cap):  # one new plan per patch ...
                cached(filt(f"plan{i}", i), FT)
                assert cached(filt("hot", 1), FT) is hot  # ... between runs of the hot one
                assert len(store[FT]) <= cap
            assert len(store[FT]) == cap
            newest = filt(f"plan{3 * cap - 1}", 3 * cap - 1)
            assert newest in {key[0] for key in store[FT]}  # admitted past the cap
            assert filt("plan0", 0) not in {key[0] for key in store[FT]}  # evicted
            clear()

    def test_runs_hit_the_cache_as_before(self):
        """``run_*`` lowers each UDF once however often it runs — to the
        batch kernel, and to no per-record closure beside it."""

        from repro.lang.vectorize import clear_vectorize_cache
        from repro.telemetry import Telemetry

        clear_compile_cache()
        clear_vectorize_cache()
        telemetry = Telemetry.capture()
        config = ExecutionConfig(backend="compiled", telemetry=telemetry)
        programs = [filt(f"q{i}", 5 * i + 3) for i in range(4)]
        for _ in range(3):
            run_where_many(list(range(10)), programs, FT, config=config)
        assert telemetry.counter("vectorized_plan_cache_misses_total").value == len(programs)
        assert telemetry.counter("vectorized_plan_cache_hits_total").value >= 2 * len(programs)
        assert telemetry.counter("compile_cache_misses_total").value == 0


class TestOperatorsUnderBothBackends:
    def test_where_many_buckets_and_costs_match(self):
        rows = list(range(30))
        programs = [filt(f"q{i}", 5 * i + 3) for i in range(4)]
        interp = run_where_many(rows, programs, FT, config=ExecutionConfig(backend="interp"))
        compiled = run_where_many(rows, programs, FT, config=ExecutionConfig(backend="compiled"))
        assert interp.buckets == compiled.buckets
        assert interp.metrics.udf_cost == compiled.metrics.udf_cost
        assert interp.metrics.total_cost == compiled.metrics.total_cost

    def test_where_consolidated_buckets_and_costs_match(self):
        rows = list(range(30))
        programs = [filt(f"q{i}", 5 * i + 3) for i in range(4)]
        interp, _ = run_where_consolidated(
            rows, programs, FT, config=ExecutionConfig(backend="interp")
        )
        compiled, _ = run_where_consolidated(
            rows, programs, FT, config=ExecutionConfig(backend="compiled")
        )
        assert interp.buckets == compiled.buckets
        assert interp.metrics.udf_cost == compiled.metrics.udf_cost


class TestCliBackendFlag:
    @pytest.fixture
    def program_file(self, tmp_path):
        src = "program p(n) { notify p @n < 5; }"
        path = tmp_path / "p.prog"
        path.write_text(src)
        return str(path)

    def test_run_under_each_backend(self, capsys, program_file):
        from repro.cli import main

        outputs = []
        for backend in ("interp", "compiled"):
            assert main(["--backend", backend, "run", program_file, "--args", "n=3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "p: true" in outputs[0]

    def test_backend_flag_rejects_unknown_value(self, program_file):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--backend", "jit", "run", program_file, "--args", "n=3"])
