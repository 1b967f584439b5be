"""Fault injection: every induced failure must degrade, never corrupt.

The production modules carry one ``FAULT_HOOK`` seam each (SMT solver,
compile pipeline, consolidation driver).  These tests force each failure
mode and assert the documented degradation: sequential-baseline fallback,
interpreter fallback — with observable behaviour unchanged —
and that the oracle battery stays green under every *sound* fault while
still catching a genuine miscompile.
"""

import pytest

from repro.consolidation import consolidate_all
from repro.consolidation.divide_conquer import SMT_UNKNOWN_NOTE
from repro.lang.compile import CompileError, compile_cached, make_runner
from repro.lang.interp import Interpreter
from repro.smt.solver import Solver
from repro.smt.terms import le_f, sym
from repro.testing import (
    case_inputs,
    compile_cache_miss,
    compile_fallback,
    consolidation_pair_crash,
    generate_case,
    miscompile,
    run_battery,
    schema_dataset,
    smt_crash,
    smt_unknown,
)

WEATHER = schema_dataset("weather")
PROGRAMS = generate_case(2, "weather", 3, n_programs=4)
INPUTS = case_inputs("weather")


def run_all(programs, functions, inputs):
    """Sequential ground truth: per-program notification maps."""

    interp = Interpreter(functions)
    out = []
    for args in inputs:
        notes = {}
        for p in programs:
            notes.update(interp.run(p, args).notifications)
        out.append(notes)
    return out


def merged_notifications(report, functions, inputs):
    interp = Interpreter(functions)
    return [interp.run(report.program, args).notifications for args in inputs]


BASELINE = run_all(PROGRAMS, WEATHER.functions, INPUTS)


class TestSmtFaults:
    def test_unknown_is_counted_and_conservative(self):
        solver = Solver()
        with smt_unknown():
            assert solver.is_sat(le_f(sym("x"), sym("y"))) == "unknown"
        assert solver.stats.unknowns == 1
        # "unknown" must never prove anything — even a trivially valid
        # entailment is answered "cannot prove".
        with smt_unknown():
            assert not solver.entails(le_f(sym("a"), sym("b")), le_f(sym("a"), sym("b")))

    def test_unknown_mid_batch_never_raises(self):
        """Satellite S4: unknown degrades the merge, not the batch."""

        with smt_unknown():
            report = consolidate_all(list(PROGRAMS), WEATHER.functions)
        assert not report.skipped_pairs
        assert report.degraded
        assert any(d.startswith(SMT_UNKNOWN_NOTE) for d in report.degradations)
        assert report.solver_stats["unknowns"] > 0
        assert merged_notifications(report, WEATHER.functions, INPUTS) == BASELINE

    def test_unknown_from_midway_through_batch(self):
        # Flip to unknown only after the first few queries: the batch has
        # already committed some SMT-backed rewrites by then.
        with smt_unknown(after=5):
            report = consolidate_all(list(PROGRAMS), WEATHER.functions)
        assert merged_notifications(report, WEATHER.functions, INPUTS) == BASELINE

    def test_crash_skips_pair_into_sequential(self):
        with smt_crash():
            report = consolidate_all(list(PROGRAMS), WEATHER.functions)
        assert report.skipped_pairs, "a crashing solver must skip pairs"
        for skip in report.skipped_pairs:
            assert set(skip) == {"left", "right", "reason"}
        assert merged_notifications(report, WEATHER.functions, INPUTS) == BASELINE

    def test_battery_green_under_smt_faults(self):
        for fault in (smt_unknown, smt_crash):
            with fault():
                result = run_battery(
                    PROGRAMS, WEATHER, inputs=INPUTS,
                    check_validator=fault is smt_unknown,
                )
            assert result.ok, (fault.__name__, [str(d) for d in result.discrepancies])


class TestCompileFaults:
    def test_fallback_reaches_interpreter(self):
        p = PROGRAMS[0]
        with compile_fallback():
            with pytest.raises(CompileError):
                compile_cached(p, WEATHER.functions)
            runner = make_runner(p, WEATHER.functions, backend="compiled")
            got = [runner(args).notifications for args in INPUTS]
        interp = Interpreter(WEATHER.functions)
        want = [interp.run(p, args).notifications for args in INPUTS]
        assert got == want

    def test_cache_miss_recompiles_identically(self):
        p = PROGRAMS[0]
        with compile_cache_miss():
            a = compile_cached(p, WEATHER.functions)
            b = compile_cached(p, WEATHER.functions)
            assert a is not None and b is not None
            assert a is not b, "every lookup must be a forced miss"
        assert a.source == b.source

    def test_battery_green_under_compile_faults(self):
        for fault in (compile_fallback, compile_cache_miss):
            with fault():
                result = run_battery(
                    PROGRAMS, WEATHER, inputs=INPUTS,
                    check_validator=fault is compile_cache_miss,
                )
            assert result.ok, (fault.__name__, [str(d) for d in result.discrepancies])

    def test_miscompile_is_caught(self):
        """The battery must detect a deliberately corrupted backend."""

        with miscompile():
            result = run_battery(
                PROGRAMS, WEATHER, inputs=INPUTS,
                check_validator=False,
            )
        assert not result.ok
        assert "backend" in {d.oracle for d in result.discrepancies}


class TestConsolidationFaults:
    def test_pair_crash_degrades_and_records(self):
        with consolidation_pair_crash():
            report = consolidate_all(list(PROGRAMS), WEATHER.functions)
        assert report.skipped_pairs
        assert report.degraded
        assert merged_notifications(report, WEATHER.functions, INPUTS) == BASELINE

    def test_pair_crash_battery_green(self):
        with consolidation_pair_crash():
            result = run_battery(
                PROGRAMS, WEATHER, inputs=INPUTS,
                check_validator=False,
            )
        assert result.ok, [str(d) for d in result.discrepancies]

    def test_clean_run_not_degraded(self):
        report = consolidate_all(list(PROGRAMS), WEATHER.functions)
        assert not report.skipped_pairs
        hard = [d for d in report.degradations if not d.startswith(SMT_UNKNOWN_NOTE)]
        assert not hard

    def test_pool_worker_fault_is_gone(self):
        # 8.0.0: the process-pool executor went, and with it the injector
        # that killed a pool worker; no pair merge runs in a worker now.
        import repro.testing
        from repro.testing import faults

        for module in (repro.testing, faults):
            assert not [name for name in dir(module) if "worker" in name]


class TestVerdictOracle:
    """Every ``unsat`` the calculus acts on is decided again by the reference."""

    @pytest.fixture(scope="class")
    def golden_batches(self):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "tools" / "gen_golden_plans.py"
        spec = importlib.util.spec_from_file_location("gen_golden_plans", path)
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        return gen.batches()

    def test_golden_families_agree_with_the_reference(self, golden_batches):
        from repro.testing.oracles import check_verdicts, recorded_verdicts

        for domain, (programs, functions) in golden_batches.items():
            verdicts = []
            with recorded_verdicts(verdicts):
                consolidate_all(list(programs), functions)
            out = []
            assert check_verdicts(verdicts, out) > 0, domain
            assert out == [], (domain, [str(d) for d in out])

    def test_battery_rechecks_unsat_verdicts(self):
        result = run_battery(PROGRAMS, WEATHER, inputs=INPUTS, check_validator=False)
        assert result.ok, [str(d) for d in result.discrepancies]
        assert result.unsat_rechecked > 0

    def test_a_wrong_unsat_is_caught(self):
        """A solver that proves everything: the calculus acts on its
        verdicts, and the reference refutes some of them."""

        from repro.smt import solver as solver_module
        from repro.testing import fault_hook

        with fault_hook(solver_module, lambda site, payload: "unsat"):
            result = run_battery(PROGRAMS, WEATHER, inputs=INPUTS, check_validator=False)
        assert "verdict" in {d.oracle for d in result.discrepancies}
