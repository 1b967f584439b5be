"""Unit tests for the Ω/Ω′ algorithm: rule selection, options, edge cases."""

import pytest

from repro.consolidation import (
    ConsolidationError,
    ConsolidationOptions,
    Consolidator,
    check_soundness,
    consolidate_all,
)
from repro.lang import (
    FunctionTable,
    LibraryFunction,
    Program,
    SKIP,
    add,
    arg,
    assign,
    block,
    call,
    eq,
    ge,
    gt,
    if_,
    ite_notify,
    le,
    lt,
    notify,
    program,
    program_to_str,
    sub,
    var,
    while_,
)
from repro.lang.visitors import notified_pids, stmt_size


@pytest.fixture
def ft():
    return FunctionTable(
        [
            LibraryFunction("f", lambda x: (x * 3) % 11, cost=50),
            LibraryFunction("g", lambda x: (x * 5) % 13, cost=50),
        ]
    )


def check(ft, p1, p2, inputs, options=None):
    merged = Consolidator(ft, options=options).consolidate(p1, p2)
    report = check_soundness([p1, p2], merged, ft, inputs)
    assert report.ok, report.violations
    return merged, report


class TestPreconditions:
    def test_mismatched_params_rejected(self, ft):
        p1 = program("a", ("x",), notify("a", True))
        p2 = program("b", ("y",), notify("b", True))
        with pytest.raises(ConsolidationError):
            Consolidator(ft).consolidate(p1, p2)

    def test_shared_pids_rejected(self, ft):
        p1 = program("a", ("x",), notify("a", True))
        p2 = program("b", ("x",), notify("a", False))
        with pytest.raises(ConsolidationError):
            Consolidator(ft).consolidate(p1, p2)

    def test_dotted_pid_and_its_prefix_do_not_share_a_renamed_local(self, ft):
        """``q1``'s ``a.x`` and ``q1.a``'s ``x`` both prefix to ``q1.a.x``:
        merged, ``q1.a``'s assignment embedded in ``q1``'s branches clobbered
        the local ``q1`` reads afterwards (certified, and wrong)."""

        p1 = program(
            "q1",
            ("r",),
            assign("a.x", 1),
            if_(lt(call("f", arg("r")), 3), assign("t", 1), assign("t", 2)),
            notify("q1", lt(var("a.x"), 2)),
        )
        p2 = program(
            "q1.a", ("r",), assign("x", 5), ite_notify("q1.a", lt(call("f", arg("r")), 3))
        )
        with pytest.raises(ConsolidationError, match="share locals"):
            Consolidator(ft).consolidate(p1, p2)
        # The driver keeps such a pair as its sequential composition.
        report = consolidate_all([p1, p2], ft)
        assert [skip["reason"] for skip in report.skipped_pairs] == [
            "ConsolidationError: programs share locals after renaming: ['q1.a.x']"
        ]
        assert check_soundness([p1, p2], report.program, ft, [{"r": i} for i in range(6)]).ok

    def test_locals_renamed_apart(self, ft):
        """Same local name in both programs must not collide."""

        p1 = program("a", ("x",), assign("t", add(arg("x"), 1)), ite_notify("a", gt(var("t"), 0)))
        p2 = program("b", ("x",), assign("t", sub(arg("x"), 1)), ite_notify("b", gt(var("t"), 0)))
        merged, report = check(ft, p1, p2, [{"x": i} for i in range(-3, 4)])
        assert report.ok


class TestRuleSelection:
    def test_if1_fires_on_entailed_test(self, ft):
        p1 = program(
            "a",
            ("x",),
            if_(lt(arg("x"), 10), if_(lt(arg("x"), 20), notify("a", True), notify("a", False)), notify("a", False)),
        )
        p2 = program("b", ("x",), notify("b", True))
        c = Consolidator(ft)
        merged = c.consolidate(p1, p2)
        assert "If1" in c.trace
        # The inner (redundant) test is gone.
        assert program_to_str(merged).count("<") == 1

    def test_if2_fires_on_refuted_test(self, ft):
        p1 = program(
            "a",
            ("x",),
            if_(
                lt(arg("x"), 10),
                if_(ge(arg("x"), 10), notify("a", True), notify("a", False)),
                notify("a", False),
            ),
        )
        p2 = program("b", ("x",), notify("b", True))
        c = Consolidator(ft)
        merged = c.consolidate(p1, p2)
        assert "If2" in c.trace

    def test_if3_on_related_predicates(self, ft):
        p1 = program("a", ("x",), ite_notify("a", lt(call("f", arg("x")), 5)))
        p2 = program("b", ("x",), ite_notify("b", lt(call("f", arg("x")), 10)))
        c = Consolidator(ft)
        merged = c.consolidate(p1, p2)
        assert "If3" in c.trace
        merged2, report = check(ft, p1, p2, [{"x": i} for i in range(20)])

    def test_if5_on_unrelated_predicates(self, ft):
        p1 = program("a", ("x",), ite_notify("a", lt(call("f", arg("x")), 5)))
        p2 = program("b", ("x",), ite_notify("b", lt(call("g", arg("x")), 10)))
        c = Consolidator(ft)
        c.consolidate(p1, p2)
        assert "If3" not in c.trace
        assert "If5" in c.trace

    def test_forced_if3_mode(self, ft):
        options = ConsolidationOptions(if_rule_mode="always_if3")
        p1 = program("a", ("x",), ite_notify("a", lt(call("f", arg("x")), 5)))
        p2 = program("b", ("x",), ite_notify("b", lt(call("g", arg("x")), 10)))
        c = Consolidator(ft, options=options)
        c.consolidate(p1, p2)
        assert "If3" in c.trace

    def test_forced_if5_mode(self, ft):
        options = ConsolidationOptions(if_rule_mode="always_if5")
        p1 = program("a", ("x",), ite_notify("a", lt(call("f", arg("x")), 5)))
        p2 = program("b", ("x",), ite_notify("b", lt(call("f", arg("x")), 10)))
        c = Consolidator(ft, options=options)
        c.consolidate(p1, p2)
        assert "If3" not in c.trace

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            ConsolidationOptions(if_rule_mode="always_if7")

    def test_embed_size_guard_downgrades(self, ft, monkeypatch):
        from repro.consolidation import algorithm

        monkeypatch.setattr(algorithm, "MAX_EMBED_SIZE", 1)
        p1 = program("a", ("x",), ite_notify("a", lt(call("f", arg("x")), 5)))
        p2 = program("b", ("x",), ite_notify("b", lt(call("f", arg("x")), 10)))
        c = Consolidator(ft)
        merged = c.consolidate(p1, p2)
        assert "If3" not in c.trace
        _m, report = check(ft, p1, p2, [{"x": i} for i in range(20)])


class TestLoops:
    def _counting_loop(self, pid, start, bound, acc_fn):
        return program(
            pid,
            ("n",),
            assign("i", start),
            assign("s", 0),
            while_(
                lt(var("i"), bound),
                block(assign("s", add(var("s"), acc_fn(var("i")))), assign("i", add(var("i"), 1))),
            ),
            ite_notify(pid, gt(var("s"), 5)),
        )

    def test_identical_trip_counts_fuse(self, ft):
        p1 = self._counting_loop("a", lift_int(0), lift_int(8), lambda i: call("f", i))
        p2 = self._counting_loop("b", lift_int(0), lift_int(8), lambda i: call("f", i))
        c = Consolidator(ft)
        merged = c.consolidate(p1, p2)
        assert "Loop2" in c.trace
        report = check_soundness([p1, p2], merged, ft, [{"n": 0}])
        assert report.ok

    def test_unrelated_trip_counts_run_sequentially(self, ft):
        p1 = self._counting_loop("a", lift_int(0), arg("n"), lambda i: call("f", i))
        p2 = self._counting_loop("b", lift_int(3), lift_int(8), lambda i: call("f", i))
        c = Consolidator(ft)
        merged = c.consolidate(p1, p2)
        assert "Loop2" not in c.trace and "Loop3" not in c.trace
        report = check_soundness([p1, p2], merged, ft, [{"n": k} for k in range(10)])
        assert report.ok

    def test_loop3_when_one_runs_longer(self, ft):
        p1 = self._counting_loop("a", lift_int(0), lift_int(10), lambda i: call("f", i))
        p2 = self._counting_loop("b", lift_int(0), lift_int(6), lambda i: call("f", i))
        c = Consolidator(ft)
        merged = c.consolidate(p1, p2)
        assert "Loop3" in c.trace
        report = check_soundness([p1, p2], merged, ft, [{"n": 0}])
        assert report.ok
        # The shared prefix of iterations calls f only once per index.
        calls = []
        counting = FunctionTable(
            [
                LibraryFunction("f", lambda x: calls.append(x) or (x * 3) % 11, cost=50),
                LibraryFunction("g", lambda x: (x * 5) % 13, cost=50),
            ]
        )
        from repro.lang import Interpreter

        Interpreter(counting).run(merged, {"n": 0})
        assert len(calls) == 10  # 6 shared + 4 tail, not 16

    def test_loop_rules_can_be_disabled(self, ft):
        options = ConsolidationOptions(enable_loop_rules=False)
        p1 = self._counting_loop("a", lift_int(0), lift_int(8), lambda i: call("f", i))
        p2 = self._counting_loop("b", lift_int(0), lift_int(8), lambda i: call("f", i))
        c = Consolidator(ft, options=options)
        merged = c.consolidate(p1, p2)
        assert "Loop2" not in c.trace
        report = check_soundness([p1, p2], merged, ft, [{"n": 0}])
        assert report.ok

    def test_dead_loop_dropped(self, ft):
        p1 = program(
            "a",
            ("n",),
            assign("i", 5),
            while_(lt(var("i"), 0), assign("i", add(var("i"), 1))),
            notify("a", True),
        )
        p2 = program("b", ("n",), notify("b", True))
        c = Consolidator(ft)
        merged = c.consolidate(p1, p2)
        assert "LoopDrop" in c.trace
        assert "while" not in program_to_str(merged)


class TestNoSmtMode:
    def test_syntactic_only_still_sound(self, ft):
        options = ConsolidationOptions(use_smt=False)
        p1 = program("a", ("x",), assign("u", call("f", arg("x"))), ite_notify("a", lt(var("u"), 5)))
        p2 = program("b", ("x",), assign("v", call("f", arg("x"))), ite_notify("b", lt(var("v"), 9)))
        merged, report = check(ft, p1, p2, [{"x": i} for i in range(15)], options)
        assert report.ok

    def test_syntactic_cse_still_works(self, ft):
        options = ConsolidationOptions(use_smt=False)
        p1 = program("a", ("x",), assign("u", call("f", arg("x"))), ite_notify("a", lt(var("u"), 5)))
        p2 = program("b", ("x",), assign("v", call("f", arg("x"))), ite_notify("b", lt(var("v"), 9)))
        merged = Consolidator(ft, options=ConsolidationOptions(use_smt=False)).consolidate(p1, p2)
        assert program_to_str(merged).count("f(") == 1


class TestStructure:
    def test_all_notifications_preserved(self, ft):
        p1 = program("a", ("x",), ite_notify("a", lt(call("f", arg("x")), 5)))
        p2 = program("b", ("x",), ite_notify("b", lt(call("g", arg("x")), 9)))
        merged = Consolidator(ft).consolidate(p1, p2)
        assert notified_pids(merged.body) == {"a", "b"}

    def test_merged_pid_and_params(self, ft):
        p1 = program("a", ("x",), notify("a", True))
        p2 = program("b", ("x",), notify("b", False))
        merged = Consolidator(ft).consolidate(p1, p2)
        assert merged.params == ("x",)
        assert merged.pid == "a&b"

    def test_trace_is_reset_between_runs(self, ft):
        c = Consolidator(ft)
        p1 = program("a", ("x",), notify("a", True))
        p2 = program("b", ("x",), notify("b", False))
        c.consolidate(p1, p2)
        first = list(c.trace)
        c.consolidate(program("c", ("x",), notify("c", True)), program("d", ("x",), notify("d", False)))
        assert c.trace is not first


def lift_int(v):
    from repro.lang import lift

    return lift(v)
