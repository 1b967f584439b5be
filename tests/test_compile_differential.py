"""Differential testing: compiled backend vs the Figure-2 interpreter.

The compiled backend's contract is *bit-identical observables*: for any
program and input, ``CompiledProgram.run`` must produce the same env,
notifications, cost and per-pid notification costs as ``Interpreter.run``
— or raise the same error class.  This suite checks that contract on the
random well-formed programs of the soundness property test (straight-line,
branching and looping), on consolidator-merged programs, on hand-written
error cases (notification clashes, unbound variables, type errors, step
budgets) and with call memoisation on both sides.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.consolidation import Consolidator
from repro.lang import (
    FunctionTable,
    Interpreter,
    InterpError,
    LibraryFunction,
    NotificationClash,
    StepLimitExceeded,
    add,
    and_,
    arg,
    assign,
    block,
    call,
    compile_program,
    eq,
    gt,
    if_,
    ite_notify,
    lift,
    lt,
    notify,
    or_,
    program,
    var,
    while_,
)

from .test_soundness_property import FT, udf_programs

_POINTS = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=6
)


def run_both(p, args, functions=FT, max_steps=2_000_000):
    """Run ``p`` under both backends; return their outcomes as comparable pairs.

    An outcome is ``("ok", (env, notifications, cost, notification_costs))``
    or ``("error", exception_class)`` — errors must agree on the class, the
    documented compiled-backend contract (messages may differ only when
    several dynamic errors race inside one expression).
    """

    interp = Interpreter(functions, max_steps=max_steps)
    try:
        r = interp.run(p, args)
        expected = ("ok", (r.env, r.notifications, r.cost, r.notification_costs))
    except InterpError as exc:
        expected = ("error", type(exc))

    compiled = compile_program(p, functions, max_steps=max_steps)
    try:
        r = compiled.run(args)
        actual = ("ok", (r.env, r.notifications, r.cost, r.notification_costs))
    except InterpError as exc:
        actual = ("error", type(exc))

    assert actual == expected, f"backends diverge on {p}\nargs={args}"
    return actual


class TestRandomPrograms:
    @given(udf_programs("q1"), _POINTS)
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_compiled_matches_interpreter(self, p, points):
        for a, b in points:
            run_both(p, {"a": a, "b": b})

    @given(udf_programs("q1"), udf_programs("q2"), _POINTS)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_compiled_matches_interpreter_on_merged_programs(self, p1, p2, points):
        merged = Consolidator(FT).consolidate(p1, p2)
        for a, b in points:
            outcome = run_both(merged, {"a": a, "b": b})
            if outcome[0] == "ok":
                assert set(outcome[1][1]) == {"q1", "q2"}


class TestLoops:
    def test_loop_accumulator(self):
        p = program(
            "p",
            ("n",),
            assign("i", lift(0)),
            assign("s", lift(0)),
            while_(
                lt(var("i"), arg("n")),
                block(
                    assign("s", add(var("s"), call("f", var("i")))),
                    assign("i", add(var("i"), lift(1))),
                ),
            ),
            ite_notify("p", gt(var("s"), lift(5))),
        )
        for n in range(0, 9):
            run_both(p, {"n": n})

    def test_notify_inside_loop_clashes_on_second_iteration(self):
        p = program(
            "p",
            ("n",),
            assign("i", lift(0)),
            while_(
                lt(var("i"), arg("n")),
                block(notify("p", lt(var("i"), lift(3))), assign("i", add(var("i"), lift(1)))),
            ),
        )
        assert run_both(p, {"n": 0})[0] == "ok"  # loop body never runs
        assert run_both(p, {"n": 1})[0] == "ok"  # one notification
        assert run_both(p, {"n": 2}) == ("error", NotificationClash)

    def test_infinite_loop_exhausts_fuel_in_both_backends(self):
        p = program("p", (), assign("i", lift(0)), while_(lt(var("i"), lift(1)), block()))
        assert run_both(p, {}, max_steps=500) == ("error", StepLimitExceeded)


class TestErrorParity:
    def test_notification_clash(self):
        p = program("p", ("n",), notify("p", lt(arg("n"), lift(3))), notify("p", lt(arg("n"), lift(5))))
        assert run_both(p, {"n": 1}) == ("error", NotificationClash)

    def test_missing_argument(self):
        p = program("p", ("n",), ite_notify("p", lt(arg("n"), lift(3))))
        assert run_both(p, {}) == ("error", InterpError)

    def test_unbound_variable(self):
        p = program("p", ("n",), if_(lt(arg("n"), lift(0)), assign("x", lift(1)), block()), assign("y", add(var("x"), lift(1))))
        assert run_both(p, {"n": 3}) == ("error", InterpError)
        assert run_both(p, {"n": -3})[0] == "ok"

    def test_unbound_variable_message_names_the_source_variable(self):
        p = program("p", (), assign("y", var("mystery")))
        compiled = compile_program(p, FT)
        with pytest.raises(InterpError, match="unbound variable 'mystery'"):
            compiled.run({})

    def test_one_path_only_assignment_reports_the_same_unbound_variable(self):
        """CPython leaves ``UnboundLocalError.name`` unset on some versions;
        the compiled closure must still name the source variable."""

        p = program("p", ("n",), if_(lt(arg("n"), lift(0)), assign("v", lift(1)), block()), notify("p", eq(var("v"), lift(1))))
        with pytest.raises(InterpError) as want:
            Interpreter(FT).run(p, {"n": 3})
        with pytest.raises(InterpError) as got:
            compile_program(p, FT).run({"n": 3})
        assert str(got.value) == str(want.value) == "unbound variable 'v'"

    def test_arithmetic_type_error(self):
        p = program("p", ("n",), assign("x", add(eq(arg("n"), lift(1)), lift(2))))
        assert run_both(p, {"n": 1}) == ("error", InterpError)

    def test_notify_of_non_boolean(self):
        p = program("p", ("n",), notify("p", add(arg("n"), lift(1))))
        assert run_both(p, {"n": 1}) == ("error", InterpError)

    def test_branch_on_non_boolean(self):
        p = program("p", ("n",), if_(arg("n"), assign("x", lift(1)), block()))
        assert run_both(p, {"n": 1}) == ("error", InterpError)

    def test_connectives_evaluate_both_operands(self):
        """``or`` must not short-circuit: the right operand's call still runs."""

        calls = []
        ft = FunctionTable(
            [LibraryFunction("probe", lambda x: calls.append(x) or (x > 0), cost=5)]
        )
        p = program(
            "p",
            ("n",),
            ite_notify("p", or_(lt(arg("n"), lift(100)), call("probe", arg("n")))),
        )
        run_both(p, {"n": 4}, functions=ft)
        # interpreter + compiled each evaluated the call exactly once
        assert calls == [4, 4]

    def test_failing_library_call(self):
        def boom(x):
            raise RuntimeError("no")

        ft = FunctionTable([LibraryFunction("boom", boom, cost=5)])
        p = program("p", ("n",), assign("x", call("boom", arg("n"))))
        assert run_both(p, {"n": 1}, functions=ft) == ("error", InterpError)


class TestLatencyCapture:
    def test_notification_costs_match_on_multi_notify_programs(self):
        p = program(
            "p",
            ("n",),
            assign("x", call("f", arg("n"))),
            notify("q1", lt(var("x"), lift(0))),
            assign("y", call("g", var("x"))),
            notify("q2", and_(lt(var("y"), lift(5)), gt(var("x"), lift(-8)))),
        )
        for n in range(-4, 5):
            outcome = run_both(p, {"n": n})
            assert outcome[0] == "ok"
            _, nots, cost, ncosts = outcome[1]
            assert set(ncosts) == {"q1", "q2"}
            assert ncosts["q1"] < ncosts["q2"] <= cost
