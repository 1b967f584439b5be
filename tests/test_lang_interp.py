"""Tests for the cost-annotated big-step interpreter (Figure 2)."""

import pytest

from repro.lang import (
    CostModel,
    FunctionTable,
    Interpreter,
    InterpError,
    LibraryFunction,
    NotificationClash,
    StepLimitExceeded,
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
    mul,
    ne,
    not_,
    notify,
    or_,
    and_,
    program,
    run_program,
    run_sequentially,
    sub,
    var,
    while_,
)


@pytest.fixture
def ft():
    return FunctionTable(
        [
            LibraryFunction("double", lambda x: 2 * x, cost=10),
            LibraryFunction("strlen", lambda s: len(s), cost=5),
        ]
    )


@pytest.fixture
def interp(ft):
    return Interpreter(ft)


class TestExpressions:
    def test_constants(self, interp):
        assert interp.eval_expr(add(2, 3), {}) == (5, 1)

    def test_subtraction_and_multiplication(self, interp):
        v, _ = interp.eval_expr(sub(mul(4, 5), 3), {})
        assert v == 17

    def test_variable_lookup_cost(self, interp):
        v, c = interp.eval_expr(var("x"), {"x": 7})
        assert (v, c) == (7, 1)

    def test_unbound_variable_raises(self, interp):
        with pytest.raises(InterpError):
            interp.eval_expr(var("nope"), {})

    def test_argument_lookup(self, interp):
        v, _ = interp.eval_expr(arg("row"), {"row": 42})
        assert v == 42

    def test_call_cost_includes_args(self, interp):
        # double(x): arg cost 1 (var) + call cost 10
        v, c = interp.eval_expr(call("double", var("x")), {"x": 3})
        assert (v, c) == (6, 11)

    def test_string_functions(self, interp):
        v, _ = interp.eval_expr(call("strlen", "hello"), {})
        assert v == 5

    def test_unknown_function_raises(self, interp):
        with pytest.raises(KeyError):
            interp.eval_expr(call("mystery", 1), {})

    def test_comparisons(self, interp):
        assert interp.eval_expr(lt(1, 2), {})[0] is True
        assert interp.eval_expr(le(2, 2), {})[0] is True
        assert interp.eval_expr(eq(2, 3), {})[0] is False
        assert interp.eval_expr(gt(3, 2), {})[0] is True
        assert interp.eval_expr(ge(2, 3), {})[0] is False
        assert interp.eval_expr(ne(2, 3), {})[0] is True

    def test_string_equality(self, interp):
        v, _ = interp.eval_expr(eq("united", "united"), {})
        assert v is True
        v, _ = interp.eval_expr(eq("united", "southwest"), {})
        assert v is False

    def test_boolean_connectives_not_short_circuit(self, interp):
        # Figure 2 evaluates both operands; both variable reads are paid.
        v, c = interp.eval_expr(or_(var("a"), var("b")), {"a": True, "b": False})
        assert v is True
        assert c == 1 + 1 + 1  # two var reads + connective

    def test_not(self, interp):
        v, _ = interp.eval_expr(not_(lt(2, 1)), {})
        assert v is True

    def test_type_error_arith_on_bool(self, interp):
        with pytest.raises(InterpError):
            interp.eval_expr(add(lt(1, 2), 1), {})

    def test_type_error_ordering_on_string(self, interp):
        with pytest.raises(InterpError):
            interp.eval_expr(lt("a", "b"), {})


class TestStatements:
    def test_assign_updates_env(self, ft):
        p = program("p", ("n",), assign("x", add(arg("n"), 1)), notify("p", lt(var("x"), 10)))
        r = run_program(p, {"n": 5}, ft)
        assert r.env["x"] == 6
        assert r.notifications == {"p": True}

    def test_branch_true_false(self, ft):
        p = program("p", ("n",), ite_notify("p", lt(arg("n"), 10)))
        assert run_program(p, {"n": 5}, ft).notifications == {"p": True}
        assert run_program(p, {"n": 15}, ft).notifications == {"p": False}

    def test_while_loop_sum(self, ft):
        p = program(
            "p",
            ("n",),
            assign("i", 0),
            assign("acc", 0),
            while_(lt(var("i"), arg("n")), block(assign("acc", add(var("acc"), var("i"))), assign("i", add(var("i"), 1)))),
            notify("p", gt(var("acc"), 10)),
        )
        r = run_program(p, {"n": 6}, ft)
        assert r.env["acc"] == 15
        assert r.notifications == {"p": True}

    def test_loop_zero_iterations(self, ft):
        p = program("p", ("n",), assign("i", 0), while_(lt(var("i"), 0), assign("i", add(var("i"), 1))), notify("p", True))
        r = run_program(p, {"n": 0}, ft)
        assert r.env["i"] == 0

    def test_duplicate_notification_rejected(self, ft):
        p = program("p", (), notify("p", True), notify("p", False))
        with pytest.raises(NotificationClash):
            run_program(p, {}, ft)

    def test_notify_non_bool_rejected(self, ft):
        p = program("p", (), notify("p", add(1, 2)))
        with pytest.raises(InterpError):
            run_program(p, {}, ft)

    def test_missing_argument_rejected(self, ft):
        p = program("p", ("n",), notify("p", True))
        with pytest.raises(InterpError):
            run_program(p, {}, ft)

    def test_step_limit(self, ft):
        p = program("p", (), assign("i", 0), while_(ge(var("i"), 0), assign("i", add(var("i"), 1))))
        interp = Interpreter(ft, max_steps=10_000)
        with pytest.raises(StepLimitExceeded):
            interp.run(p, {})


class TestCostAccounting:
    def test_branch_cost_charged_once_per_test(self, ft):
        cm = CostModel()
        p = program("p", ("n",), ite_notify("p", lt(arg("n"), 10)))
        r = run_program(p, {"n": 5}, ft)
        # cond: arg(1) + const(0) + cmp(1) = 2 ; branch 2 ; notify: const 0 + 1
        assert r.cost == 2 + cm.branch + 1

    def test_loop_cost_includes_final_test(self, ft):
        cm = CostModel()
        body = assign("i", add(var("i"), 1))
        p = program("p", (), assign("i", 0), while_(lt(var("i"), 2), body))
        r = run_program(p, {}, ft)
        init = 0 + cm.assign
        test = 1 + 0 + cm.cmp + cm.branch  # var + const + cmp + branch
        body_cost = 1 + 0 + cm.arith + cm.assign
        assert r.cost == init + 3 * test + 2 * body_cost

    def test_eval_expr_resets_elapsed_latency_state(self, ft):
        interp = Interpreter(ft)
        p = program("p", (), assign("x", 1), notify("p", lt(var("x"), 2)))
        interp.run(p, {})
        interp.eval_expr(add(1, 2), {})
        r = interp.run(p, {})
        # Latency bookkeeping starts from zero on every entry point.
        assert r.notification_costs["p"] == r.cost


class TestSequentialExecution:
    def test_costs_and_notifications_add_up(self, ft):
        p1 = program("q1", ("n",), ite_notify("q1", lt(arg("n"), 10)))
        p2 = program("q2", ("n",), ite_notify("q2", gt(arg("n"), 3)))
        r = run_sequentially([p1, p2], {"n": 5}, ft)
        assert r.notifications == {"q1": True, "q2": True}
        r1 = run_program(p1, {"n": 5}, ft)
        r2 = run_program(p2, {"n": 5}, ft)
        assert r.cost == r1.cost + r2.cost

    def test_duplicate_pid_across_programs_rejected(self, ft):
        p1 = program("q", (), notify("q", True))
        p2 = program("q", (), notify("q", False))
        with pytest.raises(NotificationClash):
            run_sequentially([p1, p2], {}, ft)
