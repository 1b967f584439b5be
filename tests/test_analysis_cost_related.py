"""Tests for static costs and the related heuristic."""

import pytest

from repro.analysis import expr_cost, related
from repro.analysis.costmodel import DEFAULT_CALL_COST
from repro.analysis.related import (
    call_features,
    comparison_subjects,
    is_trivial,
    loop_tests,
    shares_work,
)
from repro.analysis.static.costbound import program_cost_upper
from repro.lang import (
    CostModel,
    FunctionTable,
    Interpreter,
    LibraryFunction,
    add,
    and_,
    arg,
    assign,
    block,
    call,
    eq,
    gt,
    if_,
    le,
    lt,
    ne,
    not_,
    notify,
    or_,
    program,
    var,
    while_,
)

from hypothesis import given, settings, strategies as st


@pytest.fixture
def ft():
    return FunctionTable(
        [
            LibraryFunction("cheap", lambda x: x, cost=5),
            LibraryFunction("pricey", lambda x: x, cost=100),
        ]
    )


class TestExprCost:
    def test_constant_free(self, ft):
        assert expr_cost(add(1, 2), ft) == 1  # one arith op, consts free

    def test_call_cost_from_table(self, ft):
        assert expr_cost(call("pricey", arg("r")), ft) == 101

    def test_unknown_call_default(self, ft):
        assert expr_cost(call("mystery", arg("r")), ft) == DEFAULT_CALL_COST + 1 == 11

    def test_profiling_features_price_an_unknown_call_the_same(self, ft):
        from repro.profiling import program_units

        p = program("q", ("r",), notify("q", lt(call("mystery", arg("r")), 5)))
        assert program_units(p, ft)["call"] == DEFAULT_CALL_COST

    def test_nested(self, ft):
        e = lt(call("cheap", arg("r")), add(var("x"), 3))
        # call(5)+arg(1) + var(1)+arith(1) + cmp(1)
        assert expr_cost(e, ft) == 9

    def test_matches_interpreter(self, ft):
        """Static expression cost equals dynamic cost (env-independent)."""

        interp = Interpreter(ft)
        for e in [
            add(var("x"), 2),
            lt(call("cheap", var("x")), call("pricey", var("x"))),
            or_(gt(var("x"), 0), ne(var("x"), 5)),
            not_(eq(var("x"), var("x"))),
        ]:
            _v, dynamic = interp.eval_expr(e, {"x": 7})
            assert expr_cost(e, ft) == dynamic


class TestStmtCostUpper:
    def test_straight_line_exact(self, ft):
        s = block(assign("x", add(1, 2)), notify("q", lt(var("x"), 5)))
        assert program_cost_upper(program("q", ("r",), s), ft) == (1 + 1) + (1 + 0 + 1 + 1)

    def test_branch_takes_the_heavier_side(self, ft):
        s = if_(lt(arg("r"), 5), assign("x", call("pricey", arg("r"))), assign("x", 0))
        test_cost = 1 + 0 + 1 + 2
        assert program_cost_upper(program("q", ("r",), s), ft) == test_cost + 101 + 1

    def test_loop_unbounded(self, ft):
        s = while_(lt(var("i"), 10), assign("i", add(var("i"), 1)))
        assert program_cost_upper(program("q", ("r",), s), ft) is None


class TestRelated:
    def test_same_ground_call_related(self):
        a = lt(call("price", arg("r"), 0, 1), 100)
        b = notify("q", lt(call("price", arg("r"), 0, 1), 300))
        assert related(a, b)

    def test_same_function_different_ground_args_unrelated(self):
        a = lt(call("price", arg("r"), 0, 1), 100)
        b = notify("q", lt(call("price", arg("r"), 2, 3), 300))
        assert not related(a, b)

    def test_variable_args_fall_back_to_name(self):
        a = lt(call("temp", arg("r"), var("m")), 10)
        b = notify("q", lt(call("temp", arg("r"), var("k")), 20))
        assert related(a, b)

    def test_shared_comparison_subject(self):
        a = lt(add(var("x"), var("y")), 5)
        b = notify("q", gt(add(var("x"), var("y")), 2))
        assert related(a, b)

    def test_disjoint_fragments_unrelated(self):
        a = lt(call("f", arg("r")), 5)
        b = notify("q", gt(call("g", arg("r")), 2))
        assert not related(a, b)

    def test_shared_argument_alone_not_enough(self):
        # Every UDF reads the same row; that must not make them related.
        a = lt(call("f", arg("row")), 5)
        b = notify("q", eq(call("g", arg("row")), 0))
        assert not related(a, b)

    def test_loop_tests_erase_local_names(self):
        # Each leaf qualifies its own locals: only the test's shape can match.
        a = while_(le(var("q0/m"), 12), assign("q0/m", add(var("q0/m"), 1)))
        b = block(
            assign("q1/k", 1),
            if_(lt(arg("r"), 3), while_(le(var("q1/k"), 12), assign("q1/k", 1)), assign("q1/k", 0)),
        )
        assert loop_tests(a) == loop_tests(b) == {le(var("_"), 12)}
        assert loop_tests(while_(le(var("m"), 11), assign("m", 1))) == {le(var("_"), 11)}
        assert loop_tests(assign("m", 1)) == frozenset()

    def test_shares_work_on_features_or_loop_tests(self):
        def loop(bound, fn):
            return while_(le(var("m"), bound), assign("s", call(fn, arg("r"), var("m"))))

        assert shares_work(loop(12, "f"), loop(12, "g"))  # same test, disjoint calls
        assert not shares_work(loop(12, "f"), loop(11, "g"))
        assert shares_work(loop(12, "f"), loop(11, "f"))  # a call name in common
        ground = notify("p", lt(call("price", arg("r"), 0, 1), 100))
        assert shares_work(ground, notify("q", gt(call("price", arg("r"), 0, 1), 3)))
        assert not shares_work(ground, notify("q", gt(call("price", arg("r"), 2, 3), 3)))

    def test_trivial(self):
        assert is_trivial(arg("r"))
        assert is_trivial(var("x"))
        assert not is_trivial(call("f", arg("r")))
        assert not is_trivial(add(var("x"), 1))


@given(st.integers(0, 3))
@settings(max_examples=20)
def test_cost_monotone_in_call_price(k):
    ft = FunctionTable([LibraryFunction("f", lambda x: x, cost=10 * (k + 1))])
    e = call("f", arg("r"))
    assert expr_cost(e, ft) == 10 * (k + 1) + 1
