"""Cross-cutting property tests tying the static analyses to the dynamic
semantics (beyond the per-module unit tests)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import expr_cost
from repro.analysis.static.costbound import program_cost_upper
from repro.lang import (
    FunctionTable,
    Interpreter,
    LibraryFunction,
    add,
    arg,
    assign,
    block,
    call,
    ge,
    gt,
    if_,
    ite_notify,
    lt,
    mul,
    notify,
    program,
    sub,
    var,
    while_,
)
from repro.smt import (
    Solver,
    app,
    cone_of_influence,
    eq_f,
    fand,
    fnot,
    for_,
    le_f,
    lt_f,
    num,
    sym,
)

FT = FunctionTable(
    [
        LibraryFunction("f", lambda x: (x * 3) % 7, cost=30),
        LibraryFunction("g", lambda x: x + 2, cost=30),
    ]
)


class TestCostUpperBoundCoversDynamicCost:
    """``stmt_cost_upper`` must bound the interpreter's measured cost."""

    def _check(self, body, inputs):
        p = program("q", ("n",), body, notify("q", True))
        hi = program_cost_upper(p, FT)
        assert hi is not None
        interp = Interpreter(FT)
        for n in inputs:
            assert interp.run(p, {"n": n}).cost <= hi

    def test_straight_line(self):
        self._check(block(assign("x", call("f", arg("n"))), assign("y", add(var("x"), 1))), range(5))

    def test_branches(self):
        body = if_(
            lt(arg("n"), 3),
            assign("x", call("f", arg("n"))),
            assign("x", 0),
        )
        self._check(body, range(8))

    def test_nested_branches(self):
        body = if_(
            lt(arg("n"), 5),
            if_(lt(arg("n"), 2), assign("x", call("f", arg("n"))), assign("x", 1)),
            assign("x", call("g", arg("n"))),
        )
        self._check(body, range(10))

    def test_bounded_loops(self):
        body = block(
            assign("i", 0),
            while_(
                lt(var("i"), 5),
                block(
                    if_(lt(arg("n"), var("i")), assign("x", call("f", arg("n"))), assign("x", 0)),
                    assign("i", add(var("i"), 1)),
                ),
            ),
        )
        self._check(body, range(8))

    def test_a_loop_on_an_argument_has_no_bound(self):
        body = block(
            assign("i", 0),
            while_(lt(var("i"), arg("n")), assign("i", add(var("i"), 1))),
        )
        assert program_cost_upper(program("q", ("n",), body, notify("q", True)), FT) is None


class TestConeOfInfluence:
    """Pruned entailments must agree with unpruned ones on provable goals."""

    def test_preserves_direct_chains(self):
        solver = Solver()
        a, b, c, d = sym("a"), sym("b"), sym("c"), sym("d")
        hyp = fand(le_f(a, b), le_f(b, c), eq_f(d, num(5)))
        goal = le_f(a, c)
        pruned = cone_of_influence(hyp, goal)
        # The d-conjunct is independent of the goal and must be dropped.
        from repro.smt import free_syms

        assert "d" not in free_syms(pruned)
        assert solver.entails(pruned, goal)

    def test_keeps_transitive_links(self):
        a, b, c = sym("a"), sym("b"), sym("c")
        hyp = fand(eq_f(a, b), eq_f(b, c))
        goal = eq_f(a, c)
        pruned = cone_of_influence(hyp, goal)
        assert pruned == hyp  # both conjuncts reachable through b

    def test_keeps_ground_application_links(self):
        a, b = sym("a"), sym("b")
        hyp = fand(eq_f(a, app("f", num(1))), eq_f(b, app("f", num(1))))
        goal = eq_f(a, b)
        solver = Solver()
        assert solver.entails(cone_of_influence(hyp, goal), goal)

    def test_single_conjunct_untouched(self):
        a, b = sym("a"), sym("b")
        hyp = le_f(a, b)
        assert cone_of_influence(hyp, le_f(num(0), num(1))) == hyp

    @given(st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_pruning_never_proves_more(self, seed):
        """Anything provable from the cone is provable from the whole."""

        import random

        rng = random.Random(seed)
        syms = [sym(f"v{i}") for i in range(6)]
        conjuncts = []
        for _ in range(6):
            u, v = rng.sample(syms, 2)
            conjuncts.append(le_f(u, v) if rng.random() < 0.7 else eq_f(u, v))
        hyp = fand(*conjuncts)
        u, v = rng.sample(syms, 2)
        goal = le_f(u, v)
        solver = Solver()
        if solver.entails(cone_of_influence(hyp, goal), goal):
            assert solver.entails(hyp, goal)


class TestExprCostIsDynamicCost:
    @given(st.integers(-10, 10), st.integers(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_random_expression(self, a, b):
        e = gt(add(call("f", arg("n")), mul(arg("m"), 2)), sub(call("g", arg("n")), 1))
        interp = Interpreter(FT)
        _v, dynamic = interp.eval_expr(e, {"n": a, "m": b})
        assert expr_cost(e, FT) == dynamic
