"""Tests for loop-invariant inference (guess-and-check)."""

import pytest

from repro.analysis import SpEngine, loop_invariant, stable_conjuncts
from repro.lang import (
    FunctionTable,
    LibraryFunction,
    add,
    arg,
    assign,
    block,
    call,
    ge,
    gt,
    le,
    lt,
    sub,
    var,
)
from repro.smt import Num, Solver, TRUE_F, eq_f, fand, le_f, lt_f
from repro.smt.interface import arg_sym, var_sym
from repro.smt.terms import t_sub


@pytest.fixture
def ft():
    return FunctionTable([LibraryFunction("f", lambda x: x * 7 % 13, cost=30)])


@pytest.fixture
def engine(ft):
    return SpEngine(ft)


@pytest.fixture
def solver():
    return Solver()


from repro.lang import lift


def entry_context(engine, assigns):
    psi = TRUE_F
    for name, e in assigns:
        psi = engine.assign(psi, name, lift(e))
    return psi


class TestStableConjuncts:
    def test_keeps_untouched_facts(self):
        psi = fand(eq_f(var_sym("a"), Num(1)), eq_f(var_sym("b"), Num(2)))
        assert stable_conjuncts(psi, {"b"}) == eq_f(var_sym("a"), Num(1))

    def test_drops_everything_when_all_killed(self):
        psi = fand(eq_f(var_sym("a"), Num(1)))
        assert stable_conjuncts(psi, {"a"}) == TRUE_F

    def test_non_conjunction_input(self):
        psi = eq_f(var_sym("a"), Num(1))
        assert stable_conjuncts(psi, set()) == psi


class TestExample6:
    """The paper's Example 6: i := a; j := a - 1; parallel descent."""

    def test_finds_offset_invariant(self, engine, solver):
        psi = entry_context(
            engine,
            [("i", arg("alpha")), ("x", 0), ("j", sub(arg("alpha"), 1)), ("y", arg("alpha"))],
        )
        body = block(
            assign("i", sub(var("i"), 1)),
            assign("t1", call("f", var("i"))),
            assign("x", add(var("x"), var("t1"))),
            assign("t2", call("f", var("j"))),
            assign("y", add(var("y"), var("t2"))),
            assign("j", sub(var("j"), 1)),
        )
        conds = [gt(var("i"), 0), ge(var("j"), 0)]
        inv = loop_invariant(engine, solver, psi, conds, body)
        assert solver.entails(inv, eq_f(t_sub(var_sym("j"), var_sym("i")), Num(-1)))

    def test_loop2_exit_condition(self, engine, solver):
        """j = i - 1 proves both loops stop together."""

        psi = entry_context(engine, [("i", arg("alpha")), ("j", sub(arg("alpha"), 1))])
        body = block(
            assign("i", sub(var("i"), 1)),
            assign("j", sub(var("j"), 1)),
        )
        conds = [gt(var("i"), 0), ge(var("j"), 0)]
        inv = loop_invariant(engine, solver, psi, conds, body)
        from repro.smt import fnot, fiff

        e1 = lt_f(Num(0), var_sym("i"))
        e2 = le_f(Num(0), var_sym("j"))
        assert solver.entails(inv, fiff(e1, e2))


class TestGuardBounds:
    def test_shorter_loop_exit_keeps_longer_guard_true(self, engine, solver):
        """The Loop 3 premise: when ``i < 6`` fails, ``j < 10`` still holds."""

        psi = entry_context(engine, [("i", 0), ("j", 0)])
        body = block(assign("i", add(var("i"), 1)), assign("j", add(var("j"), 1)))
        conds = [lt(var("i"), 6), lt(var("j"), 10)]
        inv = loop_invariant(engine, solver, psi, conds, body)
        from repro.smt import fnot

        assert solver.entails(inv, le_f(var_sym("i"), Num(6)))
        exit_first = fand(inv, fnot(lt_f(var_sym("i"), Num(6))))
        assert solver.entails(exit_first, lt_f(var_sym("j"), Num(10)))


class TestParallelAccumulators:
    def test_equal_sums_invariant(self, engine, solver):
        psi = entry_context(
            engine, [("s1", 0), ("m1", 1), ("s2", 0), ("m2", 1)]
        )
        body = block(
            assign("s1", add(var("s1"), call("f", var("m1")))),
            assign("m1", add(var("m1"), 1)),
            assign("s2", add(var("s2"), call("f", var("m2")))),
            assign("m2", add(var("m2"), 1)),
        )
        conds = [le(var("m1"), 12), le(var("m2"), 12)]
        inv = loop_invariant(engine, solver, psi, conds, body)
        assert solver.entails(inv, eq_f(t_sub(var_sym("s1"), var_sym("s2")), Num(0)))
        assert solver.entails(inv, eq_f(t_sub(var_sym("m1"), var_sym("m2")), Num(0)))


class TestNoFalseInvariants:
    def test_unequal_counters_not_claimed(self, engine, solver):
        """i climbs by 1, j by 2 — no constant difference is invariant."""

        psi = entry_context(engine, [("i", 0), ("j", 0)])
        body = block(
            assign("i", add(var("i"), 1)),
            assign("j", add(var("j"), 2)),
        )
        conds = [lt(var("i"), 10), lt(var("j"), 10)]
        inv = loop_invariant(engine, solver, psi, conds, body)
        for c in range(-3, 4):
            cand = eq_f(t_sub(var_sym("i"), var_sym("j")), Num(c))
            assert not solver.entails(inv, cand)

    def test_invariant_is_inductive_not_just_initial(self, engine, solver):
        """x = y holds at entry but is broken by the body — must not be kept."""

        psi = entry_context(engine, [("x", 5), ("y", 5)])
        body = block(assign("x", add(var("x"), 1)))
        conds = [lt(var("x"), 10), lt(var("y"), 10)]
        inv = loop_invariant(engine, solver, psi, conds, body)
        cand = eq_f(t_sub(var_sym("x"), var_sym("y")), Num(0))
        assert not solver.entails(inv, cand)

    def test_call_result_not_related(self, engine, solver):
        """y is overwritten by a library call — no difference to x is invariant."""

        psi = entry_context(engine, [("x", 0), ("y", 0)])
        body = block(assign("x", add(var("x"), 1)), assign("y", call("f", var("y"))))
        conds = [lt(var("x"), 10), lt(var("y"), 10)]
        inv = loop_invariant(engine, solver, psi, conds, body)
        for c in range(-2, 3):
            assert not solver.entails(inv, eq_f(t_sub(var_sym("x"), var_sym("y")), Num(c)))

    def test_stable_facts_survive(self, engine, solver):
        psi = entry_context(engine, [("k", 42), ("i", 0)])
        body = block(assign("i", add(var("i"), 1)))
        conds = [lt(var("i"), 5)]
        inv = loop_invariant(engine, solver, psi, conds, body)
        assert solver.entails(inv, eq_f(var_sym("k"), Num(42)))
