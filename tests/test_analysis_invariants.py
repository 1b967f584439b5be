"""Tests for loop-invariant inference (guess-and-check)."""

import pytest

from repro.analysis import SpEngine, loop_invariant
from repro.lang import (
    FunctionTable,
    LibraryFunction,
    add,
    arg,
    assign,
    block,
    call,
    eq,
    ge,
    gt,
    le,
    lt,
    not_,
    sub,
    var,
)
from repro.smt import Solver, TRUE_F, fand


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
    """The state after straight-line ``assigns``: ``(pc, store)``."""

    store = {}
    for name, e in assigns:
        engine.assign(store, name, lift(e))
    return TRUE_F, store


def infer(engine, solver, assigns, conds, body):
    """The invariant and the loop-head store it speaks about."""

    psi, store = entry_context(engine, assigns)
    return loop_invariant(engine, solver, psi, conds, body, store), store


def holds(engine, solver, inv, store, e):
    return solver.entails(inv, engine.encode_bool(e, store))


class TestLoopHeadStore:
    def test_written_locals_get_fresh_symbols(self, engine, solver):
        psi, store = entry_context(engine, [("k", 42), ("i", 0)])
        entry = dict(store)
        loop_invariant(engine, solver, psi, [lt(var("i"), 5)], assign("i", add(var("i"), 1)), store)
        assert store["k"] is entry["k"]
        assert store["i"] != entry["i"]

    def test_entry_path_condition_is_kept_whole(self, engine, solver):
        """The path condition speaks about values: none of it is havocked."""

        psi, store = entry_context(engine, [("i", arg("n"))])
        psi = engine.assume(psi, lt(var("i"), 3), store)
        body = assign("i", add(var("i"), 1))
        inv = loop_invariant(engine, solver, psi, [lt(var("i"), 5)], body, store)
        assert solver.entails(inv, psi)

    def test_exit_store_is_read_for_preservation(self, engine, solver):
        """``x := x + 1`` breaks ``x = y``; the re-check must see that."""

        inv, store = infer(
            engine, solver, [("x", 0), ("y", 0)], [lt(var("x"), 9)], assign("x", add(var("x"), 1))
        )
        assert not holds(engine, solver, inv, store, eq(var("x"), var("y")))


class TestExample6:
    """The paper's Example 6: i := a; j := a - 1; parallel descent."""

    def test_finds_offset_invariant(self, engine, solver):
        psi, store = entry_context(
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
        inv = loop_invariant(engine, solver, psi, conds, body, store)
        assert holds(engine, solver, inv, store, eq(sub(var("j"), var("i")), -1))

    def test_loop2_exit_condition(self, engine, solver):
        """j = i - 1 proves both loops stop together."""

        psi, store = entry_context(engine, [("i", arg("alpha")), ("j", sub(arg("alpha"), 1))])
        body = block(
            assign("i", sub(var("i"), 1)),
            assign("j", sub(var("j"), 1)),
        )
        conds = [gt(var("i"), 0), ge(var("j"), 0)]
        inv = loop_invariant(engine, solver, psi, conds, body, store)
        from repro.smt import fiff

        e1, e2 = (engine.encode_bool(c, store) for c in conds)
        assert solver.entails(inv, fiff(e1, e2))


class TestGuardBounds:
    def test_shorter_loop_exit_keeps_longer_guard_true(self, engine, solver):
        """The Loop 3 premise: when ``i < 6`` fails, ``j < 10`` still holds."""

        psi, store = entry_context(engine, [("i", 0), ("j", 0)])
        body = block(assign("i", add(var("i"), 1)), assign("j", add(var("j"), 1)))
        conds = [lt(var("i"), 6), lt(var("j"), 10)]
        inv = loop_invariant(engine, solver, psi, conds, body, store)
        assert holds(engine, solver, inv, store, le(var("i"), 6))
        exit_first = fand(inv, engine.encode_bool(not_(lt(var("i"), 6)), store))
        assert holds(engine, solver, exit_first, store, lt(var("j"), 10))


class TestParallelAccumulators:
    def test_equal_sums_invariant(self, engine, solver):
        psi, store = entry_context(
            engine, [("s1", 0), ("m1", 1), ("s2", 0), ("m2", 1)]
        )
        body = block(
            assign("s1", add(var("s1"), call("f", var("m1")))),
            assign("m1", add(var("m1"), 1)),
            assign("s2", add(var("s2"), call("f", var("m2")))),
            assign("m2", add(var("m2"), 1)),
        )
        conds = [le(var("m1"), 12), le(var("m2"), 12)]
        inv = loop_invariant(engine, solver, psi, conds, body, store)
        assert holds(engine, solver, inv, store, eq(var("s1"), var("s2")))
        assert holds(engine, solver, inv, store, eq(var("m1"), var("m2")))


class TestNoFalseInvariants:
    def test_unequal_counters_not_claimed(self, engine, solver):
        """i climbs by 1, j by 2 — no constant difference is invariant."""

        psi, store = entry_context(engine, [("i", 0), ("j", 0)])
        body = block(
            assign("i", add(var("i"), 1)),
            assign("j", add(var("j"), 2)),
        )
        conds = [lt(var("i"), 10), lt(var("j"), 10)]
        inv = loop_invariant(engine, solver, psi, conds, body, store)
        for c in range(-3, 4):
            assert not holds(engine, solver, inv, store, eq(sub(var("i"), var("j")), c))

    def test_invariant_is_inductive_not_just_initial(self, engine, solver):
        """x = y holds at entry but is broken by the body — must not be kept."""

        psi, store = entry_context(engine, [("x", 5), ("y", 5)])
        body = block(assign("x", add(var("x"), 1)))
        conds = [lt(var("x"), 10), lt(var("y"), 10)]
        inv = loop_invariant(engine, solver, psi, conds, body, store)
        assert not holds(engine, solver, inv, store, eq(var("x"), var("y")))

    def test_call_result_not_related(self, engine, solver):
        """y is overwritten by a library call — no difference to x is invariant."""

        psi, store = entry_context(engine, [("x", 0), ("y", 0)])
        body = block(assign("x", add(var("x"), 1)), assign("y", call("f", var("y"))))
        conds = [lt(var("x"), 10), lt(var("y"), 10)]
        inv = loop_invariant(engine, solver, psi, conds, body, store)
        for c in range(-2, 3):
            assert not holds(engine, solver, inv, store, eq(sub(var("x"), var("y")), c))

    def test_stable_facts_survive(self, engine, solver):
        psi, store = entry_context(engine, [("k", 42), ("i", 0)])
        body = block(assign("i", add(var("i"), 1)))
        conds = [lt(var("i"), 5)]
        inv = loop_invariant(engine, solver, psi, conds, body, store)
        assert holds(engine, solver, inv, store, eq(var("k"), 42))
