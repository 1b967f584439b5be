"""Tests for strongest postconditions, including the soundness property:
if E |= Ψ and E,S ⇓ E', then E' |= sp(Ψ, S).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import SpEngine
from repro.lang import (
    FunctionTable,
    Interpreter,
    LibraryFunction,
    add,
    arg,
    assign,
    block,
    call,
    eq,
    ge,
    gt,
    if_,
    le,
    lt,
    mul,
    sub,
    var,
    while_,
)
from repro.smt import (
    Eq,
    FAnd,
    FNot,
    FOr,
    FFalse,
    FTrue,
    Le,
    Lin,
    Num,
    Solver,
    Sym,
    TRUE_F,
    eq_f,
    fand,
    le_f,
    lt_f,
)
from repro.smt.interface import arg_sym, var_sym
from repro.smt.terms import App, Term


@pytest.fixture
def ft():
    return FunctionTable([LibraryFunction("f", lambda x: x * x - 3, cost=25)])


@pytest.fixture
def engine(ft):
    return SpEngine(ft)


@pytest.fixture
def solver():
    return Solver()


def holds(solver, engine, psi, store, e):
    """``(psi, store) ⊨ e``: the goal is read through the store."""

    return solver.entails(psi, engine.encode_bool(e, store))


class TestAssign:
    def test_simple_equality_recorded(self, engine, solver):
        store = {}
        engine.assign(store, "x", add(arg("a"), 1))
        from repro.smt.terms import t_add

        assert store["x"] == t_add(Sym("a!a"), Num(1))
        assert not holds(solver, engine, TRUE_F, store, eq(var("x"), arg("a")))
        assert holds(solver, engine, TRUE_F, store, eq(var("x"), add(arg("a"), 1)))

    def test_old_value_renamed(self, engine, solver):
        store = {}
        engine.assign(store, "x", add(arg("a"), 0))
        engine.assign(store, "x", add(var("x"), 1))
        # x = a + 1: the new value is read through the old one.
        from repro.smt.terms import t_add

        assert store["x"] == t_add(Sym("a!a"), Num(1))

    def test_self_reference_uses_old_value(self, engine, solver):
        psi = eq_f(var_sym("x"), Num(5))  # about x's own (unbound) symbol
        store = {}
        engine.assign(store, "x", mul(var("x"), 2))
        assert holds(solver, engine, psi, store, eq(var("x"), 10))

    def test_call_produces_uninterpreted_equality(self, engine, solver):
        store = {}
        engine.assign(store, "y", call("f", arg("a")))
        assert store["y"] == App("f", (Sym("a!a"),))

    def test_boolean_assignment_binds_its_formula(self, engine, solver):
        store = {}
        engine.assign(store, "b", lt(arg("a"), 5))
        assert store["b"] == lt_f(Sym("a!a"), Num(5))
        # Reading b is reading its formula: one atom, no 0/1 integer.
        assert engine.encode_bool(var("b"), store) is store["b"]
        assert engine.encode_int(var("b"), store) is None


class TestControlFlow:
    def test_if_disjunction(self, engine, solver):
        s = if_(lt(arg("a"), 0), assign("x", 0), assign("x", 1))
        store = {}
        psi = engine.post(TRUE_F, store, s)
        # x is 0 or 1 in every post-state.
        assert holds(solver, engine, psi, store, le(0, var("x")))
        assert holds(solver, engine, psi, store, le(var("x"), 1))

    def test_if_arms_agreeing_bind_no_fresh_symbol(self, engine, solver):
        s = if_(lt(arg("a"), 0), assign("x", 7), block(assign("y", 1), assign("x", 7)))
        store = {}
        psi = engine.post(TRUE_F, store, s)
        assert store["x"] == Num(7)
        assert holds(solver, engine, psi, store, eq(var("x"), 7))

    def test_while_negated_condition(self, engine, solver):
        s = while_(lt(var("i"), 10), assign("i", add(var("i"), 1)))
        store = {"i": Num(0)}
        psi = engine.post(TRUE_F, store, s)
        assert holds(solver, engine, psi, store, le(10, var("i")))

    def test_while_havocs_body_vars(self, engine, solver):
        s = while_(lt(var("i"), 10), assign("i", add(var("i"), 1)))
        store = {"i": Num(0)}
        psi = engine.post(TRUE_F, store, s)
        # The entry fact i = 0 must be gone.
        assert not holds(solver, engine, psi, store, eq(var("i"), 0))

    def test_notify_is_identity(self, engine, solver):
        from repro.lang import notify

        psi, store = eq_f(var_sym("x"), Num(3)), {"x": Num(3)}
        assert engine.post(psi, store, notify("q", lt(var("x"), 5))) is psi
        assert store == {"x": Num(3)}

    def test_unencodable_assign_havocs(self, engine, solver):
        # A call with a boolean argument is outside the fragment.
        from repro.lang.ast import Call
        from repro.lang import lt as lt_ir

        weird = Call("f", (lt_ir(arg("a"), 1),))
        store = {"x": Num(3)}
        engine.assign(store, "x", weird)
        assert isinstance(store["x"], Sym) and store["x"] != var_sym("x")
        assert not holds(solver, engine, TRUE_F, store, eq(var("x"), 3))


# -- dynamic soundness property ------------------------------------------------


def _eval_term_concrete(t: Term, env, fns) -> int:
    if isinstance(t, Num):
        return t.value
    if isinstance(t, Sym):
        kind, name = t.name.split("!", 1)
        base = name.split("#", 1)[0]
        if t.name in env:
            return env[t.name]
        raise KeyError(t.name)
    if isinstance(t, App):
        args = [_eval_term_concrete(a, env, fns) for a in t.args]
        return fns[t.func].fn(*args)
    if isinstance(t, Lin):
        return t.const + sum(
            c * _eval_term_concrete(a, env, fns) for a, c in t.coeffs
        )
    raise AssertionError(t)


def _holds(f, env, fns) -> bool:
    if isinstance(f, FTrue):
        return True
    if isinstance(f, FFalse):
        return False
    if isinstance(f, FAnd):
        return all(_holds(g, env, fns) for g in f.args)
    if isinstance(f, FOr):
        return any(_holds(g, env, fns) for g in f.args)
    if isinstance(f, FNot):
        return not _holds(f.operand, env, fns)
    try:
        value = _eval_term_concrete(f.term, env, fns)
    except KeyError:
        return True  # havocked symbol: any value allowed; treat as satisfied
    if isinstance(f, Le):
        return value <= 0
    if isinstance(f, Eq):
        return value == 0
    raise AssertionError(f)


@given(st.integers(-5, 5), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_sp_soundness_on_loop_program(a0, n):
    """Run a program concretely; the final env must satisfy sp."""

    ft = FunctionTable([LibraryFunction("f", lambda x: 2 * x + 1, cost=10)])
    engine = SpEngine(ft)
    prog_body = block(
        assign("i", 0),
        assign("acc", arg("a")),
        while_(
            lt(var("i"), n),
            block(
                assign("acc", add(var("acc"), call("f", var("i")))),
                assign("i", add(var("i"), 1)),
            ),
        ),
        if_(gt(var("acc"), 0), assign("sign", 1), assign("sign", 0)),
    )
    interp = Interpreter(ft)
    from repro.lang import Program

    result = interp.run(Program("p", ("a",), prog_body), {"a": a0})
    store = {}
    psi = engine.post(TRUE_F, store, prog_body)
    # The formula the store stands for: pc and every local equal to its value.
    psi = fand(psi, *(eq_f(var_sym(n), value) for n, value in store.items()))

    env = {f"v!{k}": v for k, v in result.env.items() if k != "a"}
    env["a!a"] = a0
    # Fresh symbols are existential — _holds treats them as free.
    assert _holds(psi, env, {f.name: f for f in ft})


# -- complexity: extending Ψ costs what the statement touches -------------------


class TestCostIsWhatTheStatementTouches:
    """Counted, not timed: consuming a statement must not grow with |Ψ|."""

    @staticmethod
    def context(n):
        """A path condition of ``n`` conjuncts and a store of ``n`` locals,
        none of them about ``x``, and two facts on ``x``."""

        from repro.smt.terms import t_add

        psi = fand(*(le_f(var_sym(f"y{i}"), Num(i)) for i in range(n)))
        store = {f"z{i}": t_add(Sym("a!a"), Num(i)) for i in range(n)}
        store["x"] = Num(5)
        store["w"] = t_add(var_sym("u"), Num(1))
        return psi, store

    @staticmethod
    def count_canonicalisations(monkeypatch):
        from repro.smt import terms

        calls = {"le_f": 0, "eq_f": 0, "from_linear": 0}

        def counted(name):
            real = getattr(terms, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(terms, name, counted(name))
        return calls

    def measure(self, monkeypatch, n, step):
        psi, store = self.context(n)
        untouched = {k: v for k, v in store.items() if k != "x"}
        with monkeypatch.context() as patch:
            calls = self.count_canonicalisations(patch)
            post = step(psi, store)
        assert post is psi
        assert all(store[k] is v for k, v in untouched.items())
        return dict(calls)

    def test_assign(self, ft, monkeypatch):
        def step(psi, store):
            SpEngine(ft).assign(store, "x", add(var("x"), var("w")))
            return psi

        small = self.measure(monkeypatch, 50, step)
        assert small["from_linear"] > 0
        assert self.measure(monkeypatch, 800, step) == small

    def test_havoc(self, ft, monkeypatch):
        def step(psi, store):
            SpEngine(ft).havoc(store, {"x"})
            return psi

        small = self.measure(monkeypatch, 50, step)
        assert self.measure(monkeypatch, 800, step) == small

    def test_loop_invariant_body_execution(self, ft, monkeypatch):
        """``post(pre, store, body)`` runs once per Houdini round over
        ``pc ∧ ...``: a large path condition must ride through by identity."""

        from repro.analysis import loop_invariant

        body = block(assign("i", add(var("i"), 1)), assign("j", add(var("j"), 1)))
        conds = [lt(var("i"), 10), lt(var("j"), 11)]

        def run(n):
            engine = SpEngine(ft)
            untouched = [le_f(var_sym(f"y{k}"), Num(k)) for k in range(n)]
            psi = fand(*untouched)
            store = {"i": Num(0), "j": Num(1)}
            posts = []
            real_post = engine.post

            def post(pre, at, stmt):
                out = real_post(pre, at, stmt)
                posts.append(out)
                return out

            engine.post = post
            with monkeypatch.context() as patch:
                calls = self.count_canonicalisations(patch)
                inv = loop_invariant(engine, Solver(), psi, conds, body, store)
            assert posts, "no candidate reached the inductiveness check"
            for out in posts:
                kept = {id(part) for part in out.args}
                assert all(id(part) in kept for part in untouched)
            return dict(calls), inv, store

        small_calls, small_inv, small_store = run(50)
        large_calls, large_inv, large_store = run(800)
        assert large_calls == small_calls
        from repro.smt.terms import t_sub

        for inv, store in ((small_inv, small_store), (large_inv, large_store)):
            assert Solver().entails(inv, eq_f(t_sub(store["j"], store["i"]), Num(1)))
