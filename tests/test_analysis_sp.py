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


class TestAssign:
    def test_simple_equality_recorded(self, engine, solver):
        psi = engine.assign(TRUE_F, "x", add(arg("a"), 1))
        assert solver.entails(psi, eq_f(var_sym("x"), Sym("a!a"))) is False
        from repro.smt.terms import t_add
        assert solver.entails(psi, eq_f(var_sym("x"), t_add(Sym("a!a"), Num(1))))

    def test_old_value_renamed(self, engine, solver):
        psi = engine.assign(TRUE_F, "x", add(arg("a"), 0))
        psi = engine.assign(psi, "x", add(var("x"), 1))
        # Now x = a + 1; the old x = a fact must not clash.
        from repro.smt.terms import t_add
        assert solver.entails(psi, eq_f(var_sym("x"), t_add(Sym("a!a"), Num(1))))

    def test_self_reference_uses_old_value(self, engine, solver):
        psi = fand(eq_f(var_sym("x"), Num(5)))
        psi = engine.assign(psi, "x", mul(var("x"), 2))
        assert solver.entails(psi, eq_f(var_sym("x"), Num(10)))

    def test_call_produces_uninterpreted_equality(self, engine, solver):
        psi = engine.assign(TRUE_F, "y", call("f", arg("a")))
        assert solver.entails(psi, eq_f(var_sym("y"), App("f", (Sym("a!a"),))))

    def test_boolean_assignment_iff(self, engine, solver):
        psi = engine.assign(TRUE_F, "b", lt(arg("a"), 5))
        # b = 1 <-> a < 5 ; so b = 1 and a >= 5 is inconsistent.
        bad = fand(psi, eq_f(var_sym("b"), Num(1)), le_f(Num(5), Sym("a!a")))
        assert solver.is_sat(bad) == "unsat"


class TestControlFlow:
    def test_if_disjunction(self, engine, solver):
        s = if_(lt(arg("a"), 0), assign("x", 0), assign("x", 1))
        psi = engine.post(TRUE_F, s)
        # x is 0 or 1 in every post-state.
        assert solver.entails(psi, fand(le_f(Num(0), var_sym("x")), le_f(var_sym("x"), Num(1))))

    def test_while_negated_condition(self, engine, solver):
        s = while_(lt(var("i"), 10), assign("i", add(var("i"), 1)))
        psi = engine.post(eq_f(var_sym("i"), Num(0)), s)
        assert solver.entails(psi, le_f(Num(10), var_sym("i")))

    def test_while_havocs_body_vars(self, engine, solver):
        s = while_(lt(var("i"), 10), assign("i", add(var("i"), 1)))
        psi = engine.post(eq_f(var_sym("i"), Num(0)), s)
        # The entry fact i = 0 must be gone.
        assert not solver.entails(psi, eq_f(var_sym("i"), Num(0)))

    def test_notify_is_identity(self, engine, solver):
        from repro.lang import notify

        psi = eq_f(var_sym("x"), Num(3))
        assert engine.post(psi, notify("q", lt(var("x"), 5))) == psi

    def test_unencodable_assign_havocs(self, engine, solver):
        # A call with a boolean argument is outside the fragment.
        from repro.lang.ast import Call
        from repro.lang import lt as lt_ir

        weird = Call("f", (lt_ir(arg("a"), 1),))
        psi = eq_f(var_sym("x"), Num(3))
        post = engine.assign(psi, "x", weird)
        assert not solver.entails(post, eq_f(var_sym("x"), Num(3)))


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
    psi = engine.post(TRUE_F, prog_body)

    env = {f"v!{k}": v for k, v in result.env.items() if k != "a"}
    env["a!a"] = a0
    # Fresh (renamed) symbols are havocked — _holds treats them as free.
    assert _holds(psi, env, {f.name: f for f in ft})


# -- complexity: extending Ψ costs what the statement touches -------------------


class TestCostIsWhatTheStatementTouches:
    """Counted, not timed: canonicalising calls must not grow with |Ψ|."""

    @staticmethod
    def context(n):
        """Two conjuncts on ``x`` and ``n`` conjuncts that do not mention it."""

        from repro.smt.terms import t_add

        untouched = [le_f(var_sym(f"y{i}"), Num(i)) for i in range(n)]
        on_x = [
            le_f(var_sym("x"), Num(5)),
            eq_f(var_sym("w"), t_add(var_sym("x"), Num(1))),
        ]
        return fand(*untouched[: n // 2], *on_x, *untouched[n // 2 :]), untouched

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
        psi, untouched = self.context(n)
        with monkeypatch.context() as patch:
            calls = self.count_canonicalisations(patch)
            post = step(psi)
        kept = {id(part) for part in post.args}
        assert all(id(part) in kept for part in untouched)
        return dict(calls)

    def test_assign(self, ft, monkeypatch):
        def step(psi):
            return SpEngine(ft).assign(psi, "x", add(var("x"), 1))

        small = self.measure(monkeypatch, 50, step)
        assert small["from_linear"] > 0
        assert self.measure(monkeypatch, 800, step) == small

    def test_havoc(self, ft, monkeypatch):
        def step(psi):
            return SpEngine(ft).havoc(psi, {"x"})

        small = self.measure(monkeypatch, 50, step)
        assert small["from_linear"] > 0
        assert self.measure(monkeypatch, 800, step) == small

    def test_loop_invariant_body_execution(self, ft, monkeypatch):
        """``post(pre, body)`` runs once per candidate over ``stable ∧ ...``:
        a large stable part must ride through it by identity."""

        from repro.analysis import loop_invariant

        body = block(assign("i", add(var("i"), 1)), assign("j", add(var("j"), 1)))
        conds = [lt(var("i"), 10), lt(var("j"), 11)]

        def run(n):
            engine = SpEngine(ft)
            untouched = [le_f(var_sym(f"y{k}"), Num(k)) for k in range(n)]
            psi = fand(*untouched, eq_f(var_sym("i"), Num(0)), eq_f(var_sym("j"), Num(1)))
            posts = []
            real_post = engine.post

            def post(pre, stmt):
                out = real_post(pre, stmt)
                posts.append(out)
                return out

            engine.post = post
            with monkeypatch.context() as patch:
                calls = self.count_canonicalisations(patch)
                inv = loop_invariant(engine, Solver(), psi, conds, body)
            assert posts, "no candidate reached the inductiveness check"
            for out in posts:
                kept = {id(part) for part in out.args}
                assert all(id(part) in kept for part in untouched)
            return dict(calls), inv

        small_calls, small_inv = run(50)
        large_calls, large_inv = run(800)
        assert large_calls == small_calls
        from repro.smt.terms import t_sub

        for inv in (small_inv, large_inv):
            assert Solver().entails(inv, eq_f(t_sub(var_sym("j"), var_sym("i")), Num(1)))
