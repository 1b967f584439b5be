"""Tests for cross-simplification (Figure 3 judgments) and folding."""

import pytest

from repro.analysis import SpEngine
from repro.consolidation import Context, fold_expr, ir_from_linear, ir_linear
from repro.lang import (
    FALSE,
    FunctionTable,
    LibraryFunction,
    TRUE,
    add,
    and_,
    arg,
    call,
    eq,
    ge,
    gt,
    le,
    lt,
    mul,
    ne,
    not_,
    or_,
    sub,
    var,
)
from repro.lang.ast import IntConst, Var
from repro.smt import Le, Solver, TRUE_F


@pytest.fixture
def ft():
    return FunctionTable(
        [
            LibraryFunction("f", lambda x: x + 1, cost=50),
            LibraryFunction("g", lambda x: x * 2, cost=50),
        ]
    )


@pytest.fixture
def ctx(ft):
    return Context(engine=SpEngine(ft), solver=Solver())


class TestFold:
    def test_and_true(self):
        assert fold_expr(and_(TRUE, lt(var("x"), 1))) == lt(var("x"), 1)

    def test_and_false(self):
        assert fold_expr(and_(lt(var("x"), 1), FALSE)) == FALSE

    def test_or_true(self):
        assert fold_expr(or_(TRUE, lt(var("x"), 1))) == TRUE

    def test_or_false(self):
        assert fold_expr(or_(FALSE, lt(var("x"), 1))) == lt(var("x"), 1)

    def test_not_constants(self):
        assert fold_expr(not_(TRUE)) == FALSE
        assert fold_expr(not_(not_(lt(var("x"), 1)))) == lt(var("x"), 1)

    def test_arith_constants(self):
        assert fold_expr(add(2, 3)) == IntConst(5)
        assert fold_expr(mul(var("x"), 0)) == IntConst(0)
        assert fold_expr(add(var("x"), 0)) == var("x")
        assert fold_expr(mul(1, var("x"))) == var("x")

    def test_cmp_constants(self):
        assert fold_expr(lt(2, 3)) == TRUE
        assert fold_expr(eq(2, 3)) == FALSE
        assert fold_expr(le(var("x"), var("x"))) == TRUE

    def test_string_equality(self):
        assert fold_expr(eq("a", "a")) == TRUE
        assert fold_expr(eq("a", "b")) == FALSE


class TestIrLinear:
    def test_roundtrip(self):
        e = add(sub(mul(3, var("x")), var("y")), 7)
        decomposition = ir_linear(e)
        assert decomposition is not None
        const, coeffs = decomposition
        assert const == 7
        assert coeffs == {var("x"): 3, var("y"): -1}
        rebuilt = ir_from_linear(const, coeffs)
        assert ir_linear(rebuilt) == (const, coeffs)

    def test_calls_are_atoms(self):
        e = sub(call("f", arg("a")), 1)
        const, coeffs = ir_linear(e)
        assert const == -1
        assert coeffs == {call("f", arg("a")): 1}

    def test_nonlinear_rejected(self):
        assert ir_linear(mul(var("x"), var("y"))) is None

    def test_cancellation(self):
        e = sub(add(var("x"), var("y")), var("x"))
        assert ir_linear(e) == (0, {var("y"): 1})


class TestIntSimplification:
    def test_memoized_call_rewrites_to_var(self, ctx):
        ctx.record_assign("x", call("f", arg("a")))
        assert ctx.simplify_int(call("f", arg("a"))) == var("x")

    def test_linear_offset_rewrite(self, ctx):
        """The paper's Figure 4: x = f(a)+1 makes f(a)-1 rewrite to x-2."""

        ctx.record_assign("x", add(call("f", arg("a")), 1))
        result = ctx.simplify_int(sub(call("f", arg("a")), 1))
        assert ir_linear(result) == (-2, {var("x"): 1})

    def test_reassignment_invalidates(self, ctx):
        ctx.record_assign("x", call("f", arg("a")))
        ctx.record_assign("x", IntConst(0))
        result = ctx.simplify_int(call("f", arg("a")))
        assert result == call("f", arg("a"))

    def test_different_call_not_rewritten(self, ctx):
        ctx.record_assign("x", call("f", arg("a")))
        assert ctx.simplify_int(call("g", arg("a"))) == call("g", arg("a"))

    def test_semantically_equal_args_shared(self, ctx):
        """f(i) cached; f(j) rewrites when the context proves j = i."""

        ctx.record_assign("i", arg("a"))
        ctx.record_assign("t", call("f", var("i")))
        ctx.record_assign("j", arg("a"))
        assert ctx.simplify_int(call("f", var("j"))) == var("t")

    def test_constant_propagation_through_var(self, ctx):
        ctx.record_assign("k", IntConst(5))
        result = ctx.simplify_int(add(var("k"), 1))
        assert result == IntConst(6)

    def test_no_rewrite_without_smt(self, ft):
        ctx = Context(engine=SpEngine(ft), solver=Solver(), use_smt=False)
        ctx.record_assign("i", arg("a"))
        ctx.record_assign("t", call("f", var("i")))
        ctx.record_assign("j", arg("a"))
        # Syntactic-only mode still handles the identical call...
        assert ctx.simplify_int(call("f", var("i"))) == var("t")
        # ...but not the semantic one.
        assert ctx.simplify_int(call("f", var("j"))) == call("f", var("j"))


class TestBoolSimplification:
    def test_bool1_entailed_true(self, ctx):
        ctx.observe(lt(arg("a"), 5))
        assert ctx.simplify_bool(lt(arg("a"), 10)) == TRUE

    def test_bool2_entailed_false(self, ctx):
        ctx.observe(lt(arg("a"), 5))
        assert ctx.simplify_bool(ge(arg("a"), 10)) == FALSE

    def test_bool3_operand_simplification(self, ctx):
        ctx.record_assign("x", call("f", arg("a")))
        result = ctx.simplify_bool(lt(call("f", arg("a")), 10))
        assert result == lt(var("x"), 10)

    def test_bool4_connective_folding(self, ctx):
        ctx.observe(lt(arg("a"), 5))
        result = ctx.simplify_bool(and_(lt(arg("a"), 10), lt(arg("b"), 3)))
        assert result == lt(arg("b"), 3)

    def test_bool5_negation(self, ctx):
        ctx.observe(lt(arg("a"), 5))
        assert ctx.simplify_bool(not_(lt(arg("a"), 10))) == FALSE

    def test_paper_example_3(self, ctx):
        """Ψ: a1 > 0, x = f(a2), y = a1 simplifies (y>=0 ∧ f(a2)!=0) to x!=0."""

        ctx.observe(gt(arg("a1"), 0))
        ctx.record_assign("x", call("f", arg("a2")))
        ctx.record_assign("y", arg("a1"))
        result = ctx.simplify_bool(and_(ge(var("y"), 0), ne(call("f", arg("a2")), 0)))
        assert result == ne(var("x"), 0)

    def test_boolean_memoisation(self, ctx):
        ctx.record_assign("b", lt(arg("a"), 5))
        assert ctx.simplify_bool(lt(arg("a"), 5)) == var("b")

    def test_undecided_left_alone(self, ctx):
        e = lt(arg("a"), 10)
        assert ctx.simplify_bool(e) == e


class TestCostGuarantee:
    def test_never_more_expensive(self, ctx):
        """Every simplification must respect cost(e') <= cost(e)."""

        ctx.record_assign("x", add(call("f", arg("a")), 1))
        ctx.observe(lt(arg("a"), 5))
        exprs = [
            sub(call("f", arg("a")), 1),
            and_(lt(arg("a"), 10), lt(call("f", arg("a")), 3)),
            mul(call("g", arg("a")), 1),
            not_(ge(arg("a"), 10)),
        ]
        for e in exprs:
            simplified = ctx.simplify_for_sort(e)
            assert ctx.cost(simplified) <= ctx.cost(e)


class TestStore:
    """Ψ is a store plus a path condition (``repro.analysis.sp``)."""

    def test_straight_line_assigns_bind_the_store(self, ctx):
        ctx.record_assign("x", call("f", arg("a")))
        ctx.record_assign("y", add(var("x"), 1))
        assert ctx.psi is TRUE_F
        assert set(ctx.store) == {"x", "y"}
        # y's value is read through x's: the equality needs no solver.
        assert ctx.provably_equal(var("y"), add(call("f", arg("a")), 1))
        assert ctx.stats.smt_queries == 0 and ctx.stats.precheck_skips == 1

    def test_havoc_of_integer_locals_keeps_psi(self, ctx):
        ctx.observe(lt(arg("a"), 5))
        ctx.record_assign("x", arg("a"))
        ctx.record_assign("y", add(arg("a"), 1))
        psi, before = ctx.psi, dict(ctx.store)
        ctx.forget({"x", "y"})
        assert ctx.psi is psi
        assert all(ctx.store[n] != before[n] for n in ("x", "y"))
        assert not ctx.entails_expr(lt(var("x"), 5))

    def test_boolean_local_is_one_atom(self, ctx):
        ctx.record_assign("b", gt(var("x"), 3))
        ctx.observe(var("b"))
        assert isinstance(ctx.psi, Le)
        assert ctx.entails_expr(gt(var("x"), 2))

    def test_goal_folding_to_a_constant_skips_the_solver(self, ctx):
        ctx.record_assign("k", IntConst(5))
        assert ctx.entails_expr(lt(var("k"), 7))
        assert ctx.entails_expr(lt(var("k"), 3), negate=True)
        assert ctx.stats.precheck_skips == 2 and ctx.stats.smt_queries == 0

    def test_stock_bc_ends_without_unknowns(self):
        """Stock BC at n = 50 once exhausted the solver's lemma budget on 8
        checks; read through the store, no check does."""

        from repro.consolidation import consolidate_all
        from repro.datasets import generate_stocks
        from repro.queries import DOMAIN_QUERIES

        # The sizes figure9.make_datasets(scale=0.05) gives Stock.
        dataset = generate_stocks(companies=20, total_daily_rows=18871)
        programs = DOMAIN_QUERIES["stock"].make_batch(dataset, "BC", n=50, seed=1)
        report = consolidate_all(programs, dataset.functions)
        assert report.solver_stats["unknowns"] == 0

    def test_memo_keys_on_the_bindings_read(self, ctx):
        """A goal re-asked after unrelated assignments is a memo hit; one
        whose local was reassigned is asked again."""

        ctx.record_assign("x", call("f", arg("a")))
        goal = lt(var("x"), 10)
        ctx.entails_expr(goal)
        ctx.record_assign("y", call("g", arg("a")))
        ctx.entails_expr(goal)
        assert ctx.stats.memo_hits == 1
        ctx.record_assign("x", call("g", arg("a")))
        ctx.entails_expr(goal)
        assert ctx.stats.memo_hits == 1 and ctx.stats.smt_queries == 2
