"""Unit tests for the abstract-interpretation framework and its checkers.

Covers the value lattices (`values`), the structured fixpoint engine
(`framework` + `domains`), the statement facts beside it
(`notify_counts`, `walk_assigned`), the trip-count/cost bounder
(`costbound`) and the UDF linter (`lint`).  The translation validator has
its own module (``test_static_validate``).
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.static import (
    Interval,
    IntervalConstDomain,
    StaticEnv,
    analyze_program,
    constant_step,
    lint_program,
    program_cost_upper,
    trip_count_bound,
    widening_thresholds,
)
from repro.lang import (
    FunctionTable,
    LibraryFunction,
    add,
    arg,
    assign,
    block,
    call,
    if_,
    le,
    lift,
    lt,
    notify,
    program,
    sub,
    var,
    while_,
)
from repro.api import consolidate
from repro.lang.ast import Arg, Cmp, Var, While, seq
from repro.lang.cost import DEFAULT_COST_MODEL
from repro.lang.interp import Interpreter
from repro.lang.visitors import SATURATE_AT, notify_counts, walk_assigned
from repro.testing import reference
from repro.testing.generator import SCHEMAS, drop_arm_assignment, generate_case, schema_dataset

FT = FunctionTable([LibraryFunction("f", lambda x: x + 1, cost=40)])


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def test_interval_lattice_basics():
    a = Interval(0, 5)
    b = Interval(3, 9)
    assert a.join(b) == Interval(0, 9)
    assert a.meet(b) == Interval(3, 5)
    assert Interval(0, 2).meet(Interval(5, 7)).is_empty
    assert Interval(2, 2).is_const
    assert a.leq(Interval(None, None))
    assert not Interval(None, None).leq(a)


def test_interval_arith_and_comparisons():
    assert Interval(1, 2).add(Interval(10, 20)) == Interval(11, 22)
    assert Interval(1, 2).sub(Interval(0, 1)) == Interval(0, 2)
    assert Interval(-2, 3).mul(Interval(4, 5)) == Interval(-10, 15)
    assert Interval(0, 4).always_lt(Interval(5, 9))
    assert Interval(0, 5).always_le(Interval(5, 9))
    assert not Interval(0, 5).always_lt(Interval(5, 9))
    assert Interval(0, 1).never_overlaps(Interval(2, 3))


def test_interval_widen_respects_thresholds():
    # An unstable upper bound jumps to the nearest enclosing threshold.
    w = Interval(0, 3).widen(Interval(0, 4), thresholds=(13,))
    assert w == Interval(0, 13)
    # ... and to +inf when no threshold encloses it.
    w2 = Interval(0, 3).widen(Interval(0, 4), thresholds=())
    assert w2 == Interval(0, None)


# ---------------------------------------------------------------------------
# StaticEnv transfer functions
# ---------------------------------------------------------------------------


def test_env_assign_and_eval():
    env = StaticEnv()
    env.assign("x", lift(4))
    env.assign("y", add(var("x"), lift(1)))
    assert env.eval_int(var("y")) == Interval(5, 5)
    assert env.eval_bool(lt(var("x"), var("y"))) is True
    assert env.eval_bool(lt(var("y"), var("x"))) is False
    assert env.eval_bool(lt(var("x"), arg("a"))) is None


def test_env_assume_refines_and_detects_dead_branches():
    env = StaticEnv()
    env.assume(le(arg("a"), lift(10)))
    assert env.eval_int(Arg("a")) == Interval(None, 10)
    env.assume(lt(lift(20), arg("a")))  # contradicts a <= 10
    assert env.unreachable


def test_env_havoc_forgets():
    env = StaticEnv()
    env.assign("x", lift(1))
    env.havoc(("x",))
    assert env.eval_int(Var("x")) == Interval(None, None)


def test_env_join_keeps_common_facts_only():
    a = StaticEnv()
    a.assign("x", lift(1))
    a.assign("y", lift(7))
    b = StaticEnv()
    b.assign("x", lift(3))
    j = a.join(b)
    assert j.eval_int(Var("x")) == Interval(1, 3)
    assert j.eval_int(Var("y")) == Interval(None, None)


# ---------------------------------------------------------------------------
# Framework, domain and statement facts
# ---------------------------------------------------------------------------


def test_interval_domain_bounds_a_counting_loop():
    p = program(
        "q",
        ("a",),
        block(
            assign("i", lift(0)),
            while_(le(var("i"), lift(12)), assign("i", add(var("i"), lift(1)))),
        ),
        notify("q", lt(var("i"), lift(99))),
    )
    out = analyze_program(IntervalConstDomain.for_program(p), p)
    # On exit the guard is false: i in [13, 13] thanks to threshold widening.
    assert out.eval_int(Var("i")) == Interval(13, 13)


def test_definite_assignment_joins_by_intersection():
    p = program(
        "q",
        ("a",),
        if_(lt(arg("a"), lift(0)), assign("x", lift(1)), assign("y", lift(2))),
        notify("q", lt(lift(0), lift(1))),
    )
    seen = []
    out = walk_assigned(p.body, lambda stmt, assigned: seen.append((stmt, assigned)))
    assert out == frozenset()  # neither x nor y assigned on *every* path
    # The notify after the If sees the intersection too; each arm sees its entry.
    assert [assigned for _stmt, assigned in seen] == [frozenset()] * 4


def test_notify_counts_count_and_saturate():
    p = program(
        "q",
        ("a",),
        block(
            assign("i", lift(0)),
            while_(
                lt(var("i"), lift(3)),
                block(notify("w", lt(var("i"), lift(9))), assign("i", add(var("i"), lift(1)))),
            ),
        ),
        notify("q", lt(lift(0), lift(1))),
    )
    counts = notify_counts(p.body)
    assert counts["q"] == (1, 1)  # exactly once
    assert counts["w"] == (0, SATURATE_AT)  # 0..2+ times: undecided
    assert "absent" not in counts  # never notified
    assert list(counts) == ["q", "w"]
    # A count past two stays two, whichever statement takes it there.
    again = notify("w", lt(lift(0), lift(1)))
    assert notify_counts(seq(p.body, again))["w"] == (1, SATURATE_AT)
    assert notify_counts(seq(again, again, again))["w"] == (SATURATE_AT, SATURATE_AT)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    schema=st.sampled_from(sorted(SCHEMAS)),
    size=st.integers(1, 3),
)
def test_statement_facts_equal_path_enumeration(seed, schema, size):
    """``notify_counts`` and ``walk_assigned`` against enumerating every path
    (loops run 0, 1 and 2 times) on fuzzed UDFs, their one-path-assignment
    mutants and their consolidation.  The references are exponential in
    the branches, so the batches stay small."""

    programs = generate_case(seed, schema, size)
    merged = consolidate(programs, schema_dataset(schema).functions).program
    mutants = [drop_arm_assignment(p, 0) for p in programs]
    for p in [*programs, *filter(None, mutants), merged]:
        body = pickle.loads(pickle.dumps(p.body))  # every slot empty
        counts = notify_counts(body)
        want = reference.notify_counts_full_walk(body)
        assert dict(counts) == want and list(counts) == list(want)
        seen = []
        walk_assigned(body, lambda stmt, assigned: seen.append((stmt, assigned)))
        assert seen == reference.must_assigned_full_walk(body)


# ---------------------------------------------------------------------------
# Cost bounds
# ---------------------------------------------------------------------------


def test_constant_step_detection():
    body = block(assign("x", lift(0)), assign("i", add(var("i"), lift(2))))
    assert constant_step(body, "i") == 2
    assert constant_step(body, "x") is None  # reset, not stepped
    two_paths = if_(
        lt(var("i"), lift(5)),
        assign("i", add(var("i"), lift(1))),
        assign("i", sub(var("i"), lift(1))),
    )
    assert constant_step(two_paths, "i") is None  # +1 and -1 disagree


def test_trip_count_bound_forward_and_none_for_unbounded():
    env = StaticEnv()
    env.assign("i", lift(0))
    loop = While(le(Var("i"), lift(11)), assign("i", add(var("i"), lift(1))))
    assert trip_count_bound(loop, env) == 12
    unbounded = While(le(Var("i"), arg("a")), assign("i", add(var("i"), lift(1))))
    assert trip_count_bound(unbounded, env) is None


def test_program_cost_upper_is_sound_and_loop_aware():
    p = program(
        "q",
        ("a",),
        block(
            assign("i", lift(0)),
            assign("s", lift(0)),
            while_(
                lt(var("i"), lift(5)),
                block(
                    assign("s", add(var("s"), call("f", var("i")))),
                    assign("i", add(var("i"), lift(1))),
                ),
            ),
        ),
        notify("q", lt(var("s"), lift(100))),
    )
    ub = program_cost_upper(p, FT)
    assert ub is not None
    actual = Interpreter(FT).run(p, {"a": 0}).cost
    assert actual <= ub


def test_program_cost_upper_unknown_for_argument_bounded_loop():
    p = program(
        "q",
        ("a",),
        block(
            assign("i", lift(0)),
            while_(lt(var("i"), arg("a")), assign("i", add(var("i"), lift(1)))),
        ),
        notify("q", lt(var("i"), lift(5))),
    )
    assert program_cost_upper(p, FT) is None


# ---------------------------------------------------------------------------
# Linter
# ---------------------------------------------------------------------------


def _rules(report):
    return {f.rule for f in report.findings}


def test_lint_clean_program_has_no_findings():
    p = program(
        "q",
        ("a",),
        assign("x", call("f", arg("a"))),
        notify("q", lt(var("x"), lift(3))),
    )
    report = lint_program(p, FT)
    assert not report.findings, report.findings


def test_lint_use_before_def():
    p = program("q", ("a",), notify("q", lt(var("never_set"), lift(0))))
    report = lint_program(p, FT)
    assert "use-before-def" in _rules(report)
    assert report.has_errors


def test_lint_dead_store():
    p = program(
        "q",
        ("a",),
        block(assign("x", lift(1)), assign("x", lift(2))),
        notify("q", lt(var("x"), lift(9))),
    )
    assert "dead-store" in _rules(lint_program(p, FT))


def test_lint_unreachable_branch():
    p = program(
        "q",
        ("a",),
        block(
            assign("x", lift(1)),
            if_(lt(var("x"), lift(0)), assign("y", lift(1)), assign("y", lift(2))),
        ),
        notify("q", lt(var("y"), lift(9))),
    )
    assert "unreachable-branch" in _rules(lint_program(p, FT))


def test_lint_duplicate_and_missing_notify():
    dup = program(
        "q",
        ("a",),
        block(notify("q", lt(lift(0), lift(1))), notify("q", lt(lift(0), lift(1)))),
    )
    report = lint_program(dup, FT)
    assert "duplicate-notify" in _rules(report)
    assert report.has_errors

    silent = program("q", ("a",), assign("x", lift(1)))
    assert "missing-notify" in _rules(lint_program(silent, FT))


def test_lint_non_bool_guard_and_unknown_function():
    p = program(
        "q",
        ("a",),
        if_(Cmp("<", var("x"), lift(0)), assign("x", lift(1)), assign("x", lift(2))),
        notify("q", lt(call("nope", arg("a")), lift(1))),
    )
    # Replace the If guard with an int expression via direct construction.
    from repro.lang.ast import If, Notify, Program, Seq

    bad_guard = Program(
        "q",
        ("a",),
        Seq(
            (
                If(add(arg("a"), lift(1)), assign("x", lift(1)), assign("x", lift(2))),
                Notify("q", lt(call("nope", arg("a")), lift(1))),
            )
        ),
    )
    rules = _rules(lint_program(bad_guard, FT))
    assert "non-bool-guard" in rules
    assert "unknown-function" in rules


def test_lint_five_domain_families_are_clean():
    """The generated evaluation queries must lint clean (no false alarms)."""

    from repro.experiments.figure9 import make_datasets
    from repro.queries import DOMAIN_QUERIES

    datasets = make_datasets(scale=0.01)
    for domain, module in DOMAIN_QUERIES.items():
        ds = datasets[domain]
        for family in module.FAMILY_NAMES:
            for p in module.make_batch(ds, family, n=3, seed=1):
                report = lint_program(p, ds.functions)
                assert not report.findings, (domain, family, report.findings)


class TestWideningConvergence:
    """Regression: threshold widening ascends one threshold per fixpoint
    iteration, so a constant-rich program (more thresholds than the
    iteration budget) used to make ``_loop_invariant`` raise "abstract
    fixpoint did not converge".  Found by differential fuzzing on merged
    batches (``repro fuzz``, seeds 10/12); fixed by the ``widen_top``
    cutoff that drops the thresholds after ``WIDEN_TOP_AFTER`` steps.
    """

    def constant_rich_loop(self, n_consts=40):
        stmts = [assign(f"c{i}", lift(7 + 3 * i)) for i in range(n_consts)]
        stmts.append(assign("v", lift(0)))
        stmts.append(while_(lt(var("v"), lift(1000)), assign("v", add(var("v"), lift(1)))))
        stmts.append(notify("q0", lt(var("v"), lift(2000))))
        return program("q0", ("row",), *stmts)

    def test_constant_rich_program_converges(self):
        p = self.constant_rich_loop()
        assert len(widening_thresholds(p)) > 64, "the trigger needs many thresholds"
        state = analyze_program(IntervalConstDomain.for_program(p), p)
        iv = state.ints.get(var("v"))
        # Sound after the loop: the exit refinement keeps the lower bound.
        assert iv is not None and iv.lo is not None and iv.lo >= 1000

    def test_divergence_without_the_cutoff(self):
        """Documents the bug: with widen_top disabled the fixpoint dies."""

        from repro.analysis.static import framework

        p = self.constant_rich_loop()
        domain = IntervalConstDomain.for_program(p)
        original = framework.WIDEN_TOP_AFTER
        framework.WIDEN_TOP_AFTER = framework.MAX_ITER  # never reached
        try:
            with pytest.raises(RuntimeError, match="did not converge"):
                analyze_program(domain, p)
        finally:
            framework.WIDEN_TOP_AFTER = original

    def test_bounded_loops_keep_their_precision(self):
        """The cutoff must not cost the month-loop its tight bound."""

        p = program(
            "q0",
            ("row",),
            assign("m", lift(1)),
            while_(le(var("m"), lift(12)), assign("m", add(var("m"), lift(1)))),
            notify("q0", lt(var("m"), lift(100))),
        )
        state = analyze_program(IntervalConstDomain.for_program(p), p)
        iv = state.ints.get(var("m"))
        assert iv is not None and iv.lo == 13 and iv.hi == 13
