"""The assertion stack under the DPLL(T) loop (DESIGN.md §14).

* A :class:`CongruenceClosure` that was pushed, extended and popped is the
  closure a from-scratch build of the surviving operations gives: same node
  ids, same classes, same ``root_id``s, same numerals, same conflict flag.
* A :class:`TheoryStack` that was popped back and extended answers a check
  with the status *and the witness* of a fresh one — on every theory check
  the five golden families cause, while every searched verdict agrees with
  :func:`repro.testing.reference.reference_check`.
* Two threads sharing one :class:`Solver` get the verdicts a serial run gets.
"""

import importlib.util
import sys
import threading
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ExecutionConfig
from repro.consolidation import consolidate_all
from repro.smt import combine
from repro.smt.combine import TheoryLiteral, TheoryStack
from repro.smt.euf import CongruenceClosure
from repro.smt.solver import Solver
from repro.smt.terms import app, eq_f, fand, fnot, le_f, num, sym, t_add, t_scale, t_sub
from repro.testing.reference import reference_check

_SYMS = [sym(name) for name in "abcd"]


@st.composite
def terms(draw, depth=2):
    choice = draw(st.integers(0, 5 if depth else 2))
    if choice <= 1:
        return draw(st.sampled_from(_SYMS))
    if choice == 2:
        return num(draw(st.integers(0, 2)))
    if choice == 3:
        return app(draw(st.sampled_from(["f", "g"])), draw(terms(depth - 1)))
    if choice == 4:
        return app("h", draw(terms(depth - 1)), draw(terms(depth - 1)))
    scaled = t_scale(draw(st.integers(1, 2)), draw(terms(depth - 1)))
    return t_add(scaled, num(draw(st.integers(0, 1))))


_OPERATIONS = st.one_of(
    st.just(("push",)),
    st.just(("pop",)),
    st.tuples(st.just("add"), terms()),
    st.tuples(st.just("equal"), terms(), terms()),
)


def _apply(cc, op):
    if op[0] == "add":
        cc.add_term(op[1])
    else:
        cc.assert_equal(op[1], op[2])


def _state(cc):
    """Everything a caller can observe of a closure, by node id."""

    nodes = cc.terms()
    return (
        list(nodes),
        [cc.root_id(t) for t in nodes],
        [cc.constant_of(t) for t in nodes],
        cc.has_constant_conflict(),
        sorted(sorted(map(repr, group)) for group in cc.equivalence_classes()),
    )


@given(st.lists(_OPERATIONS, max_size=40))
@settings(max_examples=300, deadline=None)
def test_a_popped_and_extended_closure_is_the_one_built_from_scratch(operations):
    cc = CongruenceClosure()
    levels = [[]]  # the operations that survive, per open level
    for op in operations:
        if op[0] == "push":
            cc.push()
            levels.append([])
        elif op[0] == "pop":
            if len(levels) == 1:
                continue
            cc.pop()
            levels.pop()
        else:
            _apply(cc, op)
            levels[-1].append(op)
        scratch = CongruenceClosure()
        for level in levels:
            for survivor in level:
                _apply(scratch, survivor)
        assert _state(cc) == _state(scratch)
        for column in ("_ids", "_parent", "_rank", "_members", "_uses", "_sig"):
            assert getattr(cc, column) == getattr(scratch, column), column
    while len(levels) > 1:
        cc.pop()
        levels.pop()
    assert not cc._marks
    if not levels[0]:
        assert not cc._trail and not cc.terms() and not cc._ids


def test_pop_takes_back_nodes_numerals_and_the_conflict_flag():
    a, b = _SYMS[:2]
    cc = CongruenceClosure()
    cc.assert_equal(app("f", a), num(1))
    cc.push()
    cc.assert_equal(app("f", b), num(2))
    cc.push()
    cc.assert_equal(a, b)  # f(a) = f(b) by congruence: 1 meets 2
    assert cc.has_constant_conflict() and cc.constant_of(b) is None
    cc.pop()
    assert not cc.has_constant_conflict()
    assert not cc.are_equal(a, b) and cc.constant_of(app("f", b)) == 2
    registered = len(cc.terms())
    cc.push()
    assert cc.constant_of(app("g", a, b)) is None  # a query registers its term ...
    assert len(cc.terms()) == registered + 1
    cc.pop()
    assert len(cc.terms()) == registered  # ... and the pop forgets it
    cc.pop()
    assert [repr(t) for t in cc.terms()] == [repr(t) for t in (a, app("f", a), num(1))]
    with pytest.raises(IndexError):
        cc.pop()


def test_the_stack_api_levels_literals_and_counts():
    a, b, c = _SYMS[:3]
    first = TheoryLiteral.from_formula(eq_f(app("f", a), b), True)
    second = TheoryLiteral.from_formula(le_f(b, num(3)), True)
    third = TheoryLiteral.from_formula(eq_f(a, c), True)
    clash = TheoryLiteral.from_formula(le_f(num(5), app("f", c)), True)
    stack = TheoryStack()
    stack.assert_exactly([first, second])
    assert stack.check().status == "sat"
    stack.push()
    stack.assert_literal(third)
    stack.assert_literal(clash)  # f(c) = f(a) = b <= 3, and 5 <= f(c)
    assert stack.check().status == "unsat"
    stack.pop()  # one level, two literals
    assert stack.literals == [first, second] and stack.check().status == "sat"
    assert (stack.asserted, stack.reused) == (4, 0)
    stack.assert_exactly([first, second, clash])
    assert (stack.asserted, stack.reused) == (5, 2)
    assert stack.check().status == "sat"  # without a = c nothing ties f(c) to b
    stack.assert_exactly([first, third, clash])  # keeps one, pops two, pushes two
    assert (stack.asserted, stack.reused) == (7, 3)
    assert stack.literals == [first, third, clash]
    # Equal literals that are not the same objects are re-asserted, not trusted.
    stack.assert_exactly([TheoryLiteral("eq", first.term), third])
    assert (stack.asserted, stack.reused) == (9, 3)


# -- differential on the golden families ------------------------------------------

_gen_spec = importlib.util.spec_from_file_location(
    "gen_golden_plans", Path(__file__).resolve().parent.parent / "tools" / "gen_golden_plans.py"
)
gen = importlib.util.module_from_spec(_gen_spec)
_gen_spec.loader.exec_module(gen)


@pytest.fixture(scope="module")
def golden_batches():
    return gen.batches()


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = OrderedDict()
    monkeypatch.setattr(combine, "_CHECK_CACHE", memo)
    return memo


@pytest.mark.parametrize("domain", sorted(gen.MIXED_FAMILY))
def test_a_reused_stack_answers_as_a_fresh_one_on_a_golden_family(
    golden_batches, domain, monkeypatch, fresh_memo
):
    programs, functions = golden_batches[domain]
    real_check, real_search = TheoryStack.check, Solver._check
    compared = []
    searched = {}

    def check(stack):
        got = real_check(stack)
        fresh = TheoryStack()
        fresh.assert_exactly(list(stack.literals))
        assert stack.cc.terms() == fresh.cc.terms(), "the node table is not reproduced"
        assert [stack.cc.root_id(t) for t in stack.cc.terms()] == [
            fresh.cc.root_id(t) for t in fresh.cc.terms()
        ]
        want = real_check(fresh)
        assert (got.status, got.witness) == (want.status, want.witness)
        compared.append(stack.reused)
        return got

    def search(self, f):
        status, witness = real_search(self, f)
        searched[f] = status
        return status, witness

    monkeypatch.setattr(TheoryStack, "check", check)
    monkeypatch.setattr(Solver, "_check", search)
    report = consolidate_all(list(programs), functions, config=ExecutionConfig(workers=1))
    assert not report.skipped_pairs
    stats = report.solver_stats
    assert compared and stats["literals_reused"] > 0, "no check ever shared a prefix"
    assert stats["literals_asserted"] + stats["literals_reused"] >= len(compared)
    assert stats["unknowns"] == 0
    for f, status in searched.items():
        assert (status == "unsat") == (reference_check(f) == "unsat"), f


# -- one solver, two threads -------------------------------------------------------


def test_two_threads_on_one_solver_get_the_serial_verdicts(monkeypatch, fresh_memo):
    # No theory memo: every search asserts on a stack, whoever asked first.
    monkeypatch.setattr(combine, "_CHECK_CACHE_LIMIT", 0)
    x, y, z = sym("x"), sym("y"), sym("z")
    fx = app("f", x)
    psi = [le_f(num(0), x), eq_f(fx, t_add(y, num(1))), le_f(y, z), eq_f(app("g", y, z), x)]
    queries = []
    for k in range(30):
        goal = [le_f(fx, num(k)), eq_f(z, num(k)), le_f(t_sub(z, x), num(k - 10))][k % 3]
        hyp = psi[: 1 + k % len(psi)] + [le_f(x, num(k))]
        queries.append(fand(*hyp, fnot(goal)))
        queries.append(fand(*hyp, eq_f(x, y), fnot(le_f(fx, app("f", y)))))  # unsat by congruence
        queries.append(fand(*hyp, goal if k % 2 else fnot(goal), le_f(num(k + 1), x)))  # x <= k < x
    serial = [Solver()._check(f) for f in queries]
    assert {status for status, _ in serial} == {"sat", "unsat"}

    shared = Solver()
    answers = {0: {}, 1: {}}
    errors = []

    def worker(me):
        try:
            order = range(len(queries)) if me == 0 else reversed(range(len(queries)))
            for _repeat in range(3):
                for i in order:
                    answers[me][i] = shared._check(queries[i])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(me,)) for me in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    for me in (0, 1):
        assert [answers[me][i] for i in range(len(queries))] == serial
    assert 1 <= len(shared._idle) <= 2, "a stack was lost or shared"
    for stack in shared._idle:  # one level per literal, no check left its mark behind
        assert len(stack.cc._marks) == len(stack.literals)
    assert shared.stats.literals_reused > 0
