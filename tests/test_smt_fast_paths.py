"""The solver's cheap answers, and the one engine that feeds them.

* A theory conflict among level-0 atoms closes ``unsat`` without core
  minimisation or a second SAT call — and when every conjunct is a literal,
  without a ``SatSolver`` at all; one that involves a decision still
  minimises.
* A query that evaluates true under a remembered, verified witness is
  answered ``sat`` without the search: nothing is asserted on the stack.
* A query that is one non-constant theory literal is ``sat`` on sight, and
  an equality the calculus asks under an empty path condition compares its
  two store values instead of reaching the solver.

None may change an entailment verdict: the solver is compared with the
from-scratch loop in :mod:`repro.testing.reference` on generated formulas
and on every query the five golden families ask.  Counts, not timings.
"""

import importlib.util
import os
import pickle
import subprocess
import sys
import threading
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro
from repro.config import ExecutionConfig
from repro.consolidation import consolidate_all
from repro.consolidation.simplifier import Context
from repro.smt import combine, solver as solver_mod
from repro.smt.combine import TheoryLiteral, TheoryStack
from repro.smt.euf import CongruenceClosure
from repro.smt.lia import LiaTrail, LinCon, lia_check
from repro.smt.models import evaluate_lincon, holds, interpretation
from repro.smt.sat import SatSolver
from repro.smt.solver import Solver
from repro.smt.terms import (
    FALSE_F,
    TRUE_F,
    Eq,
    FNot,
    FTrue,
    Le,
    app,
    eq_f,
    fand,
    fnot,
    for_,
    le_f,
    lt_f,
    ne_f,
    num,
    sym,
    t_add,
    t_mul,
    t_scale,
)
from repro.testing.faults import fault_hook, smt_unknown
from repro.testing.reference import reference_check

x, y, z = sym("x"), sym("y"), sym("z")
_VARS = [x, y, z]


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty process-wide theory memo for the test's duration."""

    memo = OrderedDict()
    monkeypatch.setattr(combine, "_CHECK_CACHE", memo)
    return memo


@st.composite
def formulas(draw, depth=3):
    """QF_UFLIA over three variables and two functions, boolean depth 3."""

    def term():
        t = num(draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 2))):
            atom = draw(st.sampled_from(_VARS))
            if draw(st.integers(0, 3)) == 0:
                atom = app(draw(st.sampled_from(["f", "g"])), atom)
            t = t_add(t, t_scale(draw(st.integers(-2, 2)), atom))
        return t

    def atom():
        kind = draw(st.sampled_from(["le", "lt", "eq", "ne"]))
        return {"le": le_f, "lt": lt_f, "eq": eq_f, "ne": ne_f}[kind](term(), term())

    def build(d):
        choice = draw(st.integers(0, 3)) if d > 0 else 0
        if choice == 0:
            return atom()
        if choice == 1:
            return fnot(build(d - 1))
        return (fand if choice == 2 else for_)(build(d - 1), build(d - 1))

    return build(depth)


def _assert_witnesses_verify(solver):
    """Every remembered witness is consistent with its own memoised truths."""

    assert len(solver._witnesses) <= 2
    for w, truths in solver._witnesses:
        for atom, truth in list(truths.items()):
            assert holds(atom, w, {}) is truth


# -- differential: the fast paths never change unsat vs not-unsat ----------------


@given(st.lists(formulas(), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_generated_formulas_agree_with_the_reference(batch):
    solver = Solver()  # one solver per batch: later queries meet earlier witnesses
    for f in batch:
        hits, kept = solver.stats.witness_hits, solver._witnesses
        verdict = solver.is_sat(f)
        assert (verdict == "unsat") == (reference_check(f) == "unsat"), f
        if solver.stats.witness_hits != hits or solver._witnesses is not kept:
            # Answered by a witness, or left one behind: it is at the front
            # and it satisfies the formula it was returned for.
            assert verdict == "sat"
            assert holds(f, solver._witnesses[0][0], {})
        model = solver.model(f)
        if model is not None:
            assert verdict != "unsat"
            assert repro.smt.evaluate_formula(f, *model)
    _assert_witnesses_verify(solver)


_gen_spec = importlib.util.spec_from_file_location(
    "gen_golden_plans", Path(__file__).resolve().parent.parent / "tools" / "gen_golden_plans.py"
)
gen = importlib.util.module_from_spec(_gen_spec)
_gen_spec.loader.exec_module(gen)


@pytest.fixture(scope="module")
def golden_batches():
    return gen.batches()


@pytest.mark.parametrize("domain", sorted(gen.MIXED_FAMILY))
def test_every_query_of_a_golden_family_agrees_with_the_reference(
    golden_batches, domain, monkeypatch
):
    programs, functions = golden_batches[domain]
    asked = {}
    hits = []
    real = Solver._decide

    def recording(self, f):
        hits_before = self.stats.witness_hits
        verdict = real(self, f)
        asked[f] = verdict
        if self.stats.witness_hits != hits_before:
            hits.append(f)
            assert holds(f, self._witnesses[0][0], {}), "a hit whose witness does not verify"
        return verdict

    monkeypatch.setattr(Solver, "_decide", recording)
    report = consolidate_all(list(programs), functions, config=ExecutionConfig(workers=1))
    assert not report.skipped_pairs
    stats = report.solver_stats
    assert 0 < stats["witness_hits"] <= len(hits), "the family never met a witness"
    for f, verdict in asked.items():
        assert (verdict == "unsat") == (reference_check(f) == "unsat"), f


# -- a lone literal is sat on sight ------------------------------------------------


@st.composite
def lone_literals(draw):
    """One theory literal over nested applications and ``@mul`` products,
    with coefficients whose gcd the constructors divide out."""

    def atom(depth):
        choice = draw(st.integers(0, 3 if depth else 0))
        if choice == 0:
            return draw(st.sampled_from(_VARS))
        if choice == 1:
            return app(draw(st.sampled_from(["f", "g"])), term(depth - 1))
        if choice == 2:
            return app("h", term(depth - 1), term(depth - 1))
        return t_mul(term(depth - 1), term(depth - 1))  # @mul unless a side is constant

    def term(depth):
        t = num(draw(st.integers(-6, 6)))
        for _ in range(draw(st.integers(0, 3))):
            t = t_add(t, t_scale(draw(st.integers(-4, 4)), atom(depth)))
        return t

    build = draw(st.sampled_from([le_f, lt_f, eq_f, ne_f]))
    return build(term(2), term(2))


def _assert_lone_literal_rule(f):
    solver = Solver()
    assert solver.is_sat(f) == "sat"
    assert solver.stats.literal_hits == 1 and solver.stats.theory_rounds == 0
    assert not solver._witnesses and not solver._idle, "the rule kept a witness or searched"
    # Neither the search the rule skips nor the from-scratch loop refutes it.
    assert solver._check(f)[0] != "unsat", f
    assert reference_check(f) != "unsat", f


@given(lone_literals())
@settings(max_examples=300, deadline=None)
def test_the_reference_never_refutes_a_lone_literal_the_rule_calls_sat(f):
    assume(f not in (TRUE_F, FALSE_F))  # a constant comparison folds on construction
    _assert_lone_literal_rule(f)


fx, gy = app("f", x), app("g", y)
_LONE_LITERALS = {
    "le": le_f(t_add(fx, t_scale(3, y)), num(7)),
    "lt-negated-le": fnot(le_f(x, app("f", app("g", z)))),
    "eq": eq_f(fx, t_add(y, num(1))),
    "ne": ne_f(fx, gy),
    "nested-eq": eq_f(app("f", app("f", x)), t_add(fx, num(1))),
    "mul-le": le_f(t_add(t_mul(x, x), num(1)), num(0)),
    "mul-ne": ne_f(t_mul(x, y), t_add(x, y)),
    "gcd-eq": eq_f(t_add(t_scale(2, x), t_scale(4, fx)), num(6)),
    "gcd-ne": ne_f(t_scale(6, gy), t_add(t_scale(9, z), num(3))),
    "gcd-le": le_f(t_add(t_scale(4, x), t_scale(6, t_mul(x, y))), num(5)),
}


@pytest.mark.parametrize("name", sorted(_LONE_LITERALS))
def test_each_kind_of_lone_literal_is_sat_without_a_search(name):
    f = _LONE_LITERALS[name]
    literal = f.operand if isinstance(f, FNot) else f
    assert isinstance(literal, Le if "le" in name else Eq), f
    assert isinstance(f, FNot) == name.endswith("ne"), f
    _assert_lone_literal_rule(f)


def test_gcd_normalisation_refutes_before_the_rule_is_asked():
    assert eq_f(t_scale(2, x), num(3)) == FALSE_F  # 2x = 3 has no integer solution
    assert eq_f(t_scale(2, x), num(4)) == eq_f(x, num(2))
    solver = Solver()
    assert solver.is_sat(eq_f(t_add(t_scale(4, x), t_scale(6, y)), num(9))) == "unsat"
    assert solver.stats.literal_hits == 0


def test_the_fault_hook_sees_and_can_force_a_lone_literal_check():
    seen = []

    def hook(site, f):
        seen.append((site, f))
        return "unsat" if len(seen) == 1 else None

    forced, passed = le_f(x, num(3)), ne_f(fx, y)
    solver = Solver()
    with fault_hook(solver_mod, hook):
        assert solver.is_sat(forced) == "unsat"  # what a buggy solver could say
        assert solver.is_sat(passed) == "sat"  # let through: the rule answers
        assert solver.is_sat(forced) == "unsat"  # the formula cache, not the hook
    assert seen == [("smt.check", forced), ("smt.check", passed)]
    assert solver.stats.literal_hits == 1 and solver.stats.cache_hits == 1
    with smt_unknown():
        assert not solver.entails(TRUE_F, le_f(y, num(0)))
    assert solver.stats.unknowns == 1 and solver.stats.literal_hits == 1


@pytest.mark.parametrize("domain", ["weather", "flight"])
def test_an_equality_under_an_empty_path_condition_keeps_the_solver_verdict(
    golden_batches, domain, monkeypatch
):
    """Every ``provably_equal`` a golden batch asks with ``Ψ = true``: the
    store-value comparison answers what the encoded ``a = b`` folded to or
    the search on its negation decided."""

    programs, functions = golden_batches[domain]
    answers = []
    real = Context.provably_equal

    def compared(self, a, b):
        verdict = real(self, a, b)
        if a != b and isinstance(self.psi, FTrue):
            ta, tb = self.engine.encode_int(a, self.store), self.engine.encode_int(b, self.store)
            if ta is not None and tb is not None:
                goal = eq_f(ta, tb)
                if goal in (TRUE_F, FALSE_F):
                    want = goal == TRUE_F
                else:
                    want = Solver()._check(fnot(goal))[0] == "unsat"
                assert verdict == want, (a, b, goal)
                answers.append(verdict)
        return verdict

    monkeypatch.setattr(Context, "provably_equal", compared)
    # The balanced tree over the batch as given: its merges ask equalities
    # under Ψ = true that the rule refutes; the clustered order's ask none.
    report = consolidate_all(
        list(programs), functions, order="tree", config=ExecutionConfig(workers=1)
    )
    assert not report.skipped_pairs
    assert False in answers, "the batch asked no equality the rule refutes"


# -- counted, not timed ----------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Calls of ``minimize_core`` (as the solver sees it) and ``solve``,
    ``SatSolver`` constructions and literals asserted on any stack."""

    calls = {"minimize_core": 0, "solve": 0, "sat_solvers": 0, "asserted": 0}
    real_minimize, real_solve = solver_mod.minimize_core, SatSolver.solve
    real_init, real_assert = SatSolver.__init__, TheoryStack.assert_literal

    def minimize(literals, *args, **kwargs):
        calls["minimize_core"] += 1
        return real_minimize(literals, *args, **kwargs)

    def solve(self, *args):
        calls["solve"] += 1
        return real_solve(self, *args)

    def init(self, *args, **kwargs):
        calls["sat_solvers"] += 1
        real_init(self, *args, **kwargs)

    def assert_literal(self, lit):
        calls["asserted"] += 1
        real_assert(self, lit)

    monkeypatch.setattr(solver_mod, "minimize_core", minimize)
    monkeypatch.setattr(SatSolver, "solve", solve)
    monkeypatch.setattr(SatSolver, "__init__", init)
    monkeypatch.setattr(TheoryStack, "assert_literal", assert_literal)
    return calls


def test_a_level_zero_conflict_closes_without_minimising(counted, fresh_memo):
    solver = Solver()
    # Both conjuncts are literals: the base alone, refuted by the theory.
    assert solver.is_sat(fand(le_f(x, num(0)), le_f(num(1), x))) == "unsat"
    assert counted == {"minimize_core": 0, "solve": 0, "sat_solvers": 0, "asserted": 2}
    assert solver.stats.forced_unsat == 1
    assert solver.stats.sat_calls == 0 and solver.stats.theory_rounds == 1
    # A satisfiable one: still one round, and nothing propositional.
    assert solver.is_sat(fand(le_f(x, num(0)), eq_f(app("f", x), y))) == "sat"
    assert counted["sat_solvers"] == 0 and solver.stats.theory_rounds == 2
    # Complementary literals close before the theory is asked.
    assert solver.is_sat(fand(eq_f(x, y), le_f(z, x), ne_f(x, y))) == "unsat"
    assert solver.stats.theory_rounds == 2 and solver.stats.forced_unsat == 1


def test_only_structured_conjuncts_reach_the_sat_core(counted, fresh_memo):
    solver = Solver()
    psi = [le_f(num(1), x), le_f(num(1), y), eq_f(app("f", x), z)]
    f = fand(*psi, for_(le_f(x, num(0)), le_f(y, num(0)), le_f(num(1), x)))
    encoded = []
    real = solver_mod.CnfBuilder.assert_formula

    def recording(self, g):
        encoded.append(g)
        real(self, g)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod.CnfBuilder, "assert_formula", recording)
        assert solver.is_sat(f) == "sat"
    assert encoded == [f.args[-1]], "a literal conjunct of Ψ was Tseitin-encoded"
    assert counted["sat_solvers"] == 1
    # ``1 <= x`` is fixed by the base: the model's pick adds nothing to assert.
    assert solver.stats.sat_calls == 1 and counted["asserted"] == 3


def test_a_conflict_that_involves_a_decision_still_minimises(counted):
    solver = Solver()
    # (x <= 0 or y <= 0) and x >= 1 and y >= 1: the first theory conflict
    # rests on a decided disjunct and needs a lemma; the lemma forces the
    # other disjunct at the root, whose conflict is then closed directly.
    f = fand(for_(le_f(x, num(0)), le_f(y, num(0))), le_f(num(1), x), le_f(num(1), y))
    assert solver.is_sat(f) == "unsat"
    assert (counted["minimize_core"], counted["solve"], counted["sat_solvers"]) == (1, 2, 1)
    assert solver.stats.forced_unsat == 1 and solver.stats.sat_calls == 2
    assert reference_check(f) == "unsat"


def test_a_witness_hit_runs_no_search_and_still_counts_the_check(counted, fresh_memo):
    solver = Solver()
    assert solver.is_sat(fand(le_f(num(3), x), lt_f(x, y))) == "sat"
    searched = dict(counted)
    memo_before = dict(fresh_memo)
    (stack,) = solver._idle
    held = list(stack.literals)
    # True under the witness just kept (x = 3, y = 4).
    assert solver.is_sat(fand(le_f(num(1), x), le_f(x, y), ne_f(x, y))) == "sat"
    assert counted == searched, "a witness hit asserted a literal or ran the SAT core"
    assert solver._idle == [stack] and stack.literals == held
    assert solver.stats.witness_hits == 1
    assert solver.stats.checks == 2 and solver.stats.cache_hits == 0
    assert solver.stats.literals_asserted == 2 and solver.stats.literals_reused == 0
    assert dict(fresh_memo) == memo_before, "a witness hit wrote to the theory memo"
    # A query the witness falsifies falls through to the search.
    assert solver.is_sat(fand(le_f(x, num(0)), le_f(y, x))) == "sat"
    assert counted["asserted"] == searched["asserted"] + 2 and counted["sat_solvers"] == 0
    assert solver.stats.checks == 3 and solver.stats.witness_hits == 1
    _assert_witnesses_verify(solver)


def test_only_two_witnesses_are_kept_most_recently_useful_first():
    solver = Solver()
    # Two literals each: a lone literal is answered without a search and
    # leaves no witness behind.
    first = fand(le_f(num(5), x), le_f(num(5), y))
    second = fand(le_f(x, num(-5)), le_f(y, num(-5)))
    third = fand(le_f(num(1), x), le_f(x, num(2)))
    for f in (first, second, third):
        assert solver.is_sat(f) == "sat"
    assert solver.stats.witness_hits == 0 and solver.stats.literal_hits == 0
    assert len(solver._witnesses) == 2
    assert holds(third, solver._witnesses[0][0], {}) and holds(second, solver._witnesses[1][0], {})
    # A hit at position 1 moves that witness to the front.
    assert solver.is_sat(fand(le_f(x, num(-1)), le_f(y, num(-1)))) == "sat"
    assert solver.stats.witness_hits == 1
    assert holds(second, solver._witnesses[0][0], {})


def test_a_witness_never_answers_unsat_or_hides_a_proof():
    solver = Solver()
    hyp = fand(le_f(x, y), le_f(y, z))
    assert solver.is_sat(hyp) == "sat"
    assert solver._witnesses, "the search left no witness"
    assert solver.entails(hyp, le_f(x, z))  # proved by the search, not blocked by the witness
    assert not solver.entails(hyp, le_f(z, x))
    assert solver.is_sat(FALSE_F) == "unsat"
    assert solver.is_sat(TRUE_F) == "sat"


# -- the fault hook wins over a witness ------------------------------------------


def test_fault_hook_is_consulted_before_the_witnesses():
    solver = Solver()
    assert solver.is_sat(fand(le_f(num(3), x), le_f(num(3), y))) == "sat"
    query = fand(le_f(num(2), x), le_f(num(2), y))
    assert holds(query, solver._witnesses[0][0], {}), "the witness x = y = 3 satisfies it"
    with smt_unknown():
        assert solver.is_sat(query) == "unknown"
    assert solver.stats.witness_hits == 0 and solver.stats.unknowns == 1


@pytest.mark.parametrize("k", [0, 1, 3])
def test_smt_unknown_after_k_forces_the_same_check_whatever_the_witnesses_answer(k):
    # All true at x = y = 5; two literals each, so each check can meet a witness.
    queries = [fand(le_f(num(bound), x), le_f(num(bound), y)) for bound in range(5, 0, -1)]
    solver = Solver()
    with smt_unknown(after=k):
        verdicts = [solver.is_sat(f) for f in queries]
    assert verdicts == ["sat"] * k + ["unknown"] * (len(queries) - k)
    assert solver.stats.witness_hits == max(0, k - 1)


# -- the theory memo stores the witness beside the status --------------------------


def test_a_memo_hit_returns_a_witness_that_verifies(fresh_memo, monkeypatch):
    f = fand(eq_f(app("g", x, y), num(2)), ne_f(x, y), le_f(x, num(0)))
    writer = Solver()
    assert writer.is_sat(f) == "sat"
    assert writer._witnesses, "the writer built no witness"
    for key, value in fresh_memo.items():
        assert isinstance(value, (str, tuple))
        if not isinstance(value, str):  # 'sat': a flat (key, value, ...) tuple
            w = interpretation(value)
            assert 0 not in w.values(), "zero entries are left out"
            for lit in key:
                assert holds(_as_formula(lit), w, {})

    def no_solving(stack):
        raise AssertionError("the replayer re-derived a memoised theory check")

    monkeypatch.setattr(combine.TheoryStack, "check", no_solving)
    replayer = Solver()  # e.g. the registry replaying the writer's log
    assert replayer.is_sat(f) == "sat"
    assert replayer._witnesses and holds(f, replayer._witnesses[0][0], {})
    assert replayer._witnesses[0][0] == writer._witnesses[0][0]


def _as_formula(lit):
    zero = num(0)
    return {"eq": eq_f, "le": le_f, "ne": ne_f}[lit.kind](lit.term, zero)


def test_memo_entries_match_a_fresh_decision(fresh_memo):
    solver = Solver()
    fs = [
        fand(le_f(x, y), for_(eq_f(app("f", x), num(1)), lt_f(y, x))),
        fand(eq_f(x, y), ne_f(app("f", x), app("f", y))),
        for_(fand(le_f(x, num(0)), le_f(num(1), x)), eq_f(z, num(7))),
    ]
    for f in fs:
        solver.is_sat(f)
    assert fresh_memo
    for key, value in fresh_memo.items():
        status = value if isinstance(value, str) else "sat"
        stack = combine.TheoryStack()
        stack.assert_exactly(list(key))
        assert stack.check().status == status


# -- interned literals -------------------------------------------------------------


def test_the_literals_of_an_atom_are_built_once_and_never_pickled():
    le, eq = le_f(x, y), eq_f(app("f", x), y)
    for atom in (le, eq):
        pos, neg = TheoryLiteral.from_formula(atom, True), TheoryLiteral.from_formula(atom, False)
        assert TheoryLiteral.from_formula(atom, True) is pos
        assert TheoryLiteral.from_formula(atom, False) is neg
        assert atom._lits == (pos, neg)
        clone = pickle.loads(pickle.dumps(atom))
        assert clone == atom and clone._lits is None
    assert TheoryLiteral.from_formula(eq, False) == TheoryLiteral("ne", eq.term)
    assert TheoryLiteral.from_formula(le, False) == TheoryLiteral("le", fnot(le).term)
    with pytest.raises(TypeError):
        TheoryLiteral.from_formula(fnot(eq), True)


def test_memo_keys_of_successive_checks_share_their_literal_objects(fresh_memo):
    psi = fand(le_f(x, y), eq_f(app("f", x), z), le_f(num(1), z))
    solver = Solver()
    for goal in (le_f(y, num(5)), le_f(num(9), y), eq_f(y, z)):  # three searches under one Ψ
        solver._check(fand(psi, fnot(goal)))
    keys = list(fresh_memo)
    assert len(keys) >= 3
    shared = set.intersection(*({id(lit) for lit in key} for key in keys))
    assert len(shared) >= 3, "each check built its own literals for the atoms of Ψ"


# -- O(1) class numerals -----------------------------------------------------------


def test_constant_of_and_conflict_flag_read_no_member_list(monkeypatch):
    cc = CongruenceClosure()
    cc.assert_equal(app("f", x), num(1))
    cc.assert_equal(app("f", y), num(2))
    cc.assert_equal(z, x)

    def scanned(*_args):
        raise AssertionError("walked the class")

    monkeypatch.setattr(CongruenceClosure, "class_of", scanned)
    monkeypatch.setattr(CongruenceClosure, "equivalence_classes", scanned)
    assert cc.constant_of(app("f", z)) == 1  # by congruence with f(x)
    assert cc.constant_of(z) is None
    assert not cc.has_constant_conflict()
    cc.assert_equal(x, y)  # f(x) = f(y) follows, merging 1 with 2
    assert cc.has_constant_conflict()


# -- one FM engine: a sat run leaves its model behind ------------------------------


def _con(coeffs, const):
    return LinCon.make(coeffs, const)


def test_lia_check_trail_back_substitutes_through_pivots_and_branches():
    eqs = [_con({"a": 1, "b": -2}, 0), _con({"c": 1, "a": -1}, -1)]  # a = 2b, c = a + 1
    les = [_con({"a": 1}, -10), _con({"a": -1}, 0)]  # 0 <= a <= 10
    nes = [_con({"a": 1}, 0), _con({"a": 1}, -2)]  # a != 0, a != 2
    trail = LiaTrail()
    assert lia_check(eqs, les, nes, trail) == "sat"
    model = trail.model()
    assert model is not None
    assert all(evaluate_lincon(eq, model) == 0 for eq in eqs)
    assert all(evaluate_lincon(le, model) <= 0 for le in les)
    assert all(evaluate_lincon(ne, model) != 0 for ne in nes)


def test_rounding_yields_no_model_rather_than_a_wrong_one():
    # 2a = 3b + 1 has no unit pivot, so it reaches Fourier–Motzkin as two
    # inequalities: rationally satisfiable, and back-substitution with b = 0
    # leaves a no integer between 1/2 and 1/2.
    eqs = [_con({"a": 2, "b": -3}, -1)]
    trail = LiaTrail()
    assert lia_check(eqs, [], (), trail) == "sat"
    assert trail.model() is None
    assert repro.smt.lia_model(eqs, []) is None


# -- candidate pairs do not depend on the hash seed --------------------------------

_PAIRS_SCRIPT = """
from repro.smt.combine import TheoryLiteral, _congruence_candidate_pairs, _MAX_CANDIDATE_PAIRS
from repro.smt.euf import CongruenceClosure
from repro.smt.terms import app, sym, t_sub

funcs = [f"fn{i}" for i in range(8)]
lits = []
for i, func in enumerate(funcs):          # 8 functions x 4 applications each:
    args = [sym(f"{func}_arg{j}") for j in range(4)]   # 6 pairs per function = 48 > 40
    for a, b in zip(args, args[1:]):
        lits.append(TheoryLiteral("ne", t_sub(app(func, a), app(func, b))))
cc = CongruenceClosure()
for lit in lits:
    cc.add_term(lit.term)
pairs = _congruence_candidate_pairs(lits, cc)
assert len(pairs) == _MAX_CANDIDATE_PAIRS, len(pairs)
print(sorted(repr(pair) for pair in pairs))
"""


def test_candidate_pair_cut_is_the_same_under_two_hash_seeds():
    src = str(Path(repro.__file__).resolve().parent.parent)
    seen = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _PAIRS_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
            stdout=subprocess.PIPE, text=True, check=True, timeout=60,
        )
        seen.append(done.stdout)
    assert seen[0] == seen[1], "which pairs survive the cut depends on PYTHONHASHSEED"


# -- one solver shared by sixteen threads (e.g. the service's request threads) ----


def test_sixteen_threads_share_one_solver(fresh_memo):
    solver = Solver()
    cases = []
    for k in range(12):
        cases.append((fand(le_f(num(k), x), lt_f(x, y), eq_f(app("f", x), num(k))), "sat"))
        cases.append((fand(le_f(num(k), x), le_f(x, num(k - 1))), "unsat"))
        cases.append((fand(for_(le_f(x, num(k)), le_f(y, num(k))),
                           le_f(num(k + 1), x), le_f(num(k + 1), y)), "unsat"))
        cases.append((for_(le_f(x, num(-k)), eq_f(y, num(k))), "sat"))
    errors = []

    def worker(offset):
        try:
            for i in range(400):
                f, expected = cases[(i * 5 + offset) % len(cases)]
                if i % 3 == 0:  # same verdicts under fresh atoms: misses the formula cache
                    f = fand(f, le_f(z, num(i + offset)))
                assert solver.is_sat(f) == expected
                _assert_witnesses_verify(solver)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    _assert_witnesses_verify(solver)
    for f, expected in cases:
        assert solver.is_sat(f) == expected


# -- "why was the solver not run" is one record -------------------------------------


def test_new_counters_reach_the_report_the_registry_and_the_exposition(golden_batches):
    from repro.telemetry import Telemetry
    from repro.telemetry.sinks import prometheus_text

    programs, functions = golden_batches["weather"]
    telemetry = Telemetry.capture()
    report = consolidate_all(
        list(programs), functions, config=ExecutionConfig(workers=1, telemetry=telemetry)
    )
    stats = report.solver_stats
    assert stats["witness_hits"] > 0 and stats["forced_unsat"] > 0
    # Every check is accounted for: answered by a cache, a witness, or the search.
    assert stats["checks"] >= stats["cache_hits"] + stats["witness_hits"] + stats["forced_unsat"]
    for key in ("witness_hits", "forced_unsat"):
        assert telemetry.counter(f"smt_{key}").value == stats[key]
    text = prometheus_text(telemetry.snapshot()["metrics"])
    assert "# HELP smt_witness_hits SMT checks answered 'sat' by a remembered witness" in text
    assert "# HELP smt_forced_unsat SMT checks closed on a level-0 theory conflict" in text
