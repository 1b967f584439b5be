"""The SMT solver facade: lazy DPLL(T) over SAT + (EUF ∪ LIA).

This is the component the consolidation calculus treats as "the SMT solver"
(the paper uses Z3; see DESIGN.md for the substitution note).  The public
entry points are :meth:`Solver.is_sat`, :meth:`Solver.is_valid` and
:meth:`Solver.entails`, all memoised — the consolidation algorithm fires
thousands of near-identical queries while walking two programs, and the
cache is what keeps consolidation in the paper's sub-second regime.

Most of those queries have one of two answers that need no search, and each
has a cheap path (DESIGN.md §14): *not entailed* is read off one of the two
most recent verified witnesses (:meth:`Solver._decide`), and a theory
conflict among level-0 atoms closes ``unsat`` without core minimisation
(:meth:`Solver._search`).  A check that is one theory literal and nothing
else — a goal asked with no hypothesis bearing on it — is ``sat`` on sight:
its term is canonical and non-constant, so it is neither valid nor
unsatisfiable, and ``sat`` licenses no rewrite.

The queries that do search are ``Ψ ∧ ¬e`` with Ψ a conjunction that is mostly
— usually entirely — theory literals, shared with the query before.  The
literal conjuncts never reach CNF or SAT: they are asserted on a
backtrackable :class:`~repro.smt.combine.TheoryStack` the solver keeps
between checks, each check re-asserting only what differs from its
predecessor, and only conjuncts with boolean structure get a ``SatSolver``.

Soundness contract (what the calculus relies on):

* ``is_valid(f) == True``  only when ``not f`` was *refuted* by a valid
  derivation (SAT resolution + theory lemmas that are themselves theorems).
  A literal conjunct is a unit clause, so asserting it to the theory directly
  is that same derivation with the unit propagation done by hand; what the
  stack holds when a check starts is never trusted — the check pops to the
  prefix that *is* (by identity) its own literal list and asserts the rest.
* Any budget exhaustion or incompleteness surfaces as ``'unknown'`` /
  ``False``, which makes the optimiser skip an opportunity — never
  mis-transform.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable, Optional

from .cnf import CnfBuilder
from .combine import TheoryLiteral, TheoryStack, Witness, WitnessKey, check_literals, minimize_core
from .models import Model, formula_model, holds, interpretation
from .sat import SatSolver
from .terms import Eq, FALSE_F, FAnd, FNot, Formula, Le, TRUE_F, fand, fnot, for_

__all__ = ["Solver", "SolverStats", "CheckResult", "FAULT_HOOK", "LEMMA_BUDGET", "CACHE_SIZE"]

CheckResult = str  # 'sat' | 'unsat' | 'unknown'
# A remembered witness: its interpretation and the atom truths found under it.
_Remembered = tuple[dict[WitnessKey, int], dict[Formula, bool]]

# Fault-injection seam (see repro.testing.faults).  When set, the hook is
# called as ``FAULT_HOOK("smt.check", formula)`` on every check that misses
# the formula cache — before the lone-literal rule and the witnesses, so
# which check a counting hook forces depends on neither; it may return a
# forced CheckResult ('unknown' models budget exhaustion), raise (a solver
# crash escaping as an exception), or return None to let the real check run.
# ``None`` — the production value — costs one module attribute read per
# uncached check.
FAULT_HOOK: Optional[Callable[[str, Formula], Optional[CheckResult]]] = None

# SAT/theory rounds one search may run, each blocking one theory conflict,
# before it answers "unknown".
LEMMA_BUDGET = 400
# Verdicts the formula cache keeps; past this, new formulas are not cached.
CACHE_SIZE = 100_000


@dataclass
class SolverStats:
    """Counters for reporting and the scalability experiments.

    Of the ``checks`` asked, ``cache_hits`` were answered by the formula
    cache, ``literal_hits`` ``sat`` as a lone non-constant theory literal
    and ``witness_hits`` by a remembered witness: none of them ran the
    search.  Of those that did, ``forced_unsat`` closed on a theory conflict
    among level-0 atoms, without core minimisation or a second SAT call.
    ``sat_calls`` counts ``SatSolver.solve()`` calls — none for a check whose
    conjuncts are all literals — and ``theory_rounds`` theory checks asked
    (memoised or not).  ``literals_asserted`` / ``literals_reused`` are the
    assertion stack's: literals pushed, and literals a check wanted and
    found already asserted (both count theory-memo misses only).
    """

    checks: int = 0
    cache_hits: int = 0
    literal_hits: int = 0
    theory_rounds: int = 0
    sat_calls: int = 0
    unknowns: int = 0
    witness_hits: int = 0
    forced_unsat: int = 0
    literals_asserted: int = 0
    literals_reused: int = 0

    def snapshot(self) -> dict[str, int]:
        return asdict(self)


class Solver:
    """Memoising QF_UFLIA satisfiability/validity checker.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) turns on latency
    recording: every check that misses the memo is timed into the
    ``smt_check_seconds`` histogram.  With the default no-op telemetry the
    only cost is one attribute read per miss.
    """

    def __init__(self, telemetry: Any = None) -> None:
        self.stats = SolverStats()
        self._sat_cache: dict[Formula, CheckResult] = {}
        # The two most recent verified witnesses, most recently useful first:
        # ``(interpretation, atom truths under it)``.  Replaced as a whole,
        # never mutated, so threads sharing the solver (the service's request
        # threads, callers passing one ``Consolidator(solver=…)``) need no
        # lock (a lost update loses a witness, never a verdict).
        self._witnesses: tuple[_Remembered, ...] = ()
        # Assertion stacks nobody is checking on (see ``_check``): one, unless
        # threads share this solver.
        self._idle: list[TheoryStack] = []
        if telemetry is None:
            from ..telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self._telemetry = telemetry

    # -- public API ---------------------------------------------------------

    def is_sat(self, f: Formula) -> CheckResult:
        """Satisfiability of ``f`` in QF_UFLIA."""

        self.stats.checks += 1
        cached = self._sat_cache.get(f)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        if self._telemetry.enabled:
            started = perf_counter()
            result = self._decide(f)
            self._telemetry.histogram("smt_check_seconds").observe(
                perf_counter() - started
            )
        else:
            result = self._decide(f)
        if result == "unknown":
            # Budget exhaustion / incompleteness: the caller treats this as
            # "cannot prove", skipping an optimisation.  Counted so batch
            # reports can show *why* a consolidation was less aggressive.
            self.stats.unknowns += 1
        if len(self._sat_cache) < CACHE_SIZE:
            self._sat_cache[f] = result
        return result

    def is_valid(self, f: Formula) -> bool:
        """True only when ``f`` is proved valid."""

        return self.is_sat(fnot(f)) == "unsat"

    def entails(self, hypothesis: Formula, goal: Formula) -> bool:
        """``hypothesis |= goal`` — the judgment written ``Ψ |= e`` in Fig. 3."""

        if isinstance(goal, type(TRUE_F)):
            return True
        return self.is_sat(fand(hypothesis, fnot(goal))) == "unsat"

    def model(self, f: Formula) -> Optional[Model]:
        """A verified model of ``f`` — ``(variables, function tables)`` —
        or None when unsatisfiable / no witness constructible."""

        return formula_model(f, self)

    def entails_not(self, hypothesis: Formula, goal: Formula) -> bool:
        """``hypothesis |= not goal``."""

        return self.is_sat(fand(hypothesis, goal)) == "unsat"

    def equivalent(self, hypothesis: Formula, a: Formula, b: Formula) -> bool:
        """Whether ``a`` and ``b`` agree under ``hypothesis`` (proved)."""

        return self.entails(hypothesis, for_(fand(a, b), fand(fnot(a), fnot(b))))

    # -- a check that missed the formula cache --------------------------------

    def _decide(self, f: Formula) -> CheckResult:
        """The fault hook, the lone-literal rule, the witnesses, the search.

        A lone literal ``t ≤ 0``, ``t = 0`` or its negation is satisfiable.
        ``le_f`` / ``eq_f``, which build every ``Le`` / ``Eq``, keep ``t`` in
        canonical linear form and fold a constant one to ``true`` /
        ``false``; the atoms of a non-constant ``t`` take independent
        values, and an equation's coefficient gcd divides its constant
        (``eq_f`` refutes it otherwise).  So the rule is exact, it keeps no
        witness, and — ``'sat'`` — it is sound.

        A witness is a *total* interpretation, and ``f`` is evaluated under
        it in full: a hit exhibits a model of ``f``, so it can only say
        ``'sat'`` — "not entailed" — where the search might have given up
        with ``'unknown'``.  It never produces an ``'unsat'``, which is the
        only answer the calculus acts on.
        """

        if FAULT_HOOK is not None:
            forced = FAULT_HOOK("smt.check", f)
            if forced is not None:
                return forced
        literal = f.operand if isinstance(f, FNot) else f
        if isinstance(literal, (Le, Eq)):
            self.stats.literal_hits += 1
            return "sat"
        recent = self._witnesses
        for position, (w, truths) in enumerate(recent):
            if holds(f, w, truths):
                self.stats.witness_hits += 1
                if position:
                    self._witnesses = (recent[position], *recent[:position])
                return "sat"
        status, witness = self._check(f)
        if witness is not None:
            fresh: _Remembered = (interpretation(witness), {})
            if holds(f, *fresh):  # a candidate until the whole formula agrees
                self._witnesses = (fresh, *recent[:1])
        return status

    # -- the DPLL(T) loop ----------------------------------------------------

    def _check(self, f: Formula) -> tuple[CheckResult, Optional[Witness]]:
        """``(status, candidate witness)`` by search: no cache, no hook.

        The search runs on an assertion stack this solver keeps between
        checks.  The stack is *taken* for the duration (``list.pop`` is
        atomic): a thread that finds none idle starts a fresh one, so two
        threads sharing the solver never assert on the same stack and a
        lost race loses reuse, never a verdict.
        """

        if isinstance(f, type(TRUE_F)):
            return "sat", ()
        if isinstance(f, type(FALSE_F)):
            return "unsat", None
        try:
            stack = self._idle.pop()
        except IndexError:
            stack = TheoryStack()
        outcome = self._search(f, stack)
        self.stats.literals_asserted += stack.asserted
        self.stats.literals_reused += stack.reused
        stack.asserted = stack.reused = 0
        self._idle.append(stack)  # not reached if the search raised: the stack is dropped
        return outcome

    def _search(self, f: Formula, stack: TheoryStack) -> tuple[CheckResult, Optional[Witness]]:
        """Lazy DPLL(T) over the top-level conjuncts of ``f``.

        Literal conjuncts are the *base*: they hold in every propositional
        model, so they go to the theory as they are, first, and never reach
        CNF or SAT (two complementary ones are ``'unsat'`` on the spot).
        Only conjuncts with boolean structure are Tseitin-encoded; each round
        the SAT core picks a model of those and the theory checks the base
        plus the literals that model needs.  With no structured conjunct
        there is nothing to pick: one round, no ``SatSolver``.

        Forced conflicts.  When the theory refutes a round none of whose
        chosen atoms was assigned above SAT decision level 0, the answer is
        ``'unsat'`` at once.  Level-0 literals are unit consequences of the
        clauses, so every propositional model contains this very literal set
        and the theory has just refuted it; operationally, whatever core
        minimisation returned, its blocking clause would be false at the
        root and the next ``solve()`` would report ``'unsat'``.  Only a
        conflict that involves a decision needs a (minimised) lemma.
        """

        fixed: dict[Formula, bool] = {}  # atom -> polarity, per literal conjunct
        structured: list[Formula] = []
        for g in f.args if isinstance(f, FAnd) else (f,):
            if isinstance(g, (Le, Eq)):
                atom, positive = g, True
            elif isinstance(g, FNot) and isinstance(g.operand, (Le, Eq)):
                atom, positive = g.operand, False
            else:
                structured.append(g)
                continue
            if fixed.setdefault(atom, positive) != positive:
                return "unsat", None
        base = [TheoryLiteral.from_formula(atom, value) for atom, value in fixed.items()]

        if structured:
            sat = SatSolver()
            builder = CnfBuilder(sat)
            for g in structured:
                builder.assert_formula(g)
            atom_vars = builder.atom_vars
            # What the base fixes is a unit for the atoms the search can see.
            for atom, value in fixed.items():
                var = atom_vars.get(atom)
                if var is not None:
                    sat.add_clause([var if value else -var])

        for _ in range(LEMMA_BUDGET):
            chosen: list[tuple[Formula, bool]] = []
            if structured:
                self.stats.sat_calls += 1
                result = sat.solve()
                if result.status != "sat":
                    return result.status, None
                # Extract only the theory literals the model actually *needs*
                # (don't-care atoms would otherwise flood the theory solver
                # with meaningless disequalities).
                chosen = [
                    pair for pair in builder.sufficient_literals(result.model)
                    if pair[0] not in fixed
                ]
            picked = [TheoryLiteral.from_formula(atom, value) for atom, value in chosen]
            literals = base + picked

            self.stats.theory_rounds += 1
            verdict = check_literals(literals, stack)
            if verdict.status != "unsat":
                return verdict.status, verdict.witness
            if not any(sat.level[atom_vars[atom]] for atom, _value in chosen):
                self.stats.forced_unsat += 1
                return "unsat", None

            # Theory conflict: block (at least) the offending sub-assignment.
            # The base holds in every model, so only chosen literals appear.
            core_set = set(minimize_core(literals, stack=stack))
            block: list[int] = []
            for (atom, value), lit in zip(chosen, picked):
                if lit in core_set:
                    var = atom_vars[atom]
                    block.append(-var if value else var)
            sat.reset_to_root()
            sat.add_clause(block)

        return "unknown", None
