"""Lazy theory checker for conjunctions of QF_UFLIA literals.

This is the ``T`` in the DPLL(T) loop of :mod:`repro.smt.solver`: given the
theory literals of a propositional model, decide whether their conjunction
is consistent in the combined theory of equality-with-uninterpreted-functions
and linear integer arithmetic.

The literals live on an *assertion stack* (:class:`TheoryStack`): one
backtrackable congruence closure, one level per literal.  Successive checks
under one Ψ share most of their literals, so a check pops to the longest
prefix it has in common with what is asserted and pushes only the rest; the
closure is never rebuilt (DESIGN.md §14).

The combination follows the Nelson–Oppen recipe, specialised to the small,
mostly-equational problems consolidation produces:

1. assert all equational consequences in the congruence closure (done once
   per literal, when it is pushed),
2. translate everything into the LIA engine using one proxy variable per
   congruence class (classes merged with a numeral use the numeral),
3. run the LIA refutation engine,
4. probe LIA-implied equalities between interface atoms and feed them back
   to the closure — above a mark that is popped after the verdict —
   repeating until a fixpoint or a conflict,
5. on ``sat``, read a candidate model — the *witness* — off the closure and
   the LIA elimination trail of the accepted round; nothing is solved twice.

Because integer arithmetic is non-convex, step 4's pairwise probing is not
complete in general; it is, however, *sound* — every propagated equality is
proved — so an ``unsat`` verdict is always a theorem, which is the property
consolidation relies on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Any, Optional, Union

from ..nodeslots import derived, slot
from .euf import CongruenceClosure
from .lia import LiaTrail, LinCon, Var, lia_check
from .terms import App, Eq, Formula, Le, Lin, Num, Sym, Term, _atom_key, as_linear, from_linear

__all__ = [
    "TheoryLiteral", "TheoryResult", "TheoryStack", "Witness", "WitnessKey",
    "check_literals", "minimize_core",
]


@dataclass(frozen=True, slots=True)
class TheoryLiteral:
    """An assigned theory atom: ``kind`` in {'eq','le','ne'} applied to term=0.

    What a check needs of a literal beyond its term is derived once and kept
    on it (``_sides``, ``_apps``), like the derived facts of a term.
    """

    kind: str
    term: Term
    _sides: Optional[tuple[Term, Term]] = slot()
    _apps: Optional[tuple[App, ...]] = slot()

    @staticmethod
    def from_formula(f: Formula, positive: bool) -> "TheoryLiteral":
        """The literal of atom ``f`` under ``positive``.

        Both literals of an atom are built once and kept on the node, so the
        literal sets of successive checks (and the memo keys made of them)
        share their objects.
        """

        if not isinstance(f, (Le, Eq)):
            raise TypeError(f"not a theory atom: {f!r}")
        lits = f._lits
        if lits is None:
            if isinstance(f, Eq):
                lits = TheoryLiteral("eq", f.term), TheoryLiteral("ne", f.term)
            else:
                # not (t <= 0)  ==  1 - t <= 0 ; fnot() normally rewrites this
                # away, but assignments from the SAT core may still expose it.
                const, coeffs = as_linear(f.term)
                flipped = from_linear(1 - const, {a: -c for a, c in coeffs.items()})
                lits = TheoryLiteral("le", f.term), TheoryLiteral("le", flipped)
            object.__setattr__(f, "_lits", lits)
        literal: TheoryLiteral = lits[0] if positive else lits[1]
        return literal


# A candidate interpretation, flat: ``(key, value, key, value, ...)`` where a
# key is a variable name or ``(function, argument values...)``.  Entries whose
# value is 0 are left out: whatever is absent reads as 0.
WitnessKey = Union[str, tuple[Any, ...]]
Witness = tuple[Any, ...]


@dataclass
class TheoryResult:
    status: str  # 'sat' | 'unsat' | 'unknown'
    witness: Optional[Witness] = None  # with 'sat', unless construction failed


_MAX_PROPAGATION_ROUNDS = 6


@derived("_sides")
def _equality_sides(lit: TheoryLiteral) -> tuple[Term, Term]:
    """Split the literal's ``term = 0`` into ``lhs = rhs`` with non-negative parts."""

    const, coeffs = as_linear(lit.term)
    pos = {a: c for a, c in coeffs.items() if c > 0}
    neg = {a: -c for a, c in coeffs.items() if c < 0}
    lhs = from_linear(const if const > 0 else 0, pos)
    rhs = from_linear(-const if const < 0 else 0, neg)
    return lhs, rhs


@derived("_apps")
def _literal_apps(lit: TheoryLiteral) -> tuple[App, ...]:
    """All applications in the literal's term (nested ones included), first
    occurrence first."""

    out: dict[App, None] = {}
    _collect_apps(lit.term, out)
    return tuple(out)


def _collect_apps(term: Term, out: dict[App, None]) -> None:
    """An insertion-ordered ``dict``, never a ``set``: what is iterated here
    decides which candidate pairs survive the cut below."""

    if isinstance(term, App):
        out[term] = None  # an existing key keeps its place
        for a in term.args:
            _collect_apps(a, out)
    elif isinstance(term, Lin):
        for atom, _coef in term.coeffs:
            _collect_apps(atom, out)


def _lin_over_classes(term: Term, cc: CongruenceClosure) -> tuple[dict[Var, int], int]:
    """Flatten ``term`` to LIA coefficients over congruence-class handles.

    An atom whose class contains a numeral contributes that constant; other
    atoms contribute their class root id as the LIA variable handle, so
    CC-equal atoms share one LIA variable.  (Arithmetic relations between
    classes are conveyed by the ``eq`` constraints themselves, so no
    expansion of arithmetic class members is needed here.)
    """

    const, coeffs = as_linear(term)
    out: dict[Var, int] = {}
    total = const
    for atom, coef in coeffs.items():
        handle, constant = cc.handle(atom)
        if constant is not None:
            total += coef * constant
        else:
            out[handle] = out.get(handle, 0) + coef
    return out, total


# The theory memo is process-wide on purpose: replay, re-registration and
# the core-minimisation loop re-ask literal sets that an earlier Solver (one
# per batch or patch) already decided.  It is an LRU so that a long-running
# ``repro serve`` plateaus at a few batches' worth of entries instead of
# growing by one batch per fresh set of query ids and then, once full,
# refusing every new entry.  Hits are recent: a 50-query News-BC consolidate
# (12 186 distinct literal sets) loses none of them at a cap of 1 024.
#
# A value is the status, or — for 'sat' — the witness itself: a replayer
# riding the writer's warm memo starts from the writer's witnesses instead of
# re-deriving every check the writer answered from one.  The cap counts
# entries, and what pins bytes is the term graphs of the batches they span;
# a benchmark consolidate now leaves 120-440 entries (370-940 before forced
# conflicts and witnesses), so 2 048 spans what 4 096 did (DESIGN.md §14).
_CHECK_CACHE: OrderedDict[frozenset[TheoryLiteral], Union[str, Witness]] = OrderedDict()
_CHECK_CACHE_LIMIT = 2_048
# Hit-then-refresh and insert-then-evict are compound, and every thread of the
# process (the service's request threads, say) shares this table.
_CHECK_CACHE_LOCK = Lock()


class TheoryStack:
    """The assertion stack under the DPLL(T) loop, and the only way a theory
    check is built.

    ``push`` opens a level, ``assert_literal`` asserts at the top level,
    ``pop`` closes the top level and takes back what it asserted — in the
    closure too, node table included — and ``check`` decides the conjunction
    of everything asserted, leaving the stack as it found it.

    A stack popped back and extended answers exactly as a fresh one given the
    same literals in the same order: the closure's node and root ids are the
    LIA variable handles, so the rows, the elimination order and the witness
    are reproduced, not just the status.  Not thread-safe; whoever checks
    holds the stack alone (see :class:`repro.smt.solver.Solver`).
    """

    __slots__ = ("cc", "literals", "asserted", "reused", "_levels")

    def __init__(self) -> None:
        self.cc = CongruenceClosure()
        self.literals: list[TheoryLiteral] = []
        self.asserted = 0  # literals asserted since the counters were last read
        self.reused = 0  # literals a check wanted and found already asserted
        self._levels: list[int] = []  # len(literals) at each push

    def push(self) -> None:
        self._levels.append(len(self.literals))
        self.cc.push()

    def pop(self) -> None:
        del self.literals[self._levels.pop() :]
        self.cc.pop()

    def assert_literal(self, lit: TheoryLiteral) -> None:
        """Assert ``lit`` at the top level: register its term and, for an
        equality, merge its two sides."""

        cc = self.cc
        cc.add_term(lit.term)
        if lit.kind == "eq":
            lhs, rhs = _equality_sides(lit)
            cc.assert_equal(lhs, rhs)
        self.literals.append(lit)
        self.asserted += 1

    def assert_exactly(self, literals: list[TheoryLiteral]) -> None:
        """Make the stack hold ``literals``, in order, one level each: pop to
        the longest prefix already asserted (the *same* literal objects —
        :meth:`TheoryLiteral.from_formula` shares them) and push the rest."""

        have = self.literals
        keep = 0
        for mine, wanted in zip(have, literals):
            if mine is not wanted:
                break
            keep += 1
        while len(have) > keep:
            self.pop()
        keep = len(have)  # less, if a level held several literals
        self.reused += keep
        for lit in literals[keep:]:
            self.push()
            self.assert_literal(lit)

    def check(self) -> TheoryResult:
        """Decide the conjunction of the asserted literals in QF_UFLIA.

        Propagated equalities (and any term a probe registers) sit above a
        mark of the closure that is popped before returning.
        """

        self.cc.push()
        result = self._propagate()
        self.cc.pop()
        return result

    def _propagate(self) -> TheoryResult:
        cc, literals = self.cc, self.literals
        for _round in range(_MAX_PROPAGATION_ROUNDS):
            if cc.has_constant_conflict():
                return TheoryResult("unsat")

            # 2. Build the LIA problem over class handles.
            eqs: list[LinCon] = []
            les: list[LinCon] = []
            nes: list[LinCon] = []
            for lit in literals:
                coeffs, const = _lin_over_classes(lit.term, cc)
                con = LinCon.make(coeffs, const)
                if lit.kind == "eq":
                    eqs.append(con)
                elif lit.kind == "le":
                    les.append(con)
                else:
                    nes.append(con)
            # Classes merged with numerals already substituted; classes holding
            # two merged atoms share a handle, so CC equalities are implicit.
            trail = LiaTrail()
            status = lia_check(eqs, les, nes, trail)
            if status == "unsat":
                return TheoryResult("unsat")

            # 3. Probe for LIA-implied equalities between *relevant* pairs and
            #    feed them back (Nelson-Oppen propagation, sound but partial).
            #    Only equalities between same-position arguments of two
            #    applications of the same function can trigger new congruences,
            #    so those are the only pairs worth a solver probe.
            # The closure must stay frozen during the probe loop — the LIA
            # problem above was built against its current class handles — so
            # proved equalities are collected first and merged afterwards.
            proved: list[tuple[Term, Term]] = []
            for a, b in _congruence_candidate_pairs(literals, cc):
                ca, consta = _lin_over_classes(a, cc)
                cb, constb = _lin_over_classes(b, cc)
                diff = dict(ca)
                for v, c in cb.items():
                    diff[v] = diff.get(v, 0) - c
                probe = LinCon.make(diff, consta - constb)
                if lia_check(eqs, les, nes + [probe]) == "unsat":
                    proved.append((a, b))
            if not proved:
                if status != "sat":
                    return TheoryResult("unknown")
                # The closure and the elimination trail of *this* round are the
                # model: nothing is solved a second time to exhibit it.
                return TheoryResult("sat", _witness(cc, trail))
            for a, b in proved:
                cc.assert_equal(a, b)

        return TheoryResult("unknown")


def check_literals(
    literals: list[TheoryLiteral], stack: Optional[TheoryStack] = None
) -> TheoryResult:
    """Decide the conjunction of ``literals`` in QF_UFLIA.

    Results are memoised on the literal set — the core-minimisation loop
    re-checks overlapping subsets aggressively, and the DPLL(T) loop often
    revisits the same sub-assignment across lemma rounds.  A miss is decided
    on ``stack`` (a fresh one when the caller keeps none), which is left
    holding ``literals`` for the next check to share a prefix with; a hit
    asserts nothing.
    """

    key = frozenset(literals)
    with _CHECK_CACHE_LOCK:
        cached = _CHECK_CACHE.get(key)
        if cached is not None:
            _CHECK_CACHE.move_to_end(key)
            return TheoryResult(cached) if isinstance(cached, str) else TheoryResult("sat", cached)
    if stack is None:
        stack = TheoryStack()
    stack.assert_exactly(literals)
    result = stack.check()
    with _CHECK_CACHE_LOCK:
        _CHECK_CACHE[key] = result.status if result.witness is None else result.witness
        if len(_CHECK_CACHE) > _CHECK_CACHE_LIMIT:
            _CHECK_CACHE.popitem(last=False)
    return result


def _witness(cc: CongruenceClosure, trail: LiaTrail) -> Optional[Witness]:
    """The interpretation read off a satisfiable round: every atom takes its
    class numeral or the LIA value of its class handle, every application
    becomes one table row.  ``None`` when integer rounding or functionality
    (two rows with equal arguments, different values) defeats it.

    A candidate only — :class:`repro.smt.solver.Solver` evaluates the whole
    formula under it before relying on it.
    """

    values = trail.model()
    if values is None:
        return None

    def value_of(t: Term) -> int:
        if isinstance(t, Num):
            return t.value
        if isinstance(t, Lin):
            return t.const + sum(c * value_of(a) for a, c in t.coeffs)
        handle, constant = cc.handle(t)
        return values.get(handle, 0) if constant is None else constant

    entries: dict[WitnessKey, int] = {}
    for t in cc.terms():
        if isinstance(t, Sym):
            entries[t.name] = value_of(t)
        elif isinstance(t, App):
            value = value_of(t)
            if entries.setdefault((t.func, *map(value_of, t.args)), value) != value:
                return None
    return tuple(x for item in entries.items() if item[1] for x in item)


_MAX_CANDIDATE_PAIRS = 40


def _congruence_candidate_pairs(
    literals: list[TheoryLiteral], cc: CongruenceClosure
) -> list[tuple[Term, Term]]:
    """Argument pairs whose equality could merge two applications."""

    by_func: dict[tuple[str, int], list[App]] = {}
    apps: dict[App, None] = {}
    for lit in literals:
        for found in _literal_apps(lit):
            apps[found] = None  # an existing key keeps its place
    for atom in apps:
        by_func.setdefault((atom.func, len(atom.args)), []).append(atom)
    pairs: list[tuple[Term, Term]] = []
    seen_pairs: set[tuple[Term, Term]] = set()
    for group in by_func.values():
        group.sort(key=_atom_key)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if cc.are_equal(group[i], group[j]):
                    continue
                # Congruence needs *every* argument position to merge, and
                # distinct numerals never can — skip such pairs entirely.
                if any(
                    isinstance(x, Num) and isinstance(y, Num) and x != y
                    for x, y in zip(group[i].args, group[j].args)
                ):
                    continue
                for x, y in zip(group[i].args, group[j].args):
                    if cc.are_equal(x, y):
                        continue
                    key = (x, y) if _atom_key(x) <= _atom_key(y) else (y, x)
                    if key not in seen_pairs:
                        seen_pairs.add(key)
                        pairs.append(key)
                    if len(pairs) >= _MAX_CANDIDATE_PAIRS:
                        return pairs
    return pairs


def minimize_core(
    literals: list[TheoryLiteral], budget: int = 12, stack: Optional[TheoryStack] = None
) -> tuple[TheoryLiteral, ...]:
    """Greedy deletion-based minimisation of an unsat literal set.

    Each surviving literal is necessary relative to the others (a local
    minimum).  ``budget`` caps both the input size and the number of
    re-checks; the full set is returned unminimised when either would be
    exceeded, which is sound (just a weaker blocking lemma for the SAT
    core — relevancy filtering already keeps these sets small).  A deletion
    candidate shares the prefix before the deleted literal with what
    ``stack`` holds, so each re-check re-asserts only the suffix.
    """

    if len(literals) > budget:
        return tuple(literals)
    core = list(literals)
    checks = 0
    i = 0
    while i < len(core) and checks < budget:
        candidate = core[:i] + core[i + 1 :]
        checks += 1
        if candidate and check_literals(candidate, stack).status == "unsat":
            core = candidate
        else:
            i += 1
    return tuple(core)
