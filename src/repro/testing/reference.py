"""Reference implementations that tests compare the optimised code against.

:func:`rename_syms_full_walk` is the substitution :mod:`repro.smt.terms`
used before renaming became local: it rebuilds and re-canonicalises *every*
node of the formula, touched or not.  It is O(|Ψ|) per call and must not be
used by the product; it exists so that a property test can require the
local :func:`repro.smt.terms.rename_syms` to return an equal formula.

:func:`reference_check` is the DPLL(T) loop :class:`repro.smt.solver.Solver`
ran before it had a cheap path per common answer: no formula cache, no
witness, no theory memo, no interned literals, the *whole* formula goes
through CNF and SAT (no literal base), every theory check is asserted on a
stack of its own, and *every* theory conflict — forced or not — is
minimised, blocked and handed back to the SAT core.  A differential test
requires the solver to agree with it on ``unsat`` versus
not-``unsat``, the one distinction the calculus acts on.

The ``*_full_walk`` collectors over :mod:`repro.lang.ast` are what
:mod:`repro.lang.visitors` and :mod:`repro.analysis.related` computed before
their answers became slots of the node: every call walks the whole fragment
and reads no slot, so a property test can require the slot-backed collectors
to agree with them on nodes whose slots are empty, partly filled or full.
The two path facts — :func:`notify_counts_full_walk` and
:func:`must_assigned_full_walk` — enumerate the paths themselves, every
loop run zero, one and two times, where :mod:`repro.lang.visitors` folds
them into one interval or one intersection per statement.  They are
exponential in the branches of a fragment: for test-sized programs only.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, Mapping, TypeVar

from ..lang import ast
from ..smt.cnf import CnfBuilder
from ..smt.combine import TheoryLiteral, TheoryStack
from ..smt.sat import SatSolver
from ..smt.terms import (
    App,
    Eq,
    FAnd,
    FFalse,
    FNot,
    FOr,
    FTrue,
    Formula,
    Le,
    Lin,
    Num,
    Sym,
    Term,
    eq_f,
    fand,
    fnot,
    for_,
    le_f,
    t_add,
    t_scale,
)

__all__ = [
    "rename_syms_full_walk",
    "rename_syms_term_full_walk",
    "reference_check",
    "expr_vars_full_walk",
    "expr_args_full_walk",
    "expr_calls_full_walk",
    "expr_size_full_walk",
    "stmt_vars_full_walk",
    "assigned_vars_full_walk",
    "stmt_size_full_walk",
    "expr_features_full_walk",
    "notify_counts_full_walk",
    "must_assigned_full_walk",
]


def rename_syms_term_full_walk(t: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(t, Num):
        return t
    if isinstance(t, Sym):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(t.func, tuple(rename_syms_term_full_walk(a, mapping) for a in t.args))
    if isinstance(t, Lin):
        result: Term = Num(t.const)
        for atom, coef in t.coeffs:
            result = t_add(result, t_scale(coef, rename_syms_term_full_walk(atom, mapping)))
        return result
    raise TypeError(f"not a term: {t!r}")


def rename_syms_full_walk(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    if isinstance(f, (FTrue, FFalse)):
        return f
    if isinstance(f, Le):
        return le_f(rename_syms_term_full_walk(f.term, mapping), Num(0))
    if isinstance(f, Eq):
        return eq_f(rename_syms_term_full_walk(f.term, mapping), Num(0))
    if isinstance(f, FNot):
        return fnot(rename_syms_full_walk(f.operand, mapping))
    if isinstance(f, FAnd):
        return fand(*(rename_syms_full_walk(g, mapping) for g in f.args))
    if isinstance(f, FOr):
        return for_(*(rename_syms_full_walk(g, mapping) for g in f.args))
    raise TypeError(f"not a formula: {f!r}")


def _literal(atom: Formula, positive: bool) -> TheoryLiteral:
    if isinstance(atom, Eq):
        return TheoryLiteral("eq" if positive else "ne", atom.term)
    if not isinstance(atom, Le):
        raise TypeError(f"not a theory atom: {atom!r}")
    if positive:
        return TheoryLiteral("le", atom.term)
    flipped = fnot(atom)  # not (t <= 0)  ==  1 - t <= 0
    assert isinstance(flipped, Le)
    return TheoryLiteral("le", flipped.term)


def _decide_alone(literals: list[TheoryLiteral]) -> str:
    """The theory's status for ``literals`` on a stack nothing else touched."""

    stack = TheoryStack()
    stack.assert_exactly(literals)
    return stack.check().status


def reference_check(f: Formula, lemma_budget: int = 400, core_budget: int = 12) -> str:
    """``'sat'`` / ``'unsat'`` / ``'unknown'`` for ``f``, from scratch."""

    if isinstance(f, FTrue):
        return "sat"
    if isinstance(f, FFalse):
        return "unsat"
    sat = SatSolver()
    builder = CnfBuilder(sat)
    builder.assert_formula(f)
    for _ in range(lemma_budget):
        result = sat.solve()
        if result.status != "sat":
            return result.status
        assignment = builder.sufficient_literals(result.model)
        literals = [_literal(atom, value) for atom, value in assignment]
        status = _decide_alone(literals)
        if status != "unsat":
            return status
        # Greedy deletion, as ``combine.minimize_core`` but never memoised.
        core = list(literals)
        if len(core) <= core_budget:
            i = 0
            for _check in range(core_budget):
                if i >= len(core):
                    break
                candidate = core[:i] + core[i + 1 :]
                if candidate and _decide_alone(candidate) == "unsat":
                    core = candidate
                else:
                    i += 1
        sat.reset_to_root()
        sat.add_clause(
            [
                -builder.atom_vars[atom] if value else builder.atom_vars[atom]
                for (atom, value), literal in zip(assignment, literals)
                if literal in core
            ]
        )
    return "unknown"


def _subexpressions(e: ast.Expr) -> Iterator[ast.Expr]:
    yield e
    if isinstance(e, ast.Call):
        for a in e.args:
            yield from _subexpressions(a)
    elif isinstance(e, (ast.BinOp, ast.Cmp, ast.BoolOp)):
        yield from _subexpressions(e.left)
        yield from _subexpressions(e.right)
    elif isinstance(e, ast.Not):
        yield from _subexpressions(e.operand)


def _substatements(s: ast.Stmt) -> Iterator[ast.Stmt]:
    yield s
    if isinstance(s, ast.Seq):
        for sub in s.stmts:
            yield from _substatements(sub)
    elif isinstance(s, ast.If):
        yield from _substatements(s.then)
        yield from _substatements(s.orelse)
    elif isinstance(s, ast.While):
        yield from _substatements(s.body)


def _stmt_exprs(s: ast.Stmt) -> Iterator[ast.Expr]:
    for sub in _substatements(s):
        if isinstance(sub, (ast.Assign, ast.Notify)):
            yield sub.expr
        elif isinstance(sub, (ast.If, ast.While)):
            yield sub.cond


def expr_vars_full_walk(e: ast.Expr) -> set[str]:
    return {sub.name for sub in _subexpressions(e) if isinstance(sub, ast.Var)}


def expr_args_full_walk(e: ast.Expr) -> set[str]:
    return {sub.name for sub in _subexpressions(e) if isinstance(sub, ast.Arg)}


def expr_calls_full_walk(e: ast.Expr) -> set[str]:
    return {sub.func for sub in _subexpressions(e) if isinstance(sub, ast.Call)}


def expr_size_full_walk(e: ast.Expr) -> int:
    return sum(1 for _ in _subexpressions(e))


def assigned_vars_full_walk(s: ast.Stmt) -> set[str]:
    return {sub.var for sub in _substatements(s) if isinstance(sub, ast.Assign)}


def stmt_vars_full_walk(s: ast.Stmt) -> set[str]:
    names = assigned_vars_full_walk(s)
    for e in _stmt_exprs(s):
        names |= expr_vars_full_walk(e)
    return names


def stmt_size_full_walk(s: ast.Stmt) -> int:
    return sum(1 for _ in _substatements(s)) + sum(map(expr_size_full_walk, _stmt_exprs(s)))


def expr_features_full_walk(x: ast.Expr | ast.Stmt) -> tuple[set[object], set[ast.Expr], set[str]]:
    """``(call signatures, comparison subjects, bare compared locals)`` of ``x``."""

    ground = (ast.Arg, ast.IntConst, ast.StrConst, ast.BoolConst)
    calls: set[object] = set()
    subjects: set[ast.Expr] = set()
    compared: set[str] = set()
    for e in [x] if isinstance(x, ast.Expr) else _stmt_exprs(x):
        for sub in _subexpressions(e):
            if isinstance(sub, ast.Call):
                calls.add(sub if all(isinstance(a, ground) for a in sub.args) else sub.func)
            elif isinstance(sub, ast.Cmp):
                for side in (sub.left, sub.right):
                    if isinstance(side, ast.Var):
                        compared.add(side.name)
                    elif not isinstance(side, (ast.IntConst, ast.StrConst, ast.BoolConst)):
                        subjects.add(side)
    return calls, subjects, compared



_P = TypeVar("_P", bound=Hashable)  # what a path has done so far


def _paths(
    s: ast.Stmt,
    entries: frozenset[_P],
    step: Callable[[_P, ast.Stmt], _P],
    reach: Callable[[tuple[int, ...], ast.Stmt, frozenset[_P]], None],
    at: tuple[int, ...] = (),
) -> frozenset[_P]:
    """The ends of every path through ``s`` from each of ``entries``.

    ``step`` extends a path by an ``Assign`` or ``Notify``; ``reach`` sees,
    per statement but ``Seq`` and ``Skip`` (by its position ``at``), the
    paths reaching it.  A loop runs its body zero, one or two times.
    """

    if isinstance(s, ast.Seq):
        for i, sub in enumerate(s.stmts):
            entries = _paths(sub, entries, step, reach, at + (i,))
        return entries
    if isinstance(s, ast.Skip):
        return entries
    reach(at, s, entries)
    if isinstance(s, (ast.Assign, ast.Notify)):
        return frozenset(step(path, s) for path in entries)
    if isinstance(s, ast.If):
        then = _paths(s.then, entries, step, reach, at + (0,))
        return then | _paths(s.orelse, entries, step, reach, at + (1,))
    assert isinstance(s, ast.While)
    once = _paths(s.body, entries, step, reach, at + (0,))
    return entries | once | _paths(s.body, once, step, reach, at + (0,))


def notify_counts_full_walk(s: ast.Stmt) -> dict[str, tuple[int, int]]:
    """Per pid ``s`` may notify, in sorted order: the fewest and most
    broadcasts over every path, "two or more" counted as two."""

    pids = sorted({sub.pid for sub in _substatements(s) if isinstance(sub, ast.Notify)})

    def step(path: tuple[int, ...], st: ast.Stmt) -> tuple[int, ...]:
        if not isinstance(st, ast.Notify):
            return path
        i = pids.index(st.pid)
        return path[:i] + (min(path[i] + 1, 2),) + path[i + 1 :]

    def ignore(at: tuple[int, ...], st: ast.Stmt, entries: frozenset[tuple[int, ...]]) -> None:
        pass

    ends = _paths(s, frozenset({(0,) * len(pids)}), step, ignore)
    return {pid: (min(e[i] for e in ends), max(e[i] for e in ends)) for i, pid in enumerate(pids)}


def must_assigned_full_walk(s: ast.Stmt) -> list[tuple[ast.Stmt, frozenset[str]]]:
    """Each statement of ``s`` but ``Seq`` and ``Skip``, in program order,
    with the locals every path reaching it has assigned."""

    def step(path: frozenset[str], st: ast.Stmt) -> frozenset[str]:
        return path | {st.var} if isinstance(st, ast.Assign) else path

    seen: dict[tuple[int, ...], tuple[ast.Stmt, frozenset[str]]] = {}

    def reach(at: tuple[int, ...], st: ast.Stmt, entries: frozenset[frozenset[str]]) -> None:
        must = frozenset.intersection(*entries)
        seen[at] = (st, must & seen[at][1] if at in seen else must)

    _paths(s, frozenset({frozenset[str]()}), step, reach)
    return [seen[at] for at in sorted(seen)]
