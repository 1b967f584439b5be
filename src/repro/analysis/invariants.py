"""Loop-invariant inference for the Loop 2 / Loop 3 rules (Figure 7).

The loop rules need an invariant ``Ψ1`` of the fused loop
``while (e1 ∧ e2) do S1; S2`` strong enough to relate the two programs'
iteration counts (``Ψ1 ∧ ¬(e1∧e2) |= ¬e1 ∧ ¬e2`` for Loop 2, or ``|= e1``
for Loop 3).  In the paper's workloads these invariants are affine
equalities between the two loops' induction variables (e.g. ``j = i - 1``
in Example 6), so we use a guess-and-check scheme:

1. **Stable facts** — the entry path condition speaks about values, not
   names (see :mod:`repro.analysis.sp`), so all of it holds at every loop
   head; at loop entry the locals the body writes are bound to fresh
   symbols in the store, which stand for their loop-head values.
2. **Affine candidates** — for every pair of integer variables of interest
   the entry state is probed for an entailed difference ``u - v = c``
   (``c`` drawn from a small constant pool seeded by the program text).
3. **Inductiveness check** — the candidates that pass initiation are
   assumed together over the loop-head symbols and re-checked through the
   store one symbolic execution of the body
   (:class:`~repro.analysis.sp.SpEngine`) leaves, per round;
   the ones the solver does not re-prove are dropped and the round repeats
   until none drops (the Houdini fixpoint), so candidates may support each
   other and what is left is the greatest inductive subset.

Everything reported is *proved* inductive by the SMT solver, so the loop
rules can rely on it; a missed invariant merely means the loops are run
sequentially (the Step/Seq fallback), never a wrong transformation.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..lang.ast import Expr, IntConst, Stmt
from ..lang.functions import INT
from ..lang.visitors import assigned_vars, expr_args, expr_vars, stmt_vars, subexpressions
from ..smt.interface import Store, arg_sym, var_sym
from ..smt.solver import Solver
from ..smt.terms import (
    Formula,
    Le,
    Num,
    Sym,
    TRUE_F,
    Term,
    cone_of_influence,
    eq_f,
    fand,
    le_f,
    rename_syms,
    t_sub,
)
from .sp import SpEngine

__all__ = ["loop_invariant"]

_BASE_CONSTANT_POOL = (-2, -1, 0, 1, 2)
_MAX_CANDIDATE_SYMS = 10


def _program_constants(body: Stmt, conds: Iterable[Expr]) -> list[int]:
    """The probe pool: small offsets plus loop-bound differences.

    Induction variables of fusable loops differ by small constants (or by
    differences of their bounds), so the pool stays tiny — each extra
    constant costs one entailment probe per variable pair.
    """

    consts: set[int] = set(_BASE_CONSTANT_POOL)
    bounds: set[int] = set()
    for e in conds:
        for sub in subexpressions(e):
            if isinstance(sub, IntConst) and abs(sub.value) <= 1000:
                bounds.add(sub.value)
    for a in bounds:
        for b in bounds:
            if abs(a - b) <= 64:
                consts.add(a - b)
    return sorted(consts, key=abs)


def _candidate_syms(engine: SpEngine, body: Stmt, conds: list[Expr]) -> list[Sym]:
    names: list[tuple[str, bool]] = []
    seen: set[str] = set()
    for e in conds:
        for n in sorted(expr_vars(e)):
            if n not in seen:
                seen.add(n)
                names.append((n, False))
        for n in sorted(expr_args(e)):
            if ("@" + n) not in seen:
                seen.add("@" + n)
                names.append((n, True))
    for n in sorted(stmt_vars(body)):
        if n not in seen:
            seen.add(n)
            names.append((n, False))
    syms: list[Sym] = []
    for n, is_arg in names[:_MAX_CANDIDATE_SYMS]:
        if not is_arg and engine.sorts.get(n, INT) != INT:
            continue
        syms.append(arg_sym(n) if is_arg else var_sym(n))
    return syms


def _bound_constants(conds: Iterable[Expr]) -> list[int]:
    """Constants from the loop guards, widened by one in both directions."""

    out: set[int] = set()
    for e in conds:
        for sub in subexpressions(e):
            if isinstance(sub, IntConst) and abs(sub.value) <= 1000:
                out.update((sub.value - 1, sub.value, sub.value + 1))
    return sorted(out, key=abs)


def _candidate_pairs(
    engine: SpEngine, syms: list[Sym], conds: list[Expr], body: Stmt
) -> list[tuple[Sym, Sym]]:
    """Variable pairs plausibly related by an affine equality.

    Probing every pair costs one entailment per pair per pool constant, so
    pairs are limited to those with a structural reason to be related:
    both appear in the loop guards (induction counters), or both are
    assigned in the body from right-hand sides calling the same library
    functions (parallel accumulators).
    """

    from ..lang.ast import Assign, If as IfStmt, Seq, While as WhileStmt
    from ..lang.visitors import expr_calls

    cond_names: set[str] = set()
    for e in conds:
        cond_names |= {var_sym(n).name for n in expr_vars(e)}
        cond_names |= {arg_sym(n).name for n in expr_args(e)}

    rhs_calls: dict[str, set[str]] = {}

    def walk(s: Stmt) -> None:
        if isinstance(s, Assign):
            rhs_calls.setdefault(var_sym(s.var).name, set()).update(expr_calls(s.expr))
        elif isinstance(s, Seq):
            for sub in s.stmts:
                walk(sub)
        elif isinstance(s, IfStmt):
            walk(s.then)
            walk(s.orelse)
        elif isinstance(s, WhileStmt):
            walk(s.body)

    walk(body)

    pairs: list[tuple[Sym, Sym]] = []
    for i in range(len(syms)):
        for j in range(i + 1, len(syms)):
            u, v = syms[i], syms[j]
            if u.name in cond_names and v.name in cond_names:
                pairs.append((u, v))
                continue
            cu, cv = rhs_calls.get(u.name), rhs_calls.get(v.name)
            if cu and cv and cu & cv:
                pairs.append((u, v))
    return pairs


def _reader(store: Store, syms: list[Sym]) -> Callable[[Formula], Formula]:
    """A candidate (over the locals' own symbols) as read through ``store``."""

    mapping: dict[str, Term] = {}
    for s in syms:
        value = store.get(s.name[2:]) if s.name.startswith("v!") else None
        if isinstance(value, Term):
            mapping[s.name] = value
    return lambda cand: rename_syms(cand, mapping)


def loop_invariant(
    engine: SpEngine,
    solver: Solver,
    psi: Formula,
    conds: list[Expr],
    body: Stmt,
    store: Store,
) -> Formula:
    """Infer an inductive invariant of ``while (/\\ conds) do body``.

    The loop is entered in state ``(psi, store)``.  On return ``store``
    holds the loop-head values — every local the body writes is bound to a
    fresh symbol — and the result is ``psi`` conjoined with the proved
    invariant facts over those symbols.  Candidates are SMT-entailed
    pairwise differences and guard bounds (guess-and-check); only those the
    solver re-proves through the body are kept, so a missed candidate costs
    completeness, never soundness.
    """

    syms = _candidate_syms(engine, body, conds)
    at_entry = _reader(store, syms)
    engine.havoc(store, assigned_vars(body))
    at_head = _reader(store, syms)

    def initiated(cand: Formula) -> bool:
        goal = at_entry(cand)
        return solver.entails(cone_of_influence(psi, goal), goal)

    # --- candidate generation --------------------------------------------------
    pool = _program_constants(body, conds)
    candidates: list[Formula] = []
    for u, v in _candidate_pairs(engine, syms, conds, body):
        for c in pool:
            cand = eq_f(t_sub(u, v), Num(c))
            if cand == TRUE_F:
                break
            if initiated(cand):
                candidates.append(cand)
                break

    # Bound candidates ``u <= c`` / ``c <= u`` for guard variables: these
    # are what lets Loop 3 conclude that the longer loop's guard is still
    # true when the shorter loop exits (e.g. ``i <= 6`` implies ``i < 10``).
    cond_sym_names: set[str] = set()
    for e in conds:
        cond_sym_names |= {var_sym(n).name for n in expr_vars(e)}
    bound_pool = _bound_constants(conds)
    for u in syms:
        if u.name not in cond_sym_names:
            continue
        for c in bound_pool:
            for cand in (le_f(u, Num(c)), le_f(Num(c), u)):
                if cand in (TRUE_F,) or not isinstance(cand, Le):
                    continue
                if initiated(cand):
                    candidates.append(cand)

    # --- inductiveness: preservation through one body execution -------------
    entry_guard = fand(*(engine.encode_bool(e, store) or TRUE_F for e in conds))

    # Houdini: assume every surviving candidate at once, execute the body
    # once, drop what the solver does not re-prove through the store it
    # leaves, repeat until none drops.  What survives is inductive as a
    # set — the greatest such subset.
    proven = candidates
    while proven:
        after = dict(store)
        post = engine.post(fand(psi, *map(at_head, proven), entry_guard), after, body)
        at_exit = _reader(after, syms)
        kept = [
            c
            for c in proven
            if solver.entails(cone_of_influence(post, goal := at_exit(c)), goal)
        ]
        if len(kept) == len(proven):
            break
        proven = kept

    return fand(psi, *map(at_head, proven))
