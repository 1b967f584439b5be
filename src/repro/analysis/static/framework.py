"""A forward abstract-interpretation framework over the Figure-1 IR.

The IR is *structured* (no gotos), so the classic worklist over a CFG
collapses into a recursive interpreter with one fixpoint per ``While``:

* ``Seq`` threads the state through its statements;
* ``If`` analyses both arms under ``assume``-refined states and joins;
* ``While`` iterates ``inv := inv ∇ (inv ⊔ post(body under inv ∧ guard))``
  until stable, applying the domain's widening after
  :data:`WIDEN_AFTER` ascending steps (and the domain's *last-resort*
  ``widen_top`` after :data:`WIDEN_TOP_AFTER`, so slow climbs — e.g.
  threshold widening over a constant-rich program — still terminate),
  then exits under ``inv ∧ ¬guard``.

States are :class:`~repro.analysis.static.values.StaticEnv` stores; the
:class:`~repro.analysis.static.domains.IntervalConstDomain` supplies the
widenings and the transfer functions.  It is the only domain: facts that
never read a branch condition — definite assignment, notify multiplicity —
are derived from the statement itself (:mod:`repro.lang.visitors`).

``visit`` observers receive ``(stmt, pre_state)`` for every statement in
program order — inside loops they observe the *stabilised* invariant pass
only, so a linter sees each syntactic statement exactly once with a state
that covers every concrete visit.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...lang.ast import Assign, If, Notify, Program, Seq, Skip, Stmt, While
from .domains import IntervalConstDomain
from .values import StaticEnv

__all__ = [
    "analyze_stmt",
    "analyze_program",
    "loop_invariant_state",
    "WIDEN_AFTER",
    "WIDEN_TOP_AFTER",
    "MAX_ITER",
]

WIDEN_AFTER = 3
WIDEN_TOP_AFTER = 24
MAX_ITER = 64

Visit = Callable[[Stmt, StaticEnv], None]


def analyze_stmt(
    domain: IntervalConstDomain,
    state: StaticEnv,
    stmt: Stmt,
    visit: Optional[Visit] = None,
) -> StaticEnv:
    """Abstractly execute ``stmt`` from ``state``; returns the post-state."""

    if state.unreachable:
        return state

    if visit is not None and not isinstance(stmt, (Seq, Skip)):
        visit(stmt, state)

    if isinstance(stmt, (Skip, Notify)):
        return state
    if isinstance(stmt, Assign):
        return domain.transfer_assign(state, stmt.var, stmt.expr)
    if isinstance(stmt, Seq):
        for sub in stmt.stmts:
            state = analyze_stmt(domain, state, sub, visit)
            if state.unreachable:
                return state
        return state
    if isinstance(stmt, If):
        then_in = domain.transfer_assume(state, stmt.cond, True)
        else_in = domain.transfer_assume(state, stmt.cond, False)
        then_out = analyze_stmt(domain, then_in, stmt.then, visit)
        else_out = analyze_stmt(domain, else_in, stmt.orelse, visit)
        return then_out.join(else_out)
    if isinstance(stmt, While):
        inv = loop_invariant_state(domain, state, stmt)
        if visit is not None:
            # One observed pass under the stabilised invariant; its result
            # is discarded (the fixpoint already absorbed it).
            body_in = domain.transfer_assume(inv, stmt.cond, True)
            analyze_stmt(domain, body_in, stmt.body, visit)
        return domain.transfer_assume(inv, stmt.cond, False)
    raise TypeError(f"not a statement: {stmt!r}")


def loop_invariant_state(domain: IntervalConstDomain, entry: StaticEnv, loop: While) -> StaticEnv:
    """The structured fixpoint: a state stable across loop iterations."""

    inv = entry
    for iteration in range(MAX_ITER):
        body_in = domain.transfer_assume(inv, loop.cond, True)
        body_out = analyze_stmt(domain, body_in, loop.body)
        nxt = entry.join(body_out)
        if nxt.leq(inv):
            return inv
        if iteration >= WIDEN_TOP_AFTER:
            inv = domain.widen_top(inv, nxt)
        elif iteration >= WIDEN_AFTER:
            inv = domain.widen(inv, nxt)
        else:
            inv = nxt
    # The widening contract guarantees convergence long before MAX_ITER;
    # reaching it means a domain bug, so fail loudly rather than return an
    # invariant that may not be inductive.
    raise RuntimeError(f"abstract fixpoint did not converge in {MAX_ITER} iterations")


def analyze_program(
    domain: IntervalConstDomain,
    program: Program,
    visit: Optional[Visit] = None,
) -> StaticEnv:
    """Analyze a whole program from the empty (top) store."""

    return analyze_stmt(domain, StaticEnv(), program.body, visit)
