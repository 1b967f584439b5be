"""Static worst-case cost bounds over the Figure-2 cost semantics.

:func:`stmt_cost_upper` gives exact costs for straight-line code, the
heavier branch of an ``if``, and for loops a **trip-count inference**
driven by the interval domain.  A loop

.. code-block:: text

    m := 1; while (m <= 12) { ...; m := m + 1 }

is bounded because the guard variable starts in a known interval, changes
by a constant amount on every path through the body, and is compared
against a loop-invariant bound — exactly the shape of the paper's yearly
aggregation UDFs and of their Loop-2 fusions.  The resulting bound

``trips * (test + body_ub) + test``

charges one guard evaluation per iteration plus the final failing test,
matching the compiled backend's accounting.

When the interval argument fails, callers may supply ``loop_bound_hook``
— the translation validator plugs the SMT-backed invariant inference of
:mod:`repro.analysis.invariants` in through it.

:func:`classify_shape` places a program on the vectorizability ladder
``straight-line < branch-free < bounded-loop < unbounded`` ("branch-free"
means free of loop back-edges: ``If``-only programs are if-convertible to
predicated straight-line code).  It is a cost-bound question: a program
whose worst-case cost is finite has only bounded loops.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...lang.ast import (
    Assign,
    BinOp,
    BoolOp,
    Cmp,
    Expr,
    If,
    IntConst,
    Notify,
    Program,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
)
from ...lang.cost import DEFAULT_COST_MODEL, CostModel
from ...lang.functions import FunctionTable
from ...lang.visitors import assigned_vars, contains_stmt, expr_vars
from ..costmodel import expr_cost
from .domains import IntervalConstDomain
from .framework import loop_invariant_state
from .values import StaticEnv

__all__ = [
    "constant_step",
    "trip_count_bound",
    "stmt_cost_upper",
    "program_cost_upper",
    "classify_shape",
    "SHAPES",
    "MAX_TRIP_COUNT",
]

# Beyond this many iterations a "bound" is numerically meaningless for the
# ≤-comparison the validator performs; treat it as unbounded.
MAX_TRIP_COUNT = 1_000_000

LoopBoundHook = Callable[[While, StaticEnv], Optional[int]]

_UNKNOWN = object()  # net-effect lattice top: "changes v by who-knows-what"


def _delta_of_assign(var: str, expr: Expr, v: str):
    """The net change ``var := expr`` applies to ``v``; _UNKNOWN if unclear."""

    if var != v:
        return 0
    if isinstance(expr, Var) and expr.name == v:
        return 0
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        left, right = expr.left, expr.right
        if isinstance(left, Var) and left.name == v and isinstance(right, IntConst):
            return right.value if expr.op == "+" else -right.value
        if (
            expr.op == "+"
            and isinstance(right, Var)
            and right.name == v
            and isinstance(left, IntConst)
        ):
            return left.value
    return _UNKNOWN


def _net_deltas(s: Stmt, v: str) -> set[object]:
    """Possible net changes to ``v`` across one execution of ``s``.

    The set is capped: once it contains _UNKNOWN or grows past a handful
    of members the caller gives up anyway.
    """

    if isinstance(s, (Skip, Notify)):
        return {0}
    if isinstance(s, Assign):
        return {_delta_of_assign(s.var, s.expr, v)}
    if isinstance(s, Seq):
        acc = {0}
        for sub in s.stmts:
            step = _net_deltas(sub, v)
            acc = {
                (_UNKNOWN if _UNKNOWN in (a, b) else a + b)
                for a in acc
                for b in step
            }
            if _UNKNOWN in acc or len(acc) > 4:
                return {_UNKNOWN}
        return acc
    if isinstance(s, If):
        return _net_deltas(s.then, v) | _net_deltas(s.orelse, v)
    if isinstance(s, While):
        return {0} if v not in assigned_vars(s.body) else {_UNKNOWN}
    return {_UNKNOWN}


def constant_step(body: Stmt, v: str) -> Optional[int]:
    """``c`` when every path through ``body`` changes ``v`` by exactly ``c``."""

    deltas = _net_deltas(body, v)
    if len(deltas) == 1:
        (d,) = deltas
        if d is not _UNKNOWN:
            return d
    return None


def _guard_conjuncts(cond: Expr) -> list[Expr]:
    if isinstance(cond, BoolOp) and cond.op == "and":
        return _guard_conjuncts(cond.left) + _guard_conjuncts(cond.right)
    return [cond]


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def trip_count_bound(loop: While, env: StaticEnv, body: Optional[Stmt] = None) -> Optional[int]:
    """An upper bound on the iterations of ``loop`` entered from ``env``.

    Each ``and``-conjunct of the guard is tried independently (the loop
    exits as soon as *any* conjunct fails, so the minimum bound wins).
    """

    body = loop.body if body is None else body
    assigned = assigned_vars(body)
    best: Optional[int] = None
    for conjunct in _guard_conjuncts(loop.cond):
        bound = _conjunct_bound(conjunct, env, body, assigned)
        if bound is not None:
            best = bound if best is None else min(best, bound)
    if best is not None and best > MAX_TRIP_COUNT:
        return None
    return best


def _conjunct_bound(
    conjunct: Expr, env: StaticEnv, body: Stmt, assigned: set[str]
) -> Optional[int]:
    if not isinstance(conjunct, Cmp):
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op

    # Orient so the induction variable is on the left: ``v op bound``.
    for var_side, bound_side, orient in ((left, right, "fwd"), (right, left, "rev")):
        if not isinstance(var_side, Var) or var_side.name not in assigned:
            continue
        if expr_vars(bound_side) & assigned:
            continue  # the bound itself moves: no interval argument
        step = constant_step(body, var_side.name)
        if step is None or step == 0:
            continue
        v_iv = env.eval_int(var_side)
        b_iv = env.eval_int(bound_side)
        if op == "=":
            # ``while (v = E)``: a non-zero constant step breaks equality
            # with an invariant bound after the first iteration.
            return 1
        if orient == "fwd":
            # Loop runs while v < E (or <=): needs an *increasing* v.
            if step <= 0 or v_iv.lo is None or b_iv.hi is None:
                continue
            distance = b_iv.hi - v_iv.lo
            if op == "<":
                trips = _ceil_div(distance, step)
            else:
                trips = distance // step + 1
        else:
            # Loop runs while E < v (or <=): needs a *decreasing* v.
            if step >= 0 or v_iv.hi is None or b_iv.lo is None:
                continue
            distance = v_iv.hi - b_iv.lo
            down = -step
            if op == "<":
                trips = _ceil_div(distance, down)
            else:
                trips = distance // down + 1
        return max(0, trips)
    return None


# ---------------------------------------------------------------------------
# Cost upper bounds
# ---------------------------------------------------------------------------


def stmt_cost_upper(
    s: Stmt,
    functions: Optional[FunctionTable],
    cost_model: CostModel,
    env: StaticEnv,
    domain: IntervalConstDomain,
    loop_bound_hook: Optional[LoopBoundHook] = None,
) -> tuple[Optional[int], StaticEnv]:
    """``(upper bound, post-env)`` for ``s`` entered from ``env``.

    ``None`` means no finite bound was derivable.  Unreachable code
    contributes zero — sound under the cost semantics, since it never
    executes.
    """

    cm = cost_model
    if env.unreachable:
        return 0, env
    if isinstance(s, Skip):
        return 0, env
    if isinstance(s, Assign):
        cost = expr_cost(s.expr, functions, cm) + cm.assign
        return cost, domain.transfer_assign(env, s.var, s.expr)
    if isinstance(s, Notify):
        return expr_cost(s.expr, functions, cm) + cm.notify, env
    if isinstance(s, Seq):
        total: Optional[int] = 0
        for sub in s.stmts:
            cost, env = stmt_cost_upper(sub, functions, cm, env, domain, loop_bound_hook)
            total = None if total is None or cost is None else total + cost
        return total, env
    if isinstance(s, If):
        test = expr_cost(s.cond, functions, cm) + cm.branch
        then_in = domain.transfer_assume(env, s.cond, True)
        else_in = domain.transfer_assume(env, s.cond, False)
        then_cost, then_env = stmt_cost_upper(
            s.then, functions, cm, then_in, domain, loop_bound_hook
        )
        else_cost, else_env = stmt_cost_upper(
            s.orelse, functions, cm, else_in, domain, loop_bound_hook
        )
        out_env = then_env.join(else_env)
        if then_in.unreachable:
            return (None if else_cost is None else test + else_cost), out_env
        if else_in.unreachable:
            return (None if then_cost is None else test + then_cost), out_env
        if then_cost is None or else_cost is None:
            return None, out_env
        return test + max(then_cost, else_cost), out_env
    if isinstance(s, While):
        trips = trip_count_bound(s, env)
        if trips is None and loop_bound_hook is not None:
            trips = loop_bound_hook(s, env)
        inv = loop_invariant_state(domain, env, s)
        body_in = domain.transfer_assume(inv, s.cond, True)
        body_cost, _ = stmt_cost_upper(
            s.body, functions, cm, body_in, domain, loop_bound_hook
        )
        exit_env = domain.transfer_assume(inv, s.cond, False)
        test = expr_cost(s.cond, functions, cm) + cm.branch
        if body_in.unreachable:
            return test, exit_env  # guard provably false on entry
        if trips is None or body_cost is None:
            return None, exit_env
        return trips * (test + body_cost) + test, exit_env
    raise TypeError(f"not a statement: {s!r}")


def program_cost_upper(
    program: Program,
    functions: Optional[FunctionTable] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    loop_bound_hook: Optional[LoopBoundHook] = None,
) -> Optional[int]:
    """Worst-case cost of one run of ``program``; None when unbounded."""

    domain = IntervalConstDomain(program)
    cost, _env = stmt_cost_upper(
        program.body, functions, cost_model, StaticEnv(), domain, loop_bound_hook
    )
    return cost


SHAPES = ("straight-line", "branch-free", "bounded-loop", "unbounded")


def classify_shape(
    program: Program,
    functions: Optional[FunctionTable] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> str:
    """Place ``program`` on the vectorizability ladder (:data:`SHAPES`).

    ``straight-line``
        No control flow at all — directly vectorizable.
    ``branch-free``
        No loop back-edges; ``If``-only programs are if-convertible into
        predicated straight-line code.
    ``bounded-loop``
        Every loop has a finite inferred trip count (the program's
        worst-case cost bound is finite) — unrollable.
    ``unbounded``
        At least one loop the trip-count inference cannot bound.
    """

    if contains_stmt(program.body, While):
        bound = program_cost_upper(program, functions, cost_model)
        return "bounded-loop" if bound is not None else "unbounded"
    if contains_stmt(program.body, If):
        return "branch-free"
    return "straight-line"
