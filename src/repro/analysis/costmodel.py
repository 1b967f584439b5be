"""Static expression costs.

Under Figure 2's semantics the cost of evaluating an *expression* is
independent of the environment (constants, variable reads, operators and
library calls all have fixed prices, and there is no short-circuiting), so
it can be computed statically.  The cross-simplification judgments
``Ψ ⊢i e : e'`` and ``Ψ ⊢b e : e'`` require ``cost(e') <= cost(e)``; this
module supplies that ``cost``.

Statement costs *do* depend on control flow; :func:`stmt_cost_bounds`
returns (best-case, worst-case) bounds, with ``None`` as the worst case for
loops, which is what the ``related``/rule-selection heuristics need.
"""

from __future__ import annotations

from ..lang.ast import (
    Arg,
    Assign,
    BinOp,
    BoolConst,
    BoolOp,
    Call,
    Cmp,
    Expr,
    If,
    IntConst,
    Not,
    Notify,
    Seq,
    Skip,
    Stmt,
    StrConst,
    Var,
    While,
)
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.functions import FunctionTable

__all__ = ["expr_cost", "stmt_cost_bounds"]

_DEFAULT_CALL_COST = 10


def expr_cost(
    e: Expr,
    functions: FunctionTable | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> int:
    """The exact evaluation cost of ``e`` under the cost semantics."""

    cm = cost_model
    if isinstance(e, IntConst):
        return cm.int_const
    if isinstance(e, StrConst):
        return cm.str_const
    if isinstance(e, BoolConst):
        return cm.bool_const
    if isinstance(e, Arg):
        return cm.arg
    if isinstance(e, Var):
        return cm.var
    if isinstance(e, Call):
        if functions is not None and e.func in functions:
            call_cost = functions[e.func].cost
        else:
            call_cost = _DEFAULT_CALL_COST
        return call_cost + sum(expr_cost(a, functions, cm) for a in e.args)
    if isinstance(e, BinOp):
        sides = expr_cost(e.left, functions, cm) + expr_cost(e.right, functions, cm)
        return cm.arith_cost(e.op) + sides
    if isinstance(e, Cmp):
        sides = expr_cost(e.left, functions, cm) + expr_cost(e.right, functions, cm)
        return cm.cmp_cost(e.op) + sides
    if isinstance(e, Not):
        return cm.neg + expr_cost(e.operand, functions, cm)
    if isinstance(e, BoolOp):
        sides = expr_cost(e.left, functions, cm) + expr_cost(e.right, functions, cm)
        return cm.logic_cost(e.op) + sides
    raise TypeError(f"not an expression: {e!r}")


def stmt_cost_bounds(
    s: Stmt,
    functions: FunctionTable | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> tuple[int, int | None]:
    """(min, max) execution cost of ``s``; max is ``None`` when unbounded."""

    cm = cost_model
    if isinstance(s, Skip):
        return 0, 0
    if isinstance(s, Assign):
        c = expr_cost(s.expr, functions, cm) + cm.assign
        return c, c
    if isinstance(s, Notify):
        c = expr_cost(s.expr, functions, cm) + cm.notify
        return c, c
    if isinstance(s, Seq):
        lo_total, hi_total = 0, 0
        for sub in s.stmts:
            lo, hi = stmt_cost_bounds(sub, functions, cm)
            lo_total += lo
            hi_total = None if hi_total is None or hi is None else hi_total + hi
        return lo_total, hi_total
    if isinstance(s, If):
        test = expr_cost(s.cond, functions, cm) + cm.branch
        lo1, hi1 = stmt_cost_bounds(s.then, functions, cm)
        lo2, hi2 = stmt_cost_bounds(s.orelse, functions, cm)
        hi = None if hi1 is None or hi2 is None else test + max(hi1, hi2)
        return test + min(lo1, lo2), hi
    if isinstance(s, While):
        test = expr_cost(s.cond, functions, cm) + cm.branch
        return test, None
    raise TypeError(f"not a statement: {s!r}")
