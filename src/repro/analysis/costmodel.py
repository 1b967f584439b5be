"""Static expression costs.

Under Figure 2's semantics the cost of evaluating an *expression* is
independent of the environment (constants, variable reads, operators and
library calls all have fixed prices, and there is no short-circuiting), so
it can be computed statically.  The cross-simplification judgments
``Ψ ⊢i e : e'`` and ``Ψ ⊢b e : e'`` require ``cost(e') <= cost(e)``; this
module supplies that ``cost``.

Statement costs *do* depend on control flow; their worst case is
:func:`repro.analysis.static.costbound.stmt_cost_upper`.
"""

from __future__ import annotations

from ..lang.ast import (
    Arg,
    BinOp,
    BoolConst,
    BoolOp,
    Call,
    Cmp,
    Expr,
    IntConst,
    Not,
    StrConst,
    Var,
)
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.functions import FunctionTable

__all__ = ["DEFAULT_CALL_COST", "expr_cost"]

# The static price of a call to a function absent from the table.
DEFAULT_CALL_COST = 10


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
            call_cost = DEFAULT_CALL_COST
        return call_cost + sum(expr_cost(a, functions, cm) for a in e.args)
    if isinstance(e, BinOp):
        sides = expr_cost(e.left, functions, cm) + expr_cost(e.right, functions, cm)
        return cm.arith + sides
    if isinstance(e, Cmp):
        sides = expr_cost(e.left, functions, cm) + expr_cost(e.right, functions, cm)
        return cm.cmp + sides
    if isinstance(e, Not):
        return cm.neg + expr_cost(e.operand, functions, cm)
    if isinstance(e, BoolOp):
        sides = expr_cost(e.left, functions, cm) + expr_cost(e.right, functions, cm)
        return cm.logic + sides
    raise TypeError(f"not an expression: {e!r}")

