"""Static per-operation-kind unit counts — the calibration features.

A profiling sample pairs the wall time a backend observed with the
*static* decomposition of the program it ran: how many units of each
Figure-2 operation kind one execution performs.  The calibration fitter
(:mod:`repro.profiling.calibrate`) then solves for seconds-per-unit
weights by least squares, and :class:`~repro.profiling.model.CalibratedCostModel`
predicts a program's seconds from the same vectors.

Unit semantics, chosen so one regression covers heterogeneous programs:

* every kind except ``call`` counts *operations* (one ``Cmp`` node is one
  ``cmp`` unit);
* ``call`` counts *cost units from the function table* — ``f(x)`` with
  ``cost=40`` contributes 40 ``call`` units — so an expensive library
  call weighs proportionally more than a cheap one under a single fitted
  weight, exactly like Figure 2's ``eval(f(...)) = (c, m)``;
* :data:`RECORD_KIND` counts invocations (1 per run, ``n`` per column
  batch) and absorbs the per-record fixed overhead — dispatch, argument
  binding — that no operation kind explains.

Control flow is resolved statically and deterministically: an ``If``
contributes its test plus the *heavier* branch (worst case, matching the
upper bound :func:`repro.analysis.static.costbound.stmt_cost_upper` reports);
a ``While`` contributes its test plus :data:`LOOP_UNROLL` iterations of
``body + test``.  The approximation is deliberate — calibration is a
regression over many samples, not an exact accounting.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..analysis.costmodel import DEFAULT_CALL_COST
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
    Program,
    Seq,
    Skip,
    Stmt,
    StrConst,
    Var,
    While,
)
from ..lang.functions import FunctionTable

__all__ = ["OP_KINDS", "RECORD_KIND", "LOOP_UNROLL", "op_units", "program_units"]

# The regression feature axes, in canonical order (the fitter and the
# serialized model both iterate this tuple, so weight vectors line up).
OP_KINDS: tuple[str, ...] = (
    "const",
    "var",
    "arg",
    "call",
    "arith",
    "cmp",
    "logic",
    "neg",
    "assign",
    "notify",
    "branch",
)

# Per-invocation overhead pseudo-kind (1 per run, n per batch).
RECORD_KIND = "record"

# Deterministic trip estimate for loops whose bound the static layer
# cannot prove; the same figure for every program keeps rankings stable.
LOOP_UNROLL = 4


def _add(units: Dict[str, float], kind: str, amount: float = 1.0) -> None:
    units[kind] = units.get(kind, 0.0) + amount


def _expr_units(
    e: Expr, functions: Optional[FunctionTable], units: Dict[str, float]
) -> None:
    if isinstance(e, (IntConst, StrConst, BoolConst)):
        _add(units, "const")
    elif isinstance(e, Var):
        _add(units, "var")
    elif isinstance(e, Arg):
        _add(units, "arg")
    elif isinstance(e, Call):
        if functions is not None and e.func in functions:
            call_cost = functions[e.func].cost
        else:
            call_cost = DEFAULT_CALL_COST
        _add(units, "call", float(call_cost))
        for a in e.args:
            _expr_units(a, functions, units)
    elif isinstance(e, BinOp):
        _add(units, "arith")
        _expr_units(e.left, functions, units)
        _expr_units(e.right, functions, units)
    elif isinstance(e, Cmp):
        _add(units, "cmp")
        _expr_units(e.left, functions, units)
        _expr_units(e.right, functions, units)
    elif isinstance(e, BoolOp):
        _add(units, "logic")
        _expr_units(e.left, functions, units)
        _expr_units(e.right, functions, units)
    elif isinstance(e, Not):
        _add(units, "neg")
        _expr_units(e.operand, functions, units)
    else:
        raise TypeError(f"not an expression: {e!r}")


def _scaled_into(
    target: Dict[str, float], source: Mapping[str, float], factor: float
) -> None:
    for kind, amount in source.items():
        _add(target, kind, amount * factor)


def _stmt_units(
    s: Stmt, functions: Optional[FunctionTable], units: Dict[str, float]
) -> None:
    if isinstance(s, Skip):
        return
    if isinstance(s, Assign):
        _expr_units(s.expr, functions, units)
        _add(units, "assign")
        return
    if isinstance(s, Notify):
        _expr_units(s.expr, functions, units)
        _add(units, "notify")
        return
    if isinstance(s, Seq):
        for sub in s.stmts:
            _stmt_units(sub, functions, units)
        return
    if isinstance(s, If):
        _expr_units(s.cond, functions, units)
        _add(units, "branch")
        then_units: Dict[str, float] = {}
        else_units: Dict[str, float] = {}
        _stmt_units(s.then, functions, then_units)
        _stmt_units(s.orelse, functions, else_units)
        # Worst case: keep the heavier branch (by total units — a fixed,
        # model-free tie-break so the vector is deterministic).
        heavier = (
            then_units
            if sum(then_units.values()) >= sum(else_units.values())
            else else_units
        )
        _scaled_into(units, heavier, 1.0)
        return
    if isinstance(s, While):
        test_units: Dict[str, float] = {}
        _expr_units(s.cond, functions, test_units)
        _add(test_units, "branch")
        body_units: Dict[str, float] = {}
        _stmt_units(s.body, functions, body_units)
        # test, then LOOP_UNROLL * (body + test).
        _scaled_into(units, test_units, 1.0 + LOOP_UNROLL)
        _scaled_into(units, body_units, float(LOOP_UNROLL))
        return
    raise TypeError(f"not a statement: {s!r}")


def op_units(
    s: Stmt, functions: Optional[FunctionTable] = None
) -> Dict[str, float]:
    """Per-kind unit counts of one (worst-case) execution of ``s``."""

    units: Dict[str, float] = {}
    _stmt_units(s, functions, units)
    return units


def program_units(
    program: Program, functions: Optional[FunctionTable] = None
) -> Dict[str, float]:
    """Per-kind unit counts of one run of ``program``, including the
    per-invocation :data:`RECORD_KIND` axis."""

    units = op_units(program.body, functions)
    units[RECORD_KIND] = 1.0
    return units
