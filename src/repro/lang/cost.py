"""The abstract cost model of the paper's operational semantics (Figure 2).

The semantics is parameterised by an abstract ``cost`` function assigning a
price to each kind of operation.  :class:`CostModel` realises that function
as a plain dataclass; the defaults make memory traffic and branching cheap
relative to library calls, which matches the paper's scenario where UDFs
spend their time in calls such as ``getTempOfMonth`` or ``toLower``.

Library-call costs come from the :class:`~repro.lang.functions.FunctionTable`
rather than from the model, since they vary per function (the ``m`` of
``eval(f(...)) = (c, m)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "cost_model_from_weights"]


@dataclass(frozen=True)
class CostModel:
    """Costs for each operation kind in Figure 2's semantics."""

    int_const: int = 0
    str_const: int = 0
    bool_const: int = 0
    var: int = 1
    arg: int = 1
    arith: int = 1
    cmp: int = 1
    neg: int = 1
    logic: int = 1
    assign: int = 1
    notify: int = 1
    branch: int = 2


DEFAULT_COST_MODEL = CostModel()


def cost_model_from_weights(
    weights: Mapping[str, float], reference: str = "var"
) -> CostModel:
    """Fold calibrated seconds-per-unit weights back into a :class:`CostModel`.

    This is the seam the profiling layer plugs into: a
    :class:`repro.profiling.CalibratedCostModel` carries float weights in
    wall seconds; the Figure-2 semantics wants small integers.  The
    ``reference`` kind (default ``var``) is normalized to cost 1 and every
    other kind scaled relative to it, rounded, and floored at 0 — the same
    shape as the defaults above, just measured instead of assumed.

    Unknown or non-positive reference weights fall back to the smallest
    positive weight present, and an all-zero weight vector degrades to
    :data:`DEFAULT_COST_MODEL` (never a zero-cost model, which would make
    the consolidation cost bound vacuous).
    """

    base = float(weights.get(reference, 0.0))
    if base <= 0.0:
        positive = [w for w in weights.values() if w > 0.0]
        if not positive:
            return DEFAULT_COST_MODEL
        base = min(positive)

    def unit(kind: str) -> int:
        return max(0, round(float(weights.get(kind, 0.0)) / base))

    return CostModel(
        int_const=unit("const"),
        str_const=unit("const"),
        bool_const=unit("const"),
        var=unit("var"),
        arg=unit("arg"),
        arith=unit("arith"),
        cmp=unit("cmp"),
        neg=unit("neg"),
        logic=unit("logic"),
        assign=unit("assign"),
        notify=unit("notify"),
        branch=unit("branch"),
    )
