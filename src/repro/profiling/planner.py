"""The cost-driven consolidation planner.

Given one level of the divide-and-conquer merge tree, the planner ranks
every candidate pairing by *predicted wall-seconds saved* under a
:class:`~repro.profiling.model.CalibratedCostModel` and greedily matches
the highest-savings pairs first.  Pairs with no predicted savings are
planned as **skips**: the driver composes them sequentially (the exact
result a full merge of unrelated programs would produce, since
cross-simplification fires only on shared work) without paying the
consolidator's rewrite/SMT machinery at all.

The savings signal reuses the ``related`` heuristic's sharing features
(:mod:`repro.analysis.related`) — shared call signatures and shared
comparison subjects — but *weights* them with calibrated per-unit
seconds instead of treating sharing as boolean.  Two programs that both
call a 40-unit library function are predicted to save roughly
``40 · weight("call")`` seconds per record if consolidation dedups the
call; two that merely compare the same subexpression save one
``cmp``-weight.  The ranking is what matters: :class:`CalibratedPairing`
merges down this order and skips what it predicts saves nothing, so a
misprediction costs a missed or a wasted merge, never correctness.

Determinism: profiles are accumulated in first-seen order, candidate
ties break on ``(i, j)``, and the greedy match is a plain sort — the
same level always yields the same plan (the provenance log depends on
this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.related import is_trivial
from ..lang.ast import (
    Arg,
    BinOp,
    BoolConst,
    BoolOp,
    Call,
    Cmp,
    Expr,
    If,
    IntConst,
    Not,
    Program,
    Seq,
    Stmt,
    StrConst,
    Var,
    While,
)
from ..lang.functions import FunctionTable
from ..lang.visitors import stmt_exprs, subexpressions
from ..provenance.recorder import Heuristic
from .features import LOOP_UNROLL
from .model import CalibratedCostModel

if TYPE_CHECKING:
    from ..consolidation.algorithm import ConsolidationOptions, PairRecord
    from ..telemetry.metrics import MetricsRegistry

__all__ = [
    "Pairing",
    "PlannedPair",
    "LevelPlan",
    "CalibratedPairing",
    "pair_savings",
    "plan_level",
]

# What a pairing policy answers for one level of the merge driver: the
# positions that meet, in execution order, and the positions carried to the
# next level unmerged.
Pairing = Tuple[Sequence[Tuple[int, int]], Sequence[int]]

# An overlap profile: sharing-feature key -> predicted seconds at stake.
Profile = Dict[Tuple[str, str], float]


@dataclass(frozen=True)
class PlannedPair:
    """One planner decision at one tree level.

    ``left``/``right`` index the level's program list.  ``merge`` False
    means the planner predicts no cross-simplification value and the
    driver should compose the pair sequentially instead of invoking the
    consolidator.
    """

    left: int
    right: int
    predicted_savings: float
    merge: bool


@dataclass(frozen=True)
class LevelPlan:
    """The planner's output for one tree level.

    ``decisions`` is every pairing in execution order (highest predicted
    savings first); ``carried`` is the odd program carried to the next
    level unpaired.
    """

    carried: Tuple[int, ...]
    decisions: Tuple[PlannedPair, ...]


def _canon(e: Expr) -> str:
    """A structural key for an expression with local names erased.

    Two already-consolidated programs name their locals differently (the
    disjoint-renaming pass guarantees it), so a ``repr`` match on any
    expression containing a ``Var`` is impossible by construction.  For
    the loop-shape feature the *shape* is what predicts fusion — ``while
    (m <= 12)`` and ``while (k <= 12)`` fuse — so locals canonicalize to
    a placeholder.
    """

    if isinstance(e, Var):
        return "Var(_)"
    if isinstance(e, (IntConst, StrConst, BoolConst, Arg)):
        return repr(e)
    if isinstance(e, Call):
        return f"Call({e.func},{','.join(_canon(a) for a in e.args)})"
    if isinstance(e, BinOp):
        return f"BinOp({e.op},{_canon(e.left)},{_canon(e.right)})"
    if isinstance(e, Cmp):
        return f"Cmp({e.op},{_canon(e.left)},{_canon(e.right)})"
    if isinstance(e, BoolOp):
        return f"BoolOp({e.op},{_canon(e.left)},{_canon(e.right)})"
    if isinstance(e, Not):
        return f"Not({_canon(e.operand)})"
    return repr(e)


def _loop_shapes(s: Stmt, shapes: List[str]) -> None:
    """Collect the canonical test of every ``While`` in ``s``."""

    if isinstance(s, Seq):
        for sub in s.stmts:
            _loop_shapes(sub, shapes)
    elif isinstance(s, If):
        _loop_shapes(s.then, shapes)
        _loop_shapes(s.orelse, shapes)
    elif isinstance(s, While):
        shapes.append(_canon(s.cond))
        _loop_shapes(s.body, shapes)


def _loop_shapes_of(program: Program) -> List[str]:
    shapes: List[str] = []
    _loop_shapes(program.body, shapes)
    return shapes


def _profile(
    program: Program,
    functions: Optional[FunctionTable],
    model: CalibratedCostModel,
) -> Profile:
    """Sharing features of ``program`` weighted in predicted seconds.

    Call and comparison keys mirror
    :func:`repro.analysis.related.call_features` /
    ``comparison_subjects`` exactly (ground-argument calls key on the
    full expression, variable-argument calls on the name alone;
    comparison operands qualify when non-trivial or a bare ``Arg``).  A
    third axis the boolean heuristic lacks: every ``While`` contributes
    its canonical test shape, because two same-shape loops are fusion
    candidates (the Loop rules dedup the fused loop's control) even when
    their bodies call entirely different functions.
    """

    call_weight = float(model.weights.get("call", 0.0))
    cmp_weight = float(model.weights.get("cmp", 0.0))
    branch_weight = float(model.weights.get("branch", 0.0))
    # Fusing two same-shape loops saves one loop's control (test + branch
    # + induction update) per iteration — LOOP_UNROLL iterations' worth at
    # the calibrated rates.
    loop_stake = (1.0 + LOOP_UNROLL) * (cmp_weight + branch_weight)
    profile: Profile = {}
    for shape in _loop_shapes_of(program):
        key = ("loop", shape)
        profile[key] = profile.get(key, 0.0) + loop_stake
    for expr in stmt_exprs(program.body):
        for sub in subexpressions(expr):
            if isinstance(sub, Call):
                if functions is not None and sub.func in functions:
                    call_units = float(functions[sub.func].cost)
                else:
                    call_units = 10.0
                if all(
                    isinstance(a, (Arg, IntConst, StrConst, BoolConst))
                    for a in sub.args
                ):
                    key = ("call", repr(sub))
                else:
                    key = ("call", sub.func)
                profile[key] = profile.get(key, 0.0) + call_units * call_weight
            elif isinstance(sub, Cmp):
                for side in (sub.left, sub.right):
                    if isinstance(side, Arg) or not is_trivial(side):
                        key = ("cmp", repr(side))
                        profile[key] = profile.get(key, 0.0) + cmp_weight
    return profile


def pair_savings(a: Profile, b: Profile) -> float:
    """Predicted seconds saved per record by consolidating two profiles.

    For every sharing feature both sides exhibit, consolidation can at
    best deduplicate the smaller side's instances — hence ``min``.
    Disjoint profiles predict exactly zero: nothing shared, nothing to
    cross-simplify, skip the merge.
    """

    if len(b) < len(a):
        a, b = b, a
    total = 0.0
    for key, stake in a.items():
        other = b.get(key)
        if other is not None:
            total += min(stake, other)
    return total


def plan_level(
    programs: Sequence[Program],
    functions: Optional[FunctionTable],
    model: CalibratedCostModel,
    min_savings: float = 0.0,
) -> LevelPlan:
    """Greedily match one tree level by descending predicted savings.

    Highest-savings pairs match first (ties on index order for
    determinism).  Programs left over after profitable matching are
    paired adjacently with ``merge=False`` — they still halve the level,
    but sequentially, without consolidator work.  An odd program is
    carried.
    """

    n = len(programs)
    profiles = [_profile(p, functions, model) for p in programs]
    candidates: List[Tuple[float, int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            savings = pair_savings(profiles[i], profiles[j])
            if savings > min_savings:
                candidates.append((savings, i, j))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))

    taken = [False] * n
    decisions: List[PlannedPair] = []
    for savings, i, j in candidates:
        if not taken[i] and not taken[j]:
            taken[i] = taken[j] = True
            decisions.append(PlannedPair(i, j, savings, merge=True))

    leftovers = [i for i in range(n) if not taken[i]]
    while len(leftovers) >= 2:
        i, j = leftovers[0], leftovers[1]
        leftovers = leftovers[2:]
        decisions.append(PlannedPair(i, j, 0.0, merge=False))

    return LevelPlan(carried=tuple(leftovers), decisions=tuple(decisions))


@dataclass
class CalibratedPairing:
    """The calibrated planner as the merge driver's pairing policy.

    Calling it plans one level; :meth:`merge` then runs one planned pair
    and returns its record (a
    :class:`repro.consolidation.algorithm.PairRecord`) with the decision
    written on it: a pair predicted to save nothing is kept as its
    sequential composition (``compose``) without touching the consolidator,
    the others go through the driver's pair step (``merge_step``) highest
    predicted savings first.

    A decision is one dict (see
    :class:`repro.consolidation.ConsolidationReport`), stored as the
    record's ``planner`` and — when the merge was recorded — noted on its
    derivation tree as a ``planner`` heuristic.  A merge that failed reads
    ``merged: False`` with the record's ``skip_reason``: nothing was
    observed, so nothing was mispredicted.
    """

    functions: Optional[FunctionTable]
    model: CalibratedCostModel
    options: "ConsolidationOptions"
    merge_step: Callable[[Program, Program], "PairRecord"]
    compose: Callable[[Program, Program], "PairRecord"]
    _planned: Dict[Tuple[str, str], PlannedPair] = field(init=False, default_factory=dict)

    def __call__(self, level: Sequence[Program]) -> Pairing:
        plan = plan_level(level, self.functions, self.model)
        self._planned = {
            (level[d.left].pid, level[d.right].pid): d for d in plan.decisions
        }
        return [(d.left, d.right) for d in plan.decisions], plan.carried

    def merge(self, a: Program, b: Program) -> "PairRecord":
        """Execute the decision planned for ``(a, b)`` and write it on the record."""

        decision = self._planned[a.pid, b.pid]
        entry = {
            "left": a.pid,
            "right": b.pid,
            "merged": decision.merge,
            "predicted_savings_seconds": decision.predicted_savings,
            "observed_savings_seconds": 0.0,
            "mispredicted": False,
            "used_smt": False,
        }
        if not decision.merge:
            record = self.compose(a, b)
            record.planner = entry
            return record
        record = self.merge_step(a, b)
        record.planner = entry
        if record.skip_reason is not None:
            entry.update(merged=False, skip_reason=record.skip_reason)
            return record
        # Realized savings under the same model: predicted cost of the two
        # inputs minus the merged program's.  A positive prediction that
        # realizes nothing is a misprediction — flagged, counted, rendered
        # by explain.
        predict = self.model.predict_program_seconds
        observed = (
            predict(a, self.functions)
            + predict(b, self.functions)
            - predict(record.program, self.functions)
        )
        mispredicted = decision.predicted_savings > 0.0 and observed <= 0.0
        entry.update(
            observed_savings_seconds=observed,
            mispredicted=mispredicted,
            used_smt=self.options.use_smt,
        )
        if record.derivation is not None:
            detail = f"predicted={decision.predicted_savings:.3e}s observed={observed:.3e}s"
            if mispredicted:
                detail += " MISPREDICTED"
            record.derivation.root.heuristics.append(
                Heuristic("planner", detail, not mispredicted)
            )
        return record

    def export(self, registry: "MetricsRegistry", decisions: Sequence[Dict[str, Any]]) -> None:
        """The batch's ``planner_*`` / ``calibration_*`` telemetry, from the
        decisions its records carry."""

        merges = sum(1 for d in decisions if d["merged"])
        registry.counter("planner_pairs_total").inc(merges)
        registry.counter("planner_skips_total").inc(len(decisions) - merges)
        registry.counter("planner_mispredictions_total").inc(
            sum(1 for d in decisions if d["mispredicted"])
        )
        registry.gauge("planner_predicted_savings_seconds").set(
            sum(d["predicted_savings_seconds"] for d in decisions)
        )
        registry.gauge("calibration_staleness_seconds").set(self.model.staleness_seconds())
        registry.gauge("calibration_r2").set(self.model.r2)
