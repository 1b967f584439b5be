"""The pluggable abstract domains used by the checkers.

* :class:`IntervalConstDomain` — integer intervals + boolean/string
  constants over :class:`~repro.analysis.static.values.StaticEnv`.  Powers
  unreachable-branch detection, loop trip-count bounds, and (through the
  simplifier's mirror env) the SMT entailment pre-check.
* :class:`DefiniteAssignmentDomain` — the *must*-analysis of assigned
  locals (join = intersection), powering use-before-def linting.
* :class:`NotificationDomain` — per-pid broadcast-count intervals with
  saturation at 2 ("two or more"), powering the translation validator's
  exactly-once obligation and the duplicate/missing-notify lints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...lang.ast import Expr, IntConst, Program
from ...lang.visitors import expr_vars, stmt_exprs, subexpressions
from .framework import Domain
from .values import StaticEnv

__all__ = [
    "IntervalConstDomain",
    "AssignedState",
    "DefiniteAssignmentDomain",
    "NotifyCounts",
    "NotificationDomain",
    "widening_thresholds",
]


# ---------------------------------------------------------------------------
# Intervals + constants
# ---------------------------------------------------------------------------


def widening_thresholds(program: Program) -> tuple[int, ...]:
    """Constants worth stopping at while widening: guard literals ± 1.

    A loop ``while (m <= 12)`` stabilises its counter at ``[lo, 13]`` —
    the guard constant plus one — so seeding the thresholds this way keeps
    bounded loops bounded without per-loop configuration.
    """

    out: set[int] = set()
    for e in stmt_exprs(program.body):
        for sub in subexpressions(e):
            if isinstance(sub, IntConst) and abs(sub.value) <= 10_000:
                out.update((sub.value - 1, sub.value, sub.value + 1))
    return tuple(sorted(out))


_BOTTOM_ENV = StaticEnv.bottom()


class IntervalConstDomain(Domain[StaticEnv]):
    """Intervals for ints, constant sets for bools/strings.

    States are :class:`StaticEnv` instances treated as immutable: every
    transfer copies before refining.  ``thresholds`` come from
    :func:`widening_thresholds` of the program under analysis.
    """

    def __init__(self, thresholds: tuple[int, ...] = ()) -> None:
        self.thresholds = thresholds

    @classmethod
    def for_program(cls, program: Program) -> "IntervalConstDomain":
        return cls(widening_thresholds(program))

    def initial(self, program: Program) -> StaticEnv:
        return StaticEnv()

    def bottom(self) -> StaticEnv:
        return _BOTTOM_ENV

    def is_bottom(self, state: StaticEnv) -> bool:
        return state.unreachable

    def join(self, a: StaticEnv, b: StaticEnv) -> StaticEnv:
        return a.join(b)

    def widen(self, older: StaticEnv, newer: StaticEnv) -> StaticEnv:
        return older.widen(newer, self.thresholds)

    def widen_top(self, older: StaticEnv, newer: StaticEnv) -> StaticEnv:
        # Threshold widening ascends one threshold per step; a program with
        # more int literals than the fixpoint budget would otherwise never
        # stabilise.  Past WIDEN_TOP_AFTER, drop the thresholds so every
        # still-unstable bound jumps straight to ±∞.
        return older.widen(newer, ())

    def leq(self, a: StaticEnv, b: StaticEnv) -> bool:
        return a.leq(b)

    def transfer_assign(self, state: StaticEnv, var: str, expr: Expr) -> StaticEnv:
        out = state.copy()
        out.assign(var, expr)
        return out

    def transfer_assume(self, state: StaticEnv, cond: Expr, positive: bool) -> StaticEnv:
        out = state.copy()
        out.assume(cond, positive)
        return out


# ---------------------------------------------------------------------------
# Definite assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssignedState:
    """``assigned`` = locals written on *every* path reaching this point."""

    assigned: frozenset[str]
    reachable: bool = True


_ASSIGNED_BOTTOM = AssignedState(frozenset(), reachable=False)


class DefiniteAssignmentDomain(Domain[AssignedState]):
    """Must-be-assigned analysis (join = intersection over live paths)."""

    def initial(self, program: Program) -> AssignedState:
        return AssignedState(frozenset())

    def bottom(self) -> AssignedState:
        return _ASSIGNED_BOTTOM

    def is_bottom(self, state: AssignedState) -> bool:
        return not state.reachable

    def join(self, a: AssignedState, b: AssignedState) -> AssignedState:
        if not a.reachable:
            return b
        if not b.reachable:
            return a
        return AssignedState(a.assigned & b.assigned)

    def leq(self, a: AssignedState, b: AssignedState) -> bool:
        # Order by information content: more assigned = lower (stronger).
        if not a.reachable:
            return True
        if not b.reachable:
            return False
        return a.assigned >= b.assigned

    def transfer_assign(self, state: AssignedState, var: str, expr: Expr) -> AssignedState:
        return AssignedState(state.assigned | {var}, state.reachable)

    def uses_unassigned(self, state: AssignedState, expr: Expr) -> set[str]:
        """Locals ``expr`` reads that may be unbound in ``state``."""

        return expr_vars(expr) - set(state.assigned)


# ---------------------------------------------------------------------------
# Reaching notifications
# ---------------------------------------------------------------------------

SATURATE_AT = 2  # counts above 1 all behave alike (already a clash)


@dataclass(frozen=True)
class NotifyCounts:
    """Per-pid broadcast-count intervals ``pid -> (min, max)``.

    ``max`` saturates at :data:`SATURATE_AT`: once a path may notify a pid
    twice, further precision is pointless (the run is already an error),
    and saturation is what makes loop fixpoints converge.
    """

    counts: tuple[tuple[str, int, int], ...]  # sorted by pid
    reachable: bool = True

    @staticmethod
    def empty() -> "NotifyCounts":
        return NotifyCounts(())

    def as_dict(self) -> dict[str, tuple[int, int]]:
        return {pid: (lo, hi) for pid, lo, hi in self.counts}

    def range_for(self, pid: str) -> tuple[int, int]:
        return self.as_dict().get(pid, (0, 0))


_NOTIFY_BOTTOM = NotifyCounts((), reachable=False)


class NotificationDomain(Domain[NotifyCounts]):
    """Counts how many times each pid may/must have been notified."""

    def initial(self, program: Program) -> NotifyCounts:
        return NotifyCounts.empty()

    def bottom(self) -> NotifyCounts:
        return _NOTIFY_BOTTOM

    def is_bottom(self, state: NotifyCounts) -> bool:
        return not state.reachable

    def join(self, a: NotifyCounts, b: NotifyCounts) -> NotifyCounts:
        if not a.reachable:
            return b
        if not b.reachable:
            return a
        da, db = a.as_dict(), b.as_dict()
        merged = []
        for pid in sorted(set(da) | set(db)):
            lo_a, hi_a = da.get(pid, (0, 0))
            lo_b, hi_b = db.get(pid, (0, 0))
            merged.append((pid, min(lo_a, lo_b), max(hi_a, hi_b)))
        return NotifyCounts(tuple(merged))

    def leq(self, a: NotifyCounts, b: NotifyCounts) -> bool:
        if not a.reachable:
            return True
        if not b.reachable:
            return False
        da, db = a.as_dict(), b.as_dict()
        for pid in set(da) | set(db):
            lo_a, hi_a = da.get(pid, (0, 0))
            lo_b, hi_b = db.get(pid, (0, 0))
            if lo_a < lo_b or hi_a > hi_b:
                return False
        return True

    def transfer_assign(self, state: NotifyCounts, var: str, expr: Expr) -> NotifyCounts:
        return state

    def transfer_notify(self, state: NotifyCounts, pid: str, expr: Expr) -> NotifyCounts:
        if not state.reachable:
            return state
        d = state.as_dict()
        lo, hi = d.get(pid, (0, 0))
        d[pid] = (min(lo + 1, SATURATE_AT), min(hi + 1, SATURATE_AT))
        return NotifyCounts(tuple((p, a, b) for p, (a, b) in sorted(d.items())))

    # -- queries the validator/linter ask ---------------------------------------

    def exactly_once(self, state: NotifyCounts, pid: str) -> Optional[bool]:
        """True / False / None(undecided) for "pid notified exactly once"."""

        lo, hi = state.range_for(pid)
        if lo == hi == 1:
            return True
        if hi == 0 or lo >= 2:
            return False
        return None
