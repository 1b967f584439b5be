"""The abstract domain the checkers run the framework over.

:class:`IntervalConstDomain` — integer intervals + boolean/string constants
over :class:`~repro.analysis.static.values.StaticEnv` — powers the linter's
unreachable-branch detection and the loop trip-count bounds of the static
cost bound and the translation validator.  It is the only domain: the
checks that never read a branch condition (definite assignment, notify
multiplicity) are structural facts of a statement,
:func:`~repro.lang.visitors.walk_assigned` and
:func:`~repro.lang.visitors.notify_counts`.
"""

from __future__ import annotations

from ...lang.ast import Expr, IntConst, Program
from ...lang.visitors import stmt_exprs, subexpressions
from .values import StaticEnv

__all__ = ["IntervalConstDomain", "widening_thresholds"]


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


class IntervalConstDomain:
    """Intervals for ints, constant sets for bools/strings: the widenings
    and transfer functions the framework applies to a :class:`StaticEnv`.

    States are treated as immutable: every transfer copies before refining.
    ``thresholds`` come from :func:`widening_thresholds` of the program
    under analysis.
    """

    def __init__(self, thresholds: tuple[int, ...] = ()) -> None:
        self.thresholds = thresholds

    @classmethod
    def for_program(cls, program: Program) -> "IntervalConstDomain":
        return cls(widening_thresholds(program))

    def widen(self, older: StaticEnv, newer: StaticEnv) -> StaticEnv:
        return older.widen(newer, self.thresholds)

    def widen_top(self, older: StaticEnv, newer: StaticEnv) -> StaticEnv:
        # Threshold widening ascends one threshold per step; a program with
        # more int literals than the fixpoint budget would otherwise never
        # stabilise.  Past WIDEN_TOP_AFTER, drop the thresholds so every
        # still-unstable bound jumps straight to ±∞.
        return older.widen(newer, ())

    def transfer_assign(self, state: StaticEnv, var: str, expr: Expr) -> StaticEnv:
        out = state.copy()
        out.assign(var, expr)
        return out

    def transfer_assume(self, state: StaticEnv, cond: Expr, positive: bool) -> StaticEnv:
        out = state.copy()
        out.assume(cond, positive)
        return out
