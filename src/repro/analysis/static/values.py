"""Abstract values for the static analyses: intervals, bool/str facts.

Everything here is *non-relational*: an abstract environment maps each
atom (a local variable or a program argument) to a value abstracting the
set of concrete values it may hold, independently of the other atoms.
That choice buys a crucial maintenance property: assigning one variable
can never invalidate a fact recorded about another, so transfer functions
are O(1).

Three value lattices cover the language's three sorts:

* :class:`Interval` — integer ranges with ±∞ endpoints (the classic
  interval domain, with threshold widening);
* boolean facts — a ``frozenset`` drawn from ``{True, False}``;
* string facts — a small ``frozenset`` of possible interned strings,
  saturating to TOP above :data:`_MAX_STR_SET`.

:class:`StaticEnv` packages an environment over these values with the
transfer functions (``assign``, ``assume``, ``havoc``, ``join``) and the
three-valued evaluators (``eval_bool`` returning ``True``/``False``/
``None``) that the framework domains, the linter's reachability checks,
the static cost bound and the translation validator all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from ...lang.ast import (
    Arg,
    BinOp,
    BoolConst,
    BoolOp,
    Cmp,
    Expr,
    IntConst,
    Not,
    StrConst,
    Var,
)

__all__ = [
    "Interval",
    "TOP_INTERVAL",
    "BoolFact",
    "StrFact",
    "TOP_BOOL",
    "TOP_STR",
    "AbstractValue",
    "StaticEnv",
    "interval_of_const",
]

_MAX_STR_SET = 8


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` endpoints mean ±∞.

    The empty interval (``lo > hi``) is canonicalised to :data:`EMPTY` by
    :meth:`make`, so emptiness checks are a single identity comparison.
    """

    lo: Optional[int]
    hi: Optional[int]

    @staticmethod
    def make(lo: Optional[int], hi: Optional[int]) -> "Interval":
        if lo is not None and hi is not None and lo > hi:
            return EMPTY
        return Interval(lo, hi)

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, v: int) -> bool:
        if self.is_empty:
            return False
        return (self.lo is None or self.lo <= v) and (self.hi is None or v <= self.hi)

    # -- lattice ---------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo, hi = self.lo, self.hi
        if other.lo is not None:
            lo = other.lo if lo is None else max(lo, other.lo)
        if other.hi is not None:
            hi = other.hi if hi is None else min(hi, other.hi)
        return Interval.make(lo, hi)

    def leq(self, other: "Interval") -> bool:
        """Inclusion: every value of ``self`` lies in ``other``."""

        if self.is_empty:
            return True
        if other.is_empty:
            return False
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return lo_ok and hi_ok

    def widen(self, newer: "Interval", thresholds: tuple[int, ...] = ()) -> "Interval":
        """Classic interval widening with threshold sets.

        Unstable bounds jump to the nearest enclosing threshold (loop-bound
        constants collected from the program text) before giving up to ±∞,
        which is what keeps the 1..12 month loops finitely bounded.
        """

        if self.is_empty:
            return newer
        if newer.is_empty:
            return self
        lo, hi = self.lo, self.hi
        if newer.lo is not None and (lo is None or newer.lo < lo):
            below = [t for t in thresholds if newer.lo >= t]
            lo = max(below) if below else None
        elif lo is not None and newer.lo is None:
            lo = None
        if newer.hi is not None and (hi is None or newer.hi > hi):
            above = [t for t in thresholds if newer.hi <= t]
            hi = min(above) if above else None
        elif hi is not None and newer.hi is None:
            hi = None
        return Interval(lo, hi)

    # -- arithmetic -------------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo = None if self.lo is None or other.hi is None else self.lo - other.hi
        hi = None if self.hi is None or other.lo is None else self.hi - other.lo
        return Interval(lo, hi)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        corners: list[Optional[int]] = []
        unbounded = False
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                if a is None or b is None:
                    # A ±∞ endpoint makes some corner unbounded unless the
                    # other factor is exactly zero; be conservatively TOP.
                    unbounded = True
                else:
                    corners.append(a * b)
        if unbounded or not corners:
            return TOP_INTERVAL
        vals = [c for c in corners if c is not None]
        return Interval(min(vals), max(vals))

    # -- comparisons (three-valued) ----------------------------------------------

    def always_lt(self, other: "Interval") -> bool:
        return (
            not self.is_empty
            and not other.is_empty
            and self.hi is not None
            and other.lo is not None
            and self.hi < other.lo
        )

    def always_le(self, other: "Interval") -> bool:
        return (
            not self.is_empty
            and not other.is_empty
            and self.hi is not None
            and other.lo is not None
            and self.hi <= other.lo
        )

    def never_overlaps(self, other: "Interval") -> bool:
        return self.meet(other).is_empty


TOP_INTERVAL = Interval(None, None)
EMPTY = Interval(1, 0)


def interval_of_const(v: int) -> Interval:
    return Interval(v, v)


# ---------------------------------------------------------------------------
# Boolean / string facts
# ---------------------------------------------------------------------------

BoolFact = frozenset[bool]  # subset of {True, False}
StrFact = Union[frozenset[str], None]  # None = TOP (any string)

TOP_BOOL: BoolFact = frozenset((True, False))
TOP_STR: StrFact = None

AbstractValue = Union[Interval, BoolFact, None]


def _join_str(a: StrFact, b: StrFact) -> StrFact:
    if a is None or b is None:
        return None
    u = a | b
    return None if len(u) > _MAX_STR_SET else u


# ---------------------------------------------------------------------------
# The abstract environment
# ---------------------------------------------------------------------------


@dataclass
class StaticEnv:
    """A non-relational abstract store over :class:`Var`/:class:`Arg` atoms.

    ``ints`` maps atom keys to :class:`Interval`; ``bools`` to subsets of
    ``{True, False}``; ``strs`` to finite string sets.  Missing keys mean
    TOP.  Keys are the AST atoms themselves (``Var``/``Arg`` are frozen and
    hashable), so variables and same-named arguments never collide.

    ``unreachable`` marks the bottom state: the program point cannot be
    reached, every query about it may answer anything — callers are
    expected to check it before trusting an evaluation.
    """

    ints: dict[Expr, Interval] = field(default_factory=dict)
    bools: dict[Expr, BoolFact] = field(default_factory=dict)
    strs: dict[Expr, frozenset[str]] = field(default_factory=dict)
    unreachable: bool = False

    # -- plumbing -------------------------------------------------------------

    def copy(self) -> "StaticEnv":
        return StaticEnv(dict(self.ints), dict(self.bools), dict(self.strs), self.unreachable)

    def mark_unreachable(self) -> None:
        self.ints.clear()
        self.bools.clear()
        self.strs.clear()
        self.unreachable = True

    # -- evaluation -------------------------------------------------------------

    def eval_int(self, e: Expr) -> Interval:
        """The interval abstracting ``e``'s integer value in this env."""

        if isinstance(e, IntConst):
            return interval_of_const(e.value)
        if isinstance(e, (Var, Arg)):
            return self.ints.get(e, TOP_INTERVAL)
        if isinstance(e, BinOp):
            left = self.eval_int(e.left)
            right = self.eval_int(e.right)
            if e.op == "+":
                return left.add(right)
            if e.op == "-":
                return left.sub(right)
            return left.mul(right)
        return TOP_INTERVAL  # Call, or an ill-sorted expression

    def eval_str(self, e: Expr) -> StrFact:
        if isinstance(e, StrConst):
            return frozenset((e.value,))
        if isinstance(e, (Var, Arg)):
            return self.strs.get(e, TOP_STR)
        return TOP_STR

    def eval_bool(self, e: Expr) -> Optional[bool]:
        """Three-valued evaluation: True / False / None (undecided)."""

        if isinstance(e, BoolConst):
            return e.value
        if isinstance(e, (Var, Arg)):
            fact = self.bools.get(e, TOP_BOOL)
            if fact == frozenset((True,)):
                return True
            if fact == frozenset((False,)):
                return False
            return None
        if isinstance(e, Not):
            inner = self.eval_bool(e.operand)
            return None if inner is None else (not inner)
        if isinstance(e, BoolOp):
            left = self.eval_bool(e.left)
            right = self.eval_bool(e.right)
            if e.op == "and":
                if left is False or right is False:
                    return False
                if left is True and right is True:
                    return True
                return None
            if left is True or right is True:
                return True
            if left is False and right is False:
                return False
            return None
        if isinstance(e, Cmp):
            return self._eval_cmp(e)
        return None

    def _eval_cmp(self, e: Cmp) -> Optional[bool]:
        # String equality decides on singleton/disjoint fact sets.
        if e.op == "=" and (self._is_strish(e.left) or self._is_strish(e.right)):
            ls, rs = self.eval_str(e.left), self.eval_str(e.right)
            if ls is not None and rs is not None:
                if len(ls) == 1 and ls == rs:
                    return True
                if not (ls & rs):
                    return False
            return None
        left = self.eval_int(e.left)
        right = self.eval_int(e.right)
        if left.is_empty or right.is_empty:
            return None  # vacuous state: refuse to decide
        if e.op == "<":
            if left.always_lt(right):
                return True
            if right.always_le(left):
                return False
            return None
        if e.op == "<=":
            if left.always_le(right):
                return True
            if right.always_lt(left):
                return False
            return None
        # '='
        if left.is_const and right.is_const and left.lo == right.lo:
            return True
        if left.never_overlaps(right):
            return False
        return None

    def _is_strish(self, e: Expr) -> bool:
        return isinstance(e, StrConst) or (isinstance(e, (Var, Arg)) and e in self.strs)

    # -- transfer functions -------------------------------------------------------

    def assign(self, var: str, rhs: Expr) -> None:
        """Update for ``var := rhs`` (in place).

        Non-relationality means no other atom's fact can mention ``var``,
        so the only update needed is the target's own.
        """

        key = Var(var)
        if self.unreachable:
            self.ints.pop(key, None)
            self.bools.pop(key, None)
            self.strs.pop(key, None)
            return
        # Evaluate the right-hand side *before* killing the target's old
        # facts — ``i := i + 1`` must see the old ``i``.
        new_bool: Optional[BoolFact] = None
        new_str: Optional[frozenset[str]] = None
        new_int: Optional[Interval] = None
        if isinstance(rhs, BoolConst):
            new_bool = frozenset((rhs.value,))
        elif isinstance(rhs, (Cmp, Not, BoolOp)):
            fact = self.eval_bool(rhs)
            if fact is not None:
                new_bool = frozenset((fact,))
        elif isinstance(rhs, StrConst):
            new_str = frozenset((rhs.value,))
        elif isinstance(rhs, (Var, Arg)):
            # Copy whatever facts the source atom carries.
            new_bool = self.bools.get(rhs)
            new_str = self.strs.get(rhs)
            new_int = self.ints.get(rhs)
        else:
            iv = self.eval_int(rhs)
            if iv != TOP_INTERVAL and not iv.is_empty:
                new_int = iv
        self.ints.pop(key, None)
        self.bools.pop(key, None)
        self.strs.pop(key, None)
        if new_bool is not None:
            self.bools[key] = new_bool
        if new_str is not None:
            self.strs[key] = new_str
        if new_int is not None:
            self.ints[key] = new_int

    def havoc(self, names: Iterable[str]) -> None:
        for n in names:
            key = Var(n)
            self.ints.pop(key, None)
            self.bools.pop(key, None)
            self.strs.pop(key, None)

    def assume(self, cond: Expr, positive: bool = True) -> None:
        """Refine the env by the branch outcome of ``cond`` (in place).

        Only refinements that are *sound over-approximations* are applied:
        each atom's fact is met with the constraint the comparison implies
        for it alone.  A refinement that empties a fact marks the state
        unreachable.
        """

        if self.unreachable:
            return
        known = self.eval_bool(cond)
        if known is not None:
            if known != positive:
                self.mark_unreachable()
            return
        if isinstance(cond, Not):
            self.assume(cond.operand, not positive)
            return
        if isinstance(cond, BoolOp):
            if cond.op == "and" and positive:
                self.assume(cond.left, True)
                self.assume(cond.right, True)
            elif cond.op == "or" and not positive:
                self.assume(cond.left, False)
                self.assume(cond.right, False)
            # ``or`` under truth / ``and`` under falsity need a disjunction
            # of refinements: skip (sound, merely imprecise).
            return
        if isinstance(cond, (Var, Arg)):
            fact = self.bools.get(cond, TOP_BOOL) & frozenset((positive,))
            if not fact:
                self.mark_unreachable()
            else:
                self.bools[cond] = fact
            return
        if isinstance(cond, Cmp):
            self._assume_cmp(cond, positive)

    def _assume_cmp(self, cond: Cmp, positive: bool) -> None:
        op, left, right = cond.op, cond.left, cond.right
        if op == "=" and not positive:
            # Disequality refines only singleton string facts usefully.
            ls, rs = self.eval_str(left), self.eval_str(right)
            if isinstance(left, (Var, Arg)) and ls is not None and rs is not None and len(rs) == 1:
                rest = ls - rs
                if not rest:
                    self.mark_unreachable()
                else:
                    self.strs[left] = rest
            elif (
                isinstance(right, (Var, Arg)) and rs is not None and ls is not None and len(ls) == 1
            ):
                rest = rs - ls
                if not rest:
                    self.mark_unreachable()
                else:
                    self.strs[right] = rest
            return
        if op == "=" and (self._is_strish(left) or self._is_strish(right)):
            if isinstance(left, (Var, Arg)):
                rs = self.eval_str(right)
                if rs is not None:
                    ls = self.eval_str(left)
                    met = rs if ls is None else (ls & rs)
                    if not met:
                        self.mark_unreachable()
                    else:
                        self.strs[left] = met
            if isinstance(right, (Var, Arg)):
                ls = self.eval_str(left)
                if ls is not None:
                    rs = self.eval_str(right)
                    met = ls if rs is None else (rs & ls)
                    if not met:
                        self.mark_unreachable()
                    else:
                        self.strs[right] = met
            return

        # Integer comparisons: derive a bound for each atom side from the
        # other side's interval.  ``positive`` selects the comparison;
        # negation flips it (¬(a < b) ≡ b <= a, total orders only).
        if not positive:
            if op == "<":
                op, left, right = "<=", right, left
            elif op == "<=":
                op, left, right = "<", right, left
            else:
                return  # ¬(a = b) over ints: no single-atom refinement
        lv = self.eval_int(left)
        rv = self.eval_int(right)
        if op == "=":
            self._refine_int(left, rv)
            self._refine_int(right, lv)
            return
        shift = 1 if op == "<" else 0
        if rv.hi is not None:
            self._refine_int(left, Interval(None, rv.hi - shift))
        if lv.lo is not None:
            self._refine_int(right, Interval(lv.lo + shift, None))

    def _refine_int(self, e: Expr, bound: Interval) -> None:
        if not isinstance(e, (Var, Arg)):
            return
        met = self.ints.get(e, TOP_INTERVAL).meet(bound)
        if met.is_empty:
            self.mark_unreachable()
        else:
            self.ints[e] = met

    # -- lattice over whole environments -------------------------------------------

    def join(self, other: "StaticEnv") -> "StaticEnv":
        if self.unreachable:
            return other.copy()
        if other.unreachable:
            return self.copy()
        out = StaticEnv()
        for key in set(self.ints) & set(other.ints):
            j = self.ints[key].join(other.ints[key])
            if j != TOP_INTERVAL:
                out.ints[key] = j
        for key in set(self.bools) & set(other.bools):
            j = self.bools[key] | other.bools[key]
            if j != TOP_BOOL:
                out.bools[key] = j
        for key in set(self.strs) & set(other.strs):
            j = _join_str(self.strs[key], other.strs[key])
            if j is not None:
                out.strs[key] = j
        return out

    def widen(self, newer: "StaticEnv", thresholds: tuple[int, ...] = ()) -> "StaticEnv":
        if self.unreachable:
            return newer.copy()
        if newer.unreachable:
            return self.copy()
        out = StaticEnv()
        for key in set(self.ints) & set(newer.ints):
            w = self.ints[key].widen(newer.ints[key], thresholds)
            if w != TOP_INTERVAL:
                out.ints[key] = w
        for key in set(self.bools) & set(newer.bools):
            j = self.bools[key] | newer.bools[key]
            if j != TOP_BOOL:
                out.bools[key] = j
        for key in set(self.strs) & set(newer.strs):
            j = _join_str(self.strs[key], newer.strs[key])
            if j is not None:
                out.strs[key] = j
        return out

    def leq(self, other: "StaticEnv") -> bool:
        """Whether ``self`` describes a subset of ``other``'s states."""

        if self.unreachable:
            return True
        if other.unreachable:
            return False
        for key, iv in other.ints.items():
            if not self.ints.get(key, TOP_INTERVAL).leq(iv):
                return False
        for key, bf in other.bools.items():
            if not (self.bools.get(key, TOP_BOOL) <= bf):
                return False
        for key, sf in other.strs.items():
            mine = self.strs.get(key)
            if mine is None or not (mine <= sf):
                return False
        return True
