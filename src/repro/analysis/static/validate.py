"""Translation validation for consolidations (the static half of Theorem 1).

:func:`validate_consolidation` certifies, without running anything, the
two obligations Definition 1 imposes on a merged program:

1. **Notification exactness** — the merged program notifies exactly the
   union of the originals' pids, each exactly once on every path
   (:func:`~repro.lang.visitors.notify_counts`, kept on each node).
   :func:`check_notifications`, this half alone, gates every pair merge.
2. **Cost** — a static worst-case cost bound of the merged program does
   not exceed the sum of the originals' bounds.  Loop-free programs get
   exact worst-case path costs; loops are bounded by interval trip counts,
   falling back to SMT-proved invariants from
   :mod:`repro.analysis.invariants` when the intervals alone are too weak.
   A program node keeps its bounds, so a program is bounded once however
   many certificates name it.

Verdicts are deliberately asymmetric.  ``refuted`` is only ever produced
by the notification check, whose counts are *definite* multiplicity
bounds; the cost check answers ``proved``/``unknown`` because comparing
two upper bounds can never disprove the pointwise inequality (a merged
bound may be looser, not larger in reality).  The dynamic checker in
:mod:`repro.consolidation.verify` remains the oracle for ``unknown``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ...lang.ast import Arg, Expr, Program, Var, While
from ...lang.cost import DEFAULT_COST_MODEL, CostModel
from ...lang.functions import FunctionTable
from ...lang.visitors import (
    expr_args,
    expr_vars,
    notify_counts,
    stmt_args,
    stmt_vars,
)
from ...smt.interface import Store, arg_sym, var_sym
from ...smt.solver import Solver
from ...smt.terms import Eq, FAnd, Formula, Le, Num, Sym, as_linear, fand, le_f
from ..invariants import loop_invariant
from ..sp import SpEngine
from . import costbound
from .costbound import LoopBoundHook, trip_count_bound
from .values import Interval, StaticEnv

__all__ = ["StaticValidation", "check_notifications", "validate_consolidation"]

PROVED = "proved"
UNKNOWN = "unknown"
REFUTED = "refuted"


@dataclass
class StaticValidation:
    """The validator's certificate (or lack of one) for one consolidation."""

    merged_pid: str
    original_pids: tuple[str, ...]
    notify_verdict: str  # proved | unknown | refuted
    cost_verdict: str  # proved | unknown
    merged_cost_upper: Optional[int]
    originals_cost_upper: Optional[int]
    details: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        """Both obligations statically discharged."""

        return self.notify_verdict == PROVED and self.cost_verdict == PROVED

    @property
    def refuted(self) -> bool:
        return self.notify_verdict == REFUTED

    def to_dict(self) -> dict[str, Any]:
        return {
            "merged": self.merged_pid,
            "originals": list(self.original_pids),
            "notify": self.notify_verdict,
            "cost": self.cost_verdict,
            "merged_cost_upper": self.merged_cost_upper,
            "originals_cost_upper": self.originals_cost_upper,
            "certified": self.certified,
            "details": list(self.details),
        }


# ---------------------------------------------------------------------------
# Notification exactness
# ---------------------------------------------------------------------------


def _expected_pids(originals: Sequence[Program]) -> set[str]:
    expected: set[str] = set()
    for o in originals:
        expected.update(notify_counts(o.body).keys() or (o.pid,))
    return expected


def _exactly_once(counts: Mapping[str, tuple[int, int]], pid: str) -> Optional[bool]:
    """True / False / None (undecided) for "``pid`` notified exactly once"."""

    lo, hi = counts.get(pid, (0, 0))
    if lo == hi == 1:
        return True
    if hi == 0 or lo >= 2:
        return False
    return None


def check_notifications(originals: Sequence[Program], merged: Program) -> tuple[str, list[str]]:
    """The notification half: its verdict, and the details behind it."""

    # Whether each original itself provably notifies its pids exactly once;
    # if not, "exactly once in the merged program" is not the right spec and
    # a merged-side failure must stay UNKNOWN rather than REFUTED.
    details: list[str] = []
    originals_exact = True
    for o in originals:
        counts_o = notify_counts(o.body)
        for pid in counts_o:
            if _exactly_once(counts_o, pid) is not True:
                originals_exact = False
                details.append(
                    f"original '{o.pid}': cannot prove '{pid}' notified exactly once"
                )

    counts_m = notify_counts(merged.body)
    expected = _expected_pids(originals)
    verdict = PROVED
    extra = counts_m.keys() - expected
    if extra:
        details.append(f"merged notifies pids outside the union: {sorted(extra)}")
        verdict = REFUTED
    for pid in sorted(expected):
        status = _exactly_once(counts_m, pid)
        if status is True:
            continue
        lo, hi = counts_m.get(pid, (0, 0))
        if status is False and originals_exact:
            details.append(
                f"merged '{pid}' notified between {lo} and {hi} times, never exactly once"
            )
            verdict = REFUTED
        else:
            details.append(
                f"merged '{pid}' notification count in [{lo}, {hi}]: not provably exact"
            )
            if verdict != REFUTED:
                verdict = UNKNOWN
    return verdict, details


# ---------------------------------------------------------------------------
# Cost bounds (with the SMT-invariant fallback for loops)
# ---------------------------------------------------------------------------


def _env_formula(env: StaticEnv, loop: While) -> Formula:
    """Encode the entry env's interval facts about the loop's names as Ψ."""

    conjuncts = []
    names = [(n, False) for n in sorted(stmt_vars(loop.body) | expr_vars(loop.cond))]
    names += [(n, True) for n in sorted(stmt_args(loop.body) | expr_args(loop.cond))]
    for name, is_arg in names:
        atom: Expr = Arg(name) if is_arg else Var(name)
        iv = env.eval_int(atom)
        sym = arg_sym(name) if is_arg else var_sym(name)
        if iv.lo is not None:
            conjuncts.append(le_f(Num(iv.lo), sym))
        if iv.hi is not None:
            conjuncts.append(le_f(sym, Num(iv.hi)))
    return fand(*conjuncts)


def _sym_atom(name: str, head: dict[str, Optional[Expr]]) -> Optional[Expr]:
    """The program atom whose loop-head value the symbol ``name`` is."""

    if name in head:
        return head[name]
    if name.startswith("v!"):
        return Var(name[2:])
    if name.startswith("a!"):
        return Arg(name[2:])
    return None


def _refine_env_from_invariant(
    env: StaticEnv, inv: Formula, store: Store
) -> StaticEnv:
    """Meet single-variable ``k*v + c <= 0`` / ``= 0`` facts into ``env``.

    ``store`` binds the locals the loop writes to their loop-head symbols;
    their own symbols in ``inv`` are entry values, which say nothing about
    the loop head.
    """

    head: dict[str, Optional[Expr]] = {var_sym(n).name: None for n in store}
    head.update((v.name, Var(n)) for n, v in store.items() if isinstance(v, Sym))
    refined = env.copy()
    parts = inv.args if isinstance(inv, FAnd) else (inv,)
    for part in parts:
        if not isinstance(part, (Le, Eq)):
            continue
        const, coeffs = as_linear(part.term)
        if len(coeffs) != 1:
            continue
        ((atom_term, k),) = coeffs.items()
        name = getattr(atom_term, "name", None)
        if name is None:
            continue
        atom = _sym_atom(name, head)
        if atom is None:
            continue
        if isinstance(part, Eq):
            if const % k == 0:
                v = -const // k
                bound = Interval.make(v, v)
            else:
                continue
        elif k > 0:  # k*v <= -const  =>  v <= floor(-const / k)
            bound = Interval.make(None, (-const) // k)
        else:  # -m*v <= -const  =>  v >= ceil(const / m)
            m = -k
            bound = Interval.make(-((-const) // m), None)
        refined.ints[atom] = refined.eval_int(atom).meet(bound)
    return refined


def make_invariant_loop_bound(engine: SpEngine, solver: Solver) -> LoopBoundHook:
    """A ``loop_bound_hook`` backed by :func:`repro.analysis.invariants.loop_invariant`.

    Encodes the entry abstract environment as Ψ, asks the guess-and-check
    inference for an inductive invariant, folds any proved single-variable
    bounds back into the intervals, and retries the trip-count argument.
    """

    def hook(loop: While, env: StaticEnv) -> Optional[int]:
        try:
            psi = _env_formula(env, loop)
            store: Store = {}
            inv = loop_invariant(engine, solver, psi, [loop.cond], loop.body, store)
            refined = _refine_env_from_invariant(env, inv, store)
            return trip_count_bound(loop, refined)
        except Exception:  # inference is best-effort; no bound, no harm
            return None

    return hook


def _cost_upper(
    program: Program,
    functions: Optional[FunctionTable],
    cost_model: CostModel,
    hook: Optional[LoopBoundHook],
) -> Optional[int]:
    """:func:`~.costbound.program_cost_upper`, kept on ``program``'s
    ``_bounds`` slot per function table, cost model and whether the
    invariant fallback (deterministic) ran."""

    bounds = program._bounds
    if bounds is None:
        bounds = {}
        object.__setattr__(program, "_bounds", bounds)
    key = (functions, cost_model, hook is not None)
    if key not in bounds:
        bounds[key] = costbound.program_cost_upper(program, functions, cost_model, hook)
    return bounds[key]


def _check_cost(
    originals: Sequence[Program],
    merged: Program,
    functions: Optional[FunctionTable],
    cost_model: CostModel,
    hook: Optional[LoopBoundHook],
    details: list[str],
) -> tuple[str, Optional[int], Optional[int]]:
    merged_ub = _cost_upper(merged, functions, cost_model, hook)
    total: Optional[int] = 0
    for o in originals:
        ub = _cost_upper(o, functions, cost_model, hook)
        if ub is None:
            details.append(f"original '{o.pid}': no finite static cost bound")
            total = None
            break
        total = total + ub
    if merged_ub is None:
        details.append(f"merged '{merged.pid}': no finite static cost bound")
    if merged_ub is None or total is None:
        return UNKNOWN, merged_ub, total
    if merged_ub <= total:
        return PROVED, merged_ub, total
    details.append(
        f"merged bound {merged_ub} exceeds originals' total {total} "
        "(bounds too loose to certify; dynamic check remains authoritative)"
    )
    return UNKNOWN, merged_ub, total


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def validate_consolidation(
    originals: Sequence[Program],
    merged: Program,
    functions: Optional[FunctionTable] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    invariants: bool = False,
) -> StaticValidation:
    """Statically certify ``merged`` against the ``originals`` it replaces.

    With ``invariants`` (and ``functions``), loops the interval domain
    cannot bound get a second chance through the SMT-backed invariant
    inference, on a fresh engine and solver: a pair record's certificate
    (``PairRecord.validation``) is computed so, when first read.
    """

    notify_verdict, details = check_notifications(originals, merged)
    hook = None
    if invariants and functions is not None:
        hook = make_invariant_loop_bound(SpEngine(functions), Solver())
    cost_verdict, merged_ub, total_ub = _check_cost(
        originals, merged, functions, cost_model, hook, details
    )
    return StaticValidation(
        merged_pid=merged.pid,
        original_pids=tuple(o.pid for o in originals),
        notify_verdict=notify_verdict,
        cost_verdict=cost_verdict,
        merged_cost_upper=merged_ub,
        originals_cost_upper=total_ub,
        details=tuple(details),
    )
