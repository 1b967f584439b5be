"""Sound prefilter synthesis and the vectorizability shape classifier.

Consolidation makes merged UDFs *bigger* per call, so the highest-leverage
static analysis on top of it is a reject-early guard: a cheap, branch-free,
loop-free **necessary condition** ``phi(row)`` with

    ``not phi(row)  =>  the UDF notifies no pid (truthily)``

Rows failing ``phi`` can skip the merged UDF entirely without changing any
result bucket, because the dataflow operators only route a record when a
notification is truthy.  ``phi`` is *necessary*, never sufficient: a row
passing the prefilter still runs the full UDF, so imprecision only costs
speed, never soundness.

Synthesis is a single forward walk over the Figure-1 IR that threads three
things side by side:

1. a **substitution map** from locals to argument-only expressions (an
   ``Assign`` whose right-hand side mentions only ``Arg``s, constants and
   library calls over those extends the map; anything else — including
   every variable a loop body may write — maps to *unknown*);
2. the **path condition**: at each ``Notify`` site the conjunction of the
   rewritten branch conditions on the path, plus the rewritten payload.
   Conjuncts that do not rewrite to argument-only form are *dropped to
   true* (weakening — always sound for a necessary condition).  A loop
   guard, rewritten under the *pre-loop* substitution, is kept for sites
   inside the body: the body cannot execute at all unless the first test
   passed;
3. a strongest-postcondition context ``Ψ`` (:class:`~repro.analysis.sp
   .SpEngine`) used to *certify* each kept site condition as an SMT
   validity query ``Ψ ∧ payload ⊨ condition`` through
   :class:`repro.smt.solver.Solver`.

Sites the interval abstract interpreter proves unreachable — or whose
payload it proves definitely false — are excluded from the disjunction
(they can never produce a truthy notification).  The final filter is
``phi = site_1 ∨ ... ∨ site_n`` over the live sites.

Degradation rules (the pass must never raise and never strengthen):

* a site condition that weakens all the way to ``true`` makes the whole
  filter trivial (``phi = true`` — certificate ``"trivial"``);
* any certificate failure — encoding outside QF_UFLIA, solver ``unknown``
  or an unproved entailment — degrades the *whole* filter to ``true``
  (dropping only the failing disjunct would *strengthen* ``phi``, which
  is unsound);
* an oversized ``phi`` (> :data:`MAX_PHI_SIZE` nodes) degrades to
  ``true``: the guard must stay cheaper than the UDF it guards.

The **shape classifier** tags each program on the vectorizability ladder
``straight-line < branch-free < bounded-loop < unbounded`` ("branch-free"
means free of loop back-edges: ``If``-only programs are if-convertible to
predicated straight-line code).  It reuses the cost-bound machinery: a
program whose worst-case cost is finite has only bounded loops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

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
from ..lang.builder import conj, disj
from ..lang.compile import DEFAULT_BACKEND
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.functions import FunctionTable
from ..lang.printer import expr_to_str
from ..lang.vectorize import VectorizedProgram, vectorize_cached
from ..lang.visitors import assigned_vars, contains_stmt, expr_size
from ..smt.solver import Solver
from ..smt.terms import Formula, fand, fnot
from ..telemetry import NULL_TELEMETRY, Telemetry
from .sp import SpEngine
from .static.costbound import program_cost_upper
from .static.domains import IntervalConstDomain
from .static.framework import analyze_program
from .static.values import StaticEnv

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..provenance.recorder import DerivationRecorder, DerivationTree

__all__ = [
    "SHAPES",
    "PREFILTER_PID",
    "MAX_PHI_SIZE",
    "Prefilter",
    "classify_shape",
    "synthesize_prefilter",
    "make_guard",
    "prefilter_program",
]

SHAPES = ("straight-line", "branch-free", "bounded-loop", "unbounded")

#: The reserved notification channel a compiled prefilter broadcasts on.
PREFILTER_PID = "__prefilter__"

#: Above this AST size the synthesized filter is considered more expensive
#: than it is worth and degrades to ``true``.
MAX_PHI_SIZE = 400


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


# ---------------------------------------------------------------------------
# Argument-only rewriting
# ---------------------------------------------------------------------------

Subst = dict[str, Optional[Expr]]


def _rewrite(e: Expr, subst: Mapping[str, Optional[Expr]]) -> Optional[Expr]:
    """Rewrite ``e`` into argument-only form, or None when impossible."""

    if isinstance(e, (IntConst, StrConst, BoolConst, Arg)):
        return e
    if isinstance(e, Var):
        return subst.get(e.name)
    if isinstance(e, Call):
        parts = [_rewrite(a, subst) for a in e.args]
        if any(p is None for p in parts):
            return None
        return Call(e.func, tuple(p for p in parts if p is not None))
    if isinstance(e, BinOp):
        left, right = _rewrite(e.left, subst), _rewrite(e.right, subst)
        if left is None or right is None:
            return None
        return BinOp(e.op, left, right)
    if isinstance(e, Cmp):
        left, right = _rewrite(e.left, subst), _rewrite(e.right, subst)
        if left is None or right is None:
            return None
        return Cmp(e.op, left, right)
    if isinstance(e, Not):
        sub = _rewrite(e.operand, subst)
        return None if sub is None else Not(sub)
    if isinstance(e, BoolOp):
        left, right = _rewrite(e.left, subst), _rewrite(e.right, subst)
        if left is None or right is None:
            return None
        return BoolOp(e.op, left, right)
    return None


def _tick(dropped: Optional[list[int]]) -> None:
    if dropped is not None:
        dropped[0] += 1


def _necessary(
    e: Expr,
    subst: Mapping[str, Optional[Expr]],
    dropped: Optional[list[int]] = None,
) -> Optional[Expr]:
    """A *weakened* argument-only rewrite of ``e`` in positive polarity.

    Whereas :func:`_rewrite` is all-or-nothing, this keeps whatever
    conjuncts of ``e`` do rewrite and drops the rest to ``true`` — sound
    for a necessary condition.  The load-bearing case is a payload like
    ``t > 80 and s > X`` where ``s`` is loop-carried: the cheap conjunct
    ``t > 80`` survives as the filter.  A disjunction needs *both* sides
    (weakening one disjunct to ``true`` absorbs the whole ``or``), and a
    negation flips polarity (:func:`_necessary_neg`).  ``dropped`` is a
    one-cell counter of conjuncts weakened away while a sibling survived
    (a fully-unrewritable expression is the caller's drop, not ours).
    """

    if isinstance(e, BoolOp) and e.op == "and":
        left = _necessary(e.left, subst, dropped)
        right = _necessary(e.right, subst, dropped)
        if left is None and right is None:
            return None
        if left is None:
            _tick(dropped)
            return right
        if right is None:
            _tick(dropped)
            return left
        return BoolOp("and", left, right)
    if isinstance(e, BoolOp) and e.op == "or":
        left = _necessary(e.left, subst, dropped)
        right = _necessary(e.right, subst, dropped)
        if left is None or right is None:
            return None
        return BoolOp("or", left, right)
    if isinstance(e, Not):
        return _necessary_neg(e.operand, subst, dropped)
    return _rewrite(e, subst)


def _necessary_neg(
    e: Expr,
    subst: Mapping[str, Optional[Expr]],
    dropped: Optional[list[int]] = None,
) -> Optional[Expr]:
    """A weakened rewrite of ``¬e``: negation pushed through by De Morgan."""

    if isinstance(e, BoolOp) and e.op == "and":
        # ¬(a ∧ b) = ¬a ∨ ¬b: a disjunction, so both sides are needed.
        left = _necessary_neg(e.left, subst, dropped)
        right = _necessary_neg(e.right, subst, dropped)
        if left is None or right is None:
            return None
        return BoolOp("or", left, right)
    if isinstance(e, BoolOp) and e.op == "or":
        # ¬(a ∨ b) = ¬a ∧ ¬b: keep whichever conjuncts rewrite.
        left = _necessary_neg(e.left, subst, dropped)
        right = _necessary_neg(e.right, subst, dropped)
        if left is None and right is None:
            return None
        if left is None:
            _tick(dropped)
            return right
        if right is None:
            _tick(dropped)
            return left
        return BoolOp("and", left, right)
    if isinstance(e, Not):
        return _necessary(e.operand, subst, dropped)
    sub = _rewrite(e, subst)
    return None if sub is None else Not(sub)


# ---------------------------------------------------------------------------
# Site collection
# ---------------------------------------------------------------------------


@dataclass
class _Site:
    """One live ``Notify`` with its necessary condition and certificate Ψ."""

    pid: str
    condition: Optional[Expr]  # argument-only; None = unconstrained (true)
    hypothesis: Formula  # Ψ at the site ∧ encoded payload


@dataclass
class _Collector:
    engine: SpEngine
    pre_envs: dict[int, StaticEnv]
    live: list[_Site] = field(default_factory=list)
    dead: int = 0
    total: int = 0
    dropped: int = 0
    _drop_cell: list[int] = field(default_factory=lambda: [0])

    def _cell(self) -> list[int]:
        """The shared partial-weakening counter (folded in via ``dropped``)."""

        return self._drop_cell

    def walk(
        self, stmt: Stmt, subst: Subst, path: list[Expr], psi: Formula
    ) -> Formula:
        if isinstance(stmt, Skip):
            return psi
        if isinstance(stmt, Seq):
            for sub in stmt.stmts:
                psi = self.walk(sub, subst, path, psi)
            return psi
        if isinstance(stmt, Assign):
            subst[stmt.var] = _rewrite(stmt.expr, subst)
            return self.engine.assign(psi, stmt.var, stmt.expr)
        if isinstance(stmt, Notify):
            self._site(stmt, subst, path, psi)
            return psi
        if isinstance(stmt, If):
            return self._branch(stmt, subst, path, psi)
        if isinstance(stmt, While):
            return self._loop(stmt, subst, path, psi)
        raise TypeError(f"not a statement: {stmt!r}")

    def _site(
        self, stmt: Notify, subst: Subst, path: list[Expr], psi: Formula
    ) -> None:
        self.total += 1
        env = self.pre_envs.get(id(stmt))
        statically_false = isinstance(stmt.expr, BoolConst) and not stmt.expr.value
        if (
            env is None  # never visited: the abstract state was bottom
            or env.unreachable
            or statically_false
            or env.eval_bool(stmt.expr) is False
        ):
            self.dead += 1
            return
        parts = list(path)
        if not (isinstance(stmt.expr, BoolConst) and stmt.expr.value):
            payload = _necessary(stmt.expr, subst, self._cell())
            if payload is not None:
                parts.append(payload)
            else:
                self.dropped += 1
        condition = conj(*parts) if parts else None
        self.live.append(
            _Site(
                pid=stmt.pid,
                condition=condition,
                hypothesis=self.engine.assume(psi, stmt.expr),
            )
        )

    def _branch(
        self, stmt: If, subst: Subst, path: list[Expr], psi: Formula
    ) -> Formula:
        cond = _necessary(stmt.cond, subst, self._cell())
        neg = _necessary_neg(stmt.cond, subst, self._cell())
        if cond is None or neg is None:
            self.dropped += 1
        then_subst, else_subst = dict(subst), dict(subst)
        then_path = path + ([cond] if cond is not None else [])
        else_path = path + ([neg] if neg is not None else [])
        psi_then = self.walk(
            stmt.then, then_subst, then_path, self.engine.assume(psi, stmt.cond)
        )
        psi_else = self.walk(
            stmt.orelse,
            else_subst,
            else_path,
            self.engine.assume(psi, stmt.cond, negate=True),
        )
        for name in set(then_subst) | set(else_subst):
            a, b = then_subst.get(name), else_subst.get(name)
            subst[name] = a if a is not None and a == b else None
        from ..smt.terms import for_

        return for_(psi_then, psi_else)

    def _loop(
        self, stmt: While, subst: Subst, path: list[Expr], psi: Formula
    ) -> Formula:
        # The body cannot run unless the *first* guard test passed, so the
        # guard rewritten under the pre-loop substitution is a necessary
        # conjunct for every site inside the body.
        guard = _necessary(stmt.cond, subst, self._cell())
        if guard is None:
            self.dropped += 1
        assigned = assigned_vars(stmt.body)
        # Ψ for body sites: the first test passed (pre-loop versions), then
        # an arbitrary number of iterations ran (havoc), and the guard holds
        # again at the iteration the site fires on.
        psi_entry = self.engine.assume(psi, stmt.cond)
        psi_body = self.engine.assume(
            self.engine.havoc(psi_entry, assigned), stmt.cond
        )
        body_subst = dict(subst)
        for name in assigned:
            body_subst[name] = None
        body_path = path + ([guard] if guard is not None else [])
        self.walk(stmt.body, body_subst, body_path, psi_body)
        # Post-loop: every variable the body writes is unknown.
        for name in assigned:
            subst[name] = None
        enc = self.engine.encode_bool(stmt.cond)
        psi_exit = self.engine.havoc(psi, assigned)
        if enc is not None:
            psi_exit = fand(psi_exit, fnot(enc))
        return psi_exit


def _reachability(program: Program) -> dict[int, StaticEnv]:
    """Map each syntactic ``Notify`` (by identity) to its abstract pre-state.

    Sites missing from the map were only ever reached with a bottom state:
    the interval interpreter proved them unreachable.
    """

    pre_envs: dict[int, StaticEnv] = {}

    def visit(stmt: Stmt, state: StaticEnv) -> None:
        if isinstance(stmt, Notify):
            pre_envs[id(stmt)] = state

    analyze_program(IntervalConstDomain.for_program(program), program, visit)
    return pre_envs


# ---------------------------------------------------------------------------
# The synthesized filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prefilter:
    """A sound reject-early guard for one UDF.

    ``phi`` is the argument-only necessary condition; ``certificate`` is
    ``"proved"`` (every live site discharged against the solver),
    ``"trivial"`` (the filter weakened to ``true`` — expected precision
    loss, not a failure) or ``"degraded"`` (a certificate step failed and
    the filter fell back to ``true``; see ``degraded_reason``).
    """

    pid: str
    phi: Expr
    shape: str
    certificate: str
    degraded_reason: str = ""
    sites: int = 0
    live_sites: int = 0
    dead_sites: int = 0
    dropped_conjuncts: int = 0
    synthesis_seconds: float = 0.0
    derivation: Optional["DerivationTree"] = field(
        default=None, compare=False, repr=False
    )

    @property
    def trivial(self) -> bool:
        """True when ``phi`` is the constant ``true`` (filters nothing)."""

        return isinstance(self.phi, BoolConst) and self.phi.value

    @property
    def rejects_everything(self) -> bool:
        """True when ``phi`` is the constant ``false`` (no site can fire)."""

        return isinstance(self.phi, BoolConst) and not self.phi.value

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "phi": expr_to_str(self.phi),
            "shape": self.shape,
            "certificate": self.certificate,
            "degraded_reason": self.degraded_reason,
            "trivial": self.trivial,
            "sites": self.sites,
            "live_sites": self.live_sites,
            "dead_sites": self.dead_sites,
            "dropped_conjuncts": self.dropped_conjuncts,
            "synthesis_seconds": round(self.synthesis_seconds, 6),
        }


def synthesize_prefilter(
    program: Program,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    solver: Optional[Solver] = None,
    recorder: Optional["DerivationRecorder"] = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> Prefilter:
    """Synthesize a sound necessary-condition prefilter for ``program``.

    Never raises: any internal failure (encoding outside the SMT fragment,
    solver ``unknown``, an unproved certificate, an analysis crash)
    degrades the result to ``phi = true``, which filters nothing and is
    vacuously sound.
    """

    started = time.perf_counter()
    shape = classify_shape(program, functions, cost_model)
    if recorder is not None:
        recorder.begin_pair(program.pid, "prefilter")

    phi, certificate, reason, collector = _synthesize(
        program, functions, solver, recorder
    )
    seconds = time.perf_counter() - started

    derivation: Optional["DerivationTree"] = None
    if recorder is not None:
        recorder.leaf(
            "PrefilterResult",
            f"shape={shape} certificate={certificate} phi={expr_to_str(phi)}",
        )
        derivation = recorder.end_pair(f"φ[{program.pid}]", seconds)

    if telemetry.enabled:
        telemetry.counter("prefilter_synthesized_total").inc()
        if certificate == "degraded":
            telemetry.counter("prefilter_degraded_total").inc()
        telemetry.histogram("prefilter_synthesis_seconds").observe(seconds)

    return Prefilter(
        pid=program.pid,
        phi=phi,
        shape=shape,
        certificate=certificate,
        degraded_reason=reason,
        sites=collector.total if collector is not None else 0,
        live_sites=len(collector.live) if collector is not None else 0,
        dead_sites=collector.dead if collector is not None else 0,
        dropped_conjuncts=(
            collector.dropped + collector._drop_cell[0]
            if collector is not None
            else 0
        ),
        synthesis_seconds=seconds,
        derivation=derivation,
    )


def _synthesize(
    program: Program,
    functions: FunctionTable,
    solver: Optional[Solver],
    recorder: Optional["DerivationRecorder"],
) -> tuple[Expr, str, str, Optional[_Collector]]:
    """The fallible core of :func:`synthesize_prefilter`.

    Returns ``(phi, certificate, degraded_reason, collector)``.
    """

    from ..smt.terms import TRUE_F

    try:
        engine = SpEngine(functions)
        collector = _Collector(engine=engine, pre_envs=_reachability(program))
        subst: Subst = {}
        collector.walk(program.body, subst, [], TRUE_F)
    except Exception as exc:  # noqa: BLE001 - degrade, never raise
        return BoolConst(True), "degraded", f"collection failed: {exc}", None

    if not collector.live:
        # Every notify site is statically dead: no row can ever produce a
        # truthy notification, so rejecting everything is sound.
        return BoolConst(False), "proved", "", collector

    if any(site.condition is None for site in collector.live):
        return BoolConst(True), "trivial", "", collector

    conditions: list[Expr] = []
    for site in collector.live:
        assert site.condition is not None
        if site.condition not in conditions:
            conditions.append(site.condition)
    phi = disj(*conditions)
    if expr_size(phi) > MAX_PHI_SIZE:
        return (
            BoolConst(True),
            "degraded",
            f"phi size {expr_size(phi)} exceeds {MAX_PHI_SIZE}",
            collector,
        )

    verdict, reason = _certify(collector, solver, recorder)
    if not verdict:
        return BoolConst(True), "degraded", reason, collector
    return phi, "proved", "", collector


def _certify(
    collector: _Collector,
    solver: Optional[Solver],
    recorder: Optional["DerivationRecorder"],
) -> tuple[bool, str]:
    """Discharge every live site condition as an SMT validity query."""

    owned = solver if solver is not None else Solver()
    for site in collector.live:
        assert site.condition is not None
        try:
            goal = collector.engine.encode_bool(site.condition)
            if goal is None:
                return False, (
                    f"site {site.pid}: condition outside the SMT fragment: "
                    f"{expr_to_str(site.condition)}"
                )
            checked = time.perf_counter()
            proved = owned.entails(site.hypothesis, goal)
            elapsed = time.perf_counter() - checked
            if recorder is not None:
                recorder.entailment(
                    "prefilter", site.hypothesis, site.condition, proved, elapsed, "smt"
                )
            if not proved:
                return False, (
                    f"site {site.pid}: certificate not proved "
                    f"(solver sat/unknown) for {expr_to_str(site.condition)}"
                )
        except Exception as exc:  # noqa: BLE001 - degrade, never raise
            return False, f"site {site.pid}: certificate check failed: {exc}"
    return True, ""


# ---------------------------------------------------------------------------
# Compilation into the hot path
# ---------------------------------------------------------------------------


def prefilter_program(prefilter: Prefilter, program: Program) -> Program:
    """Wrap ``phi`` as a one-statement program broadcasting on the
    reserved :data:`PREFILTER_PID` channel.

    The Where operators run it as a whole-column mask compacting each batch
    before the UDF runs; the soundness oracle runs it per record.
    """

    return Program(
        pid=program.pid,
        params=program.params,
        body=Notify(PREFILTER_PID, prefilter.phi),
    )


def make_guard(
    program: Program,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    backend: str = DEFAULT_BACKEND,
    telemetry: Telemetry = NULL_TELEMETRY,
    prefilter: Optional[Prefilter] = None,
) -> Optional[VectorizedProgram]:
    """Synthesize φ (unless given) and lower its :func:`prefilter_program`.

    The guard is the wrapper's execution ladder, lowered through the UDF
    lowering cache with the run's backend.  This is the operator-facing
    entry point: it never raises, returning None — "no guard, run
    everything" — when φ is trivial or anything fails.
    """

    try:
        pre = prefilter
        if pre is None:
            pre = synthesize_prefilter(program, functions, cost_model, telemetry=telemetry)
        if pre.trivial:
            return None
        return vectorize_cached(
            prefilter_program(pre, program), functions, cost_model,
            backend=backend, telemetry=telemetry,
        )
    except Exception:  # noqa: BLE001 - no guard is always sound
        return None
