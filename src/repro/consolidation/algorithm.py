"""The consolidation algorithm Ω/Ω′ (Figure 8 of the paper).

:class:`Consolidator` merges two programs over the same input into one
program that broadcasts both results at no greater cost (Definition 1 /
Theorem 1).  The strategy follows the paper line by line:

* assignments and notifications are *simplified and consumed* (Assign/Step
  rules), growing the context ``Ψ`` through strongest postconditions;
* conditionals are resolved by If 1/If 2 when ``Ψ`` decides the test, and
  otherwise dispatched between If 3 (embed the whole second program in both
  branches), the derived If 4 (embed it, but keep the continuation outside)
  and the derived If 5 (only cross-simplify the test) using the ``related``
  heuristic — the simplification-vs-code-size trade-off of Section 4;
* a pair of loops is fused by Loop 2 when the inferred invariant proves the
  loops run the same number of times, by Loop 3 when it proves one runs
  longer, and is otherwise executed sequentially (Step/Seq);
* commutativity (Com) is applied sparingly: when the first program is
  exhausted, or when only the first starts with a loop (lines 5 and 32).

Every rewrite is justified by an SMT validity check against ``Ψ`` and a
static cost comparison, so the output is never costlier than sequential
execution; the :mod:`repro.consolidation.verify` module re-checks this
dynamically on concrete inputs, and the property-based test-suite does so
on random programs.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..analysis.invariants import loop_invariant
from ..analysis.related import Features, expr_features
from ..analysis.sp import SpEngine
from ..lang.ast import (
    Assign,
    Expr,
    FALSE,
    If,
    Notify,
    Program,
    QUALIFIER,
    SKIP,
    Skip,
    Stmt,
    TRUE,
    Var,
    While,
    display_name,
    seq,
    seq_head,
    seq_tail,
)
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.functions import FunctionTable
from ..lang.visitors import (
    assigned_vars,
    expr_vars,
    notified_pids,
    qualify_locals,
    stmt_exprs,
    stmt_size,
    stmt_vars,
    substitute,
)
from ..provenance.recorder import NULL_RECORDER, DerivationRecorder, NullRecorder
from ..smt.solver import Solver
from ..smt.terms import TRUE_F, Formula, cone_of_influence, fand, fiff, fnot
from .simplifier import Context, SimplifyStats

__all__ = [
    "ConsolidationOptions", "Consolidator", "ConsolidationError", "PairRecord", "check_batch",
    "MAX_EMBED_SIZE",
]

# Node-count guard above which If 3/If 4 are downgraded to If 5, taming the
# exponential blow-up the paper's Section 4 remark warns about.  Embedding
# pays when it can kill *expensive* computation in a branch; once programs
# grow past this size, cross-call sharing is already captured by the Assign
# rule (value numbering survives an If 5 join), so only cheap test
# elimination is forgone.
MAX_EMBED_SIZE = 160


class ConsolidationError(Exception):
    """The inputs violate a precondition of consolidation."""


def check_batch(programs: Sequence[Program]) -> None:
    """Refuse a batch whose programs take different inputs or share a
    notification id — it has no per-query buckets to fill (``consolidate_all``
    and ``whereMany`` alike)."""

    seen_pids: dict[str, str] = {}
    for p in programs:
        if p.params != programs[0].params:
            raise ConsolidationError(
                f"programs take different inputs: {programs[0].params} vs {p.params}"
            )
        for pid in notified_pids(p.body):
            if pid in seen_pids:
                raise ConsolidationError(
                    f"programs {seen_pids[pid]!r} and {p.pid!r} share notification id {pid!r}"
                )
            seen_pids[pid] = p.pid


@dataclass
class ConsolidationOptions:
    """Strategy knobs (the ablation benchmarks sweep these).

    ``if_rule_mode``:
        ``'heuristic'`` — the paper's algorithm (If 3/4/5 via ``related``);
        ``'always_if3'`` — maximal embedding (largest output, most sharing);
        ``'always_if5'`` — minimal embedding (smallest output, least sharing).
    ``enable_loop_rules``:
        When False, loop pairs always execute sequentially (ablation for
        Loop 2/Loop 3).
    ``use_smt``:
        When False, only syntactic value-numbering is used — no entailment
        checks, no If 1/If 2, no loop fusion (ablation for the SMT engine).
    ``static_validate``:
        Run the abstract-interpretation translation validator
        (:func:`repro.analysis.static.validate_consolidation`) over every
        merged pair; a *refuted* certificate raises
        :class:`ConsolidationError` (it would mean an unsound rewrite),
        while ``unknown`` verdicts are recorded and left to the dynamic
        checker.
    """

    if_rule_mode: str = "heuristic"
    enable_loop_rules: bool = True
    use_smt: bool = True
    static_validate: bool = False

    def __post_init__(self) -> None:
        if self.if_rule_mode not in ("heuristic", "always_if3", "always_if5"):
            raise ValueError(f"unknown if_rule_mode {self.if_rule_mode!r}")


@dataclass
class PairRecord:
    """The one account of one pair merge; every report is a view over these.

    :meth:`Consolidator.consolidate` fills in what the calculus knows:
    the merged ``program``, the ``seconds`` Ω took, the ``rules`` it applied
    in order, the pair's own entailment counters (``stats``), the static
    ``validation`` certificate (``options.static_validate``) and the
    ``derivation`` tree (a recording recorder).  The drivers add what only
    they know: ``skip_reason`` when the merge raised and ``program`` is the
    pair's sequential composition instead, and ``planner`` — the calibrated
    planner's decision dict for this pair.
    """

    left: str
    right: str
    program: Program
    seconds: float = 0.0
    rules: tuple[str, ...] = ()
    stats: SimplifyStats = field(default_factory=SimplifyStats)
    validation: Any = None
    derivation: Any = None
    skip_reason: Optional[str] = None
    planner: Optional[dict[str, Any]] = None

    @property
    def merged(self) -> bool:
        """Whether the calculus produced ``program`` (the merge neither
        failed nor was declined by the planner)."""

        return bool(self.planner["merged"]) if self.planner else self.skip_reason is None


def _printed_locals(p: Program) -> set[str]:
    """``p``'s locals as the printer spells them."""

    return {display_name(n) for n in stmt_vars(p.body)}


def _source_local(name: str) -> str:
    """A qualified local's name in its leaf: ``q1/x`` -> ``x``."""

    return name.rpartition(QUALIFIER)[2]


def _probe_pairs(us: Iterable[str], vs: Iterable[str]) -> Iterator[tuple[str, str]]:
    """The ``(u, v)`` pairs of distinct locals ``related`` may probe, lazily.

    Pairs with the same source local (``q0/t0``, ``q1/t0``) come first, so
    which few are probed does not depend on how the qualifiers spell;
    name order breaks ties.
    """

    us, vs = sorted(us), sorted(vs)
    source = {n: _source_local(n) for n in (*us, *vs)}
    same = ((u, v) for u in us for v in vs if u != v and source[u] == source[v])
    rest = ((u, v) for u in us for v in vs if source[u] != source[v])
    return chain(same, rest)


class Consolidator:
    """Merges programs pairwise; reusable (and cache-sharing) across pairs.

    ``trace`` lists the rules applied to the last pair and ``record`` is
    that pair's whole :class:`PairRecord`.
    """

    def __init__(
        self,
        functions: FunctionTable,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        options: ConsolidationOptions | None = None,
        solver: Solver | None = None,
        recorder: DerivationRecorder | NullRecorder = NULL_RECORDER,
    ) -> None:
        self.functions = functions
        self.cost_model = cost_model
        self.options = options or ConsolidationOptions()
        self.solver = solver or Solver()
        self.recorder = recorder
        self.trace: list[str] = []
        self.record: PairRecord | None = None

    # -- public API ---------------------------------------------------------

    def consolidate(self, p1: Program, p2: Program) -> Program:
        """``Ω``: consolidate two whole programs (Figure 8, line 2)."""

        if p1.params != p2.params:
            raise ConsolidationError(
                f"programs take different inputs: {p1.params} vs {p2.params}"
            )
        pids1, pids2 = notified_pids(p1.body), notified_pids(p2.body)
        if pids1 & pids2:
            raise ConsolidationError(f"programs share notification ids: {pids1 & pids2}")

        started = time.perf_counter()
        # A leaf handed in directly is qualified here; a merged program, or
        # a leaf qualified where it entered a merge tree, comes back as is.
        # The locals must be disjoint as printed: ``q1``'s ``a.x`` and
        # ``q1.a``'s ``x`` both print as ``q1.a.x``.
        q1, q2 = qualify_locals(p1), qualify_locals(p2)
        shared = _printed_locals(q1) & _printed_locals(q2)
        if shared:
            raise ConsolidationError(f"programs share locals after renaming: {sorted(shared)}")
        self.trace = []
        self.recorder.begin_pair(p1.pid, p2.pid)
        engine = SpEngine(self.functions)
        ctx = Context(
            engine=engine,
            solver=self.solver,
            cost_model=self.cost_model,
            psi=TRUE_F,
            use_smt=self.options.use_smt,
            recorder=self.recorder,
        )
        merged = Program(f"{p1.pid}&{p2.pid}", p1.params, self._omega(ctx, q1.body, q2.body))
        seconds = time.perf_counter() - started
        derivation = self.recorder.end_pair(merged.pid, seconds)
        validation = None
        if self.options.static_validate:
            from ..analysis.static import validate_consolidation

            validation = validate_consolidation(
                [p1, p2],
                merged,
                self.functions,
                self.cost_model,
                engine=engine,
                solver=self.solver,
            )
            if validation.refuted:
                raise ConsolidationError(
                    f"static validation refuted {merged.pid}: {'; '.join(validation.details)}"
                )
        self.record = PairRecord(
            p1.pid, p2.pid, merged, seconds, tuple(self.trace), ctx.stats, validation, derivation
        )
        return merged

    # -- Ω′ ----------------------------------------------------------------------

    def _rule(self, name: str, detail: str = "", *parts: object) -> None:
        """Emit one rule application — on ``trace`` and to the recorder.

        ``detail`` is a format template the recorder fills with its own
        rendering of ``parts``.
        """

        self.trace.append(name)
        self.recorder.leaf(name, detail, *parts)

    def _scope(self, name: str, detail: str, *parts: object) -> AbstractContextManager[object]:
        """Emit a structural rule, as :meth:`_rule` does: the
        sub-derivations run inside the returned context manager."""

        self.trace.append(name)
        return self.recorder.rule(name, detail, *parts)

    def _rewrite(self, ctx: Context, site: str, before: Expr, after: Expr) -> None:
        """Record one cross-simplification that changed an expression."""

        if self.recorder.enabled and after != before:
            self.recorder.rewrite(site, before, after, ctx.cost(before), ctx.cost(after))

    def _omega(self, ctx: Context, s: Stmt, r: Stmt) -> Stmt:
        """``Ω′``: consolidate two statements under context ``ctx``."""

        # Line 4: both consumed.
        if isinstance(s, Skip) and isinstance(r, Skip):
            return SKIP
        # Line 5: first consumed — commute so the second gets simplified.
        if isinstance(s, Skip):
            self._rule("Com", "first program exhausted")
            return self._omega(ctx, r, SKIP)

        head, tail = seq_head(s), seq_tail(s)

        # Line 7: Assign rule — simplify, emit, absorb into the context.
        if isinstance(head, Assign):
            rhs = ctx.simplify_for_sort(head.expr)
            self._rule("Assign", "{} := {}", Var(head.var), rhs)
            self._rewrite(ctx, "assign-rhs", head.expr, rhs)
            ctx.record_assign(head.var, rhs)
            rest = self._omega(ctx, tail, r)
            return seq(Assign(head.var, rhs), rest)

        # Line 8: Step over a notification (payload still cross-simplifies).
        if isinstance(head, Notify):
            payload = ctx.simplify_bool(head.expr)
            self._rule("Step", "notify {} {}", head.pid, payload)
            self._rewrite(ctx, "notify-payload", head.expr, payload)
            rest = self._omega(ctx, tail, r)
            return seq(Notify(head.pid, payload), rest)

        # Lines 9-18: conditionals.
        if isinstance(head, If):
            return self._consolidate_if(ctx, head, tail, r)

        # Lines 19-32: loops.
        if isinstance(head, While):
            return self._consolidate_while(ctx, head, tail, r)

        raise ConsolidationError(f"unhandled statement {head!r}")

    # -- conditionals --------------------------------------------------------------

    def _consolidate_if(self, ctx: Context, head: If, cont: Stmt, other: Stmt) -> Stmt:
        cond = head.cond
        recorder = self.recorder

        # If 1: the context proves the test — drop it and the dead branch.
        if ctx.entails_expr(cond):
            self._rule("If1", "Ψ proves {}", cond)
            ctx.observe(cond)
            return self._omega(ctx, seq(head.then, cont), other)

        # If 2: the context refutes the test.
        if ctx.entails_expr(cond, negate=True):
            self._rule("If2", "Ψ refutes {}", cond)
            ctx.observe(cond, negate=True)
            return self._omega(ctx, seq(head.orelse, cont), other)

        cond2 = ctx.simplify_bool(cond)
        if cond2 == TRUE:
            self._rule("If1", "test simplified to true: {}", cond)
            return self._omega(ctx.assuming(cond), seq(head.then, cont), other)
        if cond2 == FALSE:
            self._rule("If2", "test simplified to false: {}", cond)
            return self._omega(
                ctx.assuming(cond, negate=True), seq(head.orelse, cont), other
            )

        # Rule selection: If 3 vs the derived If 4 / If 5 (lines 14-18).
        mode = self.options.if_rule_mode
        if mode == "always_if3":
            use_if3, use_if4 = True, False
        elif mode == "always_if5":
            use_if3, use_if4 = False, False
        else:
            rel_cond = rel_cont = False
            if not isinstance(other, Skip):
                rel_cond = self._related(ctx, cond, other)
                rel_cont = self._related(ctx, cont, other)
                recorder.heuristic("related", "test {} vs other program", rel_cond, cond)
                recorder.heuristic("related", "continuation vs other program", rel_cont)
            # An empty continuation makes If 3 and If 4 coincide; report the
            # canonical (If 3) rule in that case.
            use_if3 = rel_cond and (rel_cont or isinstance(cont, Skip))
            use_if4 = rel_cond and not use_if3
        embedded_size = stmt_size(cont) + stmt_size(other)
        too_big = "{} downgraded: {} size {} > MAX_EMBED_SIZE {}"
        if use_if3 and embedded_size > MAX_EMBED_SIZE:
            recorder.heuristic(
                "embed-guard", too_big, False, "If3", "embedded", embedded_size, MAX_EMBED_SIZE
            )
            use_if3, use_if4 = False, True
        if use_if4 and stmt_size(other) > MAX_EMBED_SIZE:
            recorder.heuristic(
                "embed-guard", too_big, False, "If4", "other", stmt_size(other), MAX_EMBED_SIZE
            )
            use_if4 = False

        then_ctx = ctx.assuming(cond)
        else_ctx = ctx.assuming(cond, negate=True)

        if use_if3:
            # If 3: embed the remainder of *both* programs in the branches.
            with self._scope("If3", "if ({}) — embed both", cond2):
                self._rewrite(ctx, "if-test", cond, cond2)
                s1 = self._omega(then_ctx, seq(head.then, cont), other)
                s2 = self._omega(else_ctx, seq(head.orelse, cont), other)
            return self._make_if(cond2, s1, s2)

        # If 4 (derived): embed the other program, keep our continuation out.
        # If 5 (derived): simplify the test, keep everything else linear.
        if use_if4:
            name, detail, embedded = "If4", "if ({}) — embed other", other
        else:
            name, detail, embedded = "If5", "if ({}) — test only", SKIP
        with self._scope(name, detail, cond2):
            self._rewrite(ctx, "if-test", cond, cond2)
            s1 = self._omega(then_ctx, head.then, embedded)
            s2 = self._omega(else_ctx, head.orelse, embedded)
        self._join_after(ctx, If(cond, head.then, head.orelse), embedded)
        rest = self._omega(ctx, cont, SKIP if use_if4 else other)
        return seq(self._make_if(cond2, s1, s2), rest)

    @staticmethod
    def _make_if(cond: Expr, then: Stmt, orelse: Stmt) -> Stmt:
        """Build a conditional, eliding the test when both arms agree.

        ``S (+)e S`` is equivalent to ``S`` for our pure, total conditions,
        and strictly cheaper (the test and branch cost disappear) — this is
        how the dead ``price`` test vanishes from Example 1's else arm.
        """

        if then == orelse:
            return then
        return If(cond, then, orelse)

    def _expand_defs(self, ctx: Context, e: Expr, depth: int = 4) -> Expr:
        """Substitute consumed definitions into ``e``, transitively.

        ``q1.t -> q0.t -> has_direct(@row, 0, 1)`` must expand all the way
        for the sharing signal to surface after cross-rewrites chained
        variables together.  Costs what ``e`` mentions, not what ``ctx`` has
        defined; an ``e`` mentioning no defined variable is returned as is.
        """

        for _ in range(depth):
            mapping: dict[Expr, Expr] = {
                Var(n): ctx.defs[n] for n in expr_vars(e) if n in ctx.defs
            }
            if not mapping:
                break
            e = substitute(e, mapping)
        return e

    def _features(self, ctx: Context, x: Expr | Stmt) -> Features:
        """``related`` features of ``x``, expanded through consumed definitions.

        After ``name := toLower(airline(@fi))`` has been consumed, a later
        test on ``name`` must still count as related to another program that
        calls ``toLower`` — the definition table restores that visibility.
        """

        features = expr_features(x)
        if isinstance(x, Expr):
            exprs, mentioned = iter([x]), expr_vars(x)
        else:
            exprs, mentioned = stmt_exprs(x), stmt_vars(x)
        if ctx.defs.keys().isdisjoint(mentioned):
            return features
        calls, subjects, compared_vars = features
        for e in exprs:
            expanded = self._expand_defs(ctx, e)
            if expanded is not e:
                more = expr_features(expanded)
                calls |= more.calls
                subjects |= more.subjects
        return Features(calls, subjects, compared_vars)

    def _related(self, ctx: Context, a: Expr | Stmt, b: Expr | Stmt) -> bool:
        fa, fb = self._features(ctx, a), self._features(ctx, b)
        if fa.overlap(fb):
            return True
        # Variables compared against bounds on both sides may be equal only
        # semantically (an invariant proved them so); probe a few pairs.
        if ctx.use_smt and fa.compared_vars and fb.compared_vars:
            pairs = _probe_pairs(fa.compared_vars, fb.compared_vars)
            for u, v in islice(pairs, 6):
                if ctx.provably_equal(Var(u), Var(v)):
                    return True
        return False

    def _join_after(self, ctx: Context, executed: Stmt, absorbed: Stmt) -> None:
        """Advance ``ctx`` past statements whose effect happened in branches.

        The precise join would be the *disjunction* of the branch
        postconditions, but that doubles ``Ψ`` at every conditional and the
        solver cost compounds exponentially along a consolidated batch.  We
        havoc the branch-written variables instead — a sound weakening that
        leaves the path condition as it is; branch-local facts were already
        exploited while the branches themselves were consolidated.
        """

        killed = assigned_vars(executed)
        if not isinstance(absorbed, Skip):
            killed |= assigned_vars(absorbed)
        ctx.forget(killed)
        ctx.kill_vars(killed)

    # -- loops ------------------------------------------------------------------------

    def _consolidate_while(self, ctx: Context, head: While, cont: Stmt, other: Stmt) -> Stmt:
        other_head = seq_head(other)
        if isinstance(other_head, While):
            if self.options.enable_loop_rules and ctx.use_smt:
                fused = self._try_loop_fusion(ctx, head, cont, other_head, seq_tail(other))
                if fused is not None:
                    return fused
            # Lines 29-31: no provable relation (or loop rules disabled) —
            # run the loops sequentially.
            self._rule("Seq", "loop pair not fusible — sequential")
        elif not isinstance(other, Skip):
            # Line 32: only the first program starts with a loop — commute so
            # the other side is absorbed into the context first.
            self._rule("Com", "only first program starts with a loop")
            return self._omega(ctx, other, seq(head, cont))
        emitted = self._emit_loop(ctx, head)
        return seq(emitted, self._omega(ctx, cont, other))

    def _try_loop_fusion(
        self,
        ctx: Context,
        w1: While,
        cont1: Stmt,
        w2: While,
        cont2: Stmt,
    ) -> Stmt | None:
        """Loop 2 / Loop 3 (Figure 7); None when no relation is provable."""

        e1, s1 = w1.cond, w1.body
        e2, s2 = w2.cond, w2.body
        merged_body = seq(s1, s2)
        # ``head``: the store at the fused loop's head, its written locals
        # bound to fresh symbols that ``psi1``'s invariant facts speak about.
        head = dict(ctx.store)
        psi1 = loop_invariant(ctx.engine, ctx.solver, ctx.psi, [e1, e2], merged_body, head)
        enc1 = ctx.engine.encode_bool(e1, head)
        enc2 = ctx.engine.encode_bool(e2, head)
        if enc1 is None or enc2 is None:
            return None

        def proved(kind: str, psi_f: Formula, goal: Formula) -> bool:
            """One fusion goal against the solver, timed for the recorder."""

            started = time.perf_counter()
            hyp = cone_of_influence(psi_f, goal)
            verdict = ctx.solver.entails(hyp, goal)
            self.recorder.entailment(
                kind, hyp, goal, verdict, time.perf_counter() - started, "smt"
            )
            return verdict

        def fused(
            rule: str,
            detail: str,
            guard: Expr,
            enc: Formula,
            bodies: tuple[Stmt, Stmt],
            remainders: tuple[Stmt, Stmt],
        ) -> Stmt:
            """One fused loop ``while (guard) bodies``, then the remainders:
            the body under the invariant and the guard, the remainders under
            the invariant and the guard's negation, both over the loop-head
            store."""

            with self._scope(rule, "while ({}) — " + detail, guard):
                body_ctx = ctx.branch(fand(psi1, enc), head)
                body_ctx.bindings = {}
                body = self._omega(body_ctx, *bodies)
            ctx.psi, ctx.store = fand(psi1, fnot(enc)), head
            ctx.bindings = {}
            return seq(While(guard, body), self._omega(ctx, *remainders))

        # Loop 2: Ψ1 |= e1 <-> e2 — both loops run the same number of times.
        if proved("loop2-iff", psi1, fiff(enc1, enc2)):
            return fused("Loop2", "fused bodies", e1, enc1, (s1, s2), (cont1, cont2))

        exit_ctx = fand(psi1, fnot(fand(enc1, enc2)))

        # Loop 3: the first loop provably runs at least as long.
        if proved("loop3-exit", exit_ctx, enc1):
            remainder = seq(s1, While(e1, s1), cont1)
            return fused("Loop3", "first runs longer", e2, enc2, (s1, s2), (remainder, cont2))

        # Loop 3 with the arguments swapped (implicit Com, line 27-28).
        if proved("loop3-exit-swapped", exit_ctx, enc2):
            remainder = seq(s2, While(e2, s2), cont2)
            return fused("Loop3", "second runs longer", e1, enc1, (s2, s1), (remainder, cont1))

        return None

    def _emit_loop(self, ctx: Context, w: While) -> Stmt:
        """Step over one loop, self-simplifying it under its havoc context.

        The guard and body may only be rewritten under a context that holds
        at *every* iteration entry: the entry context with all body-written
        variables havocked (plus the guard itself, for the body).
        """

        body_vars = assigned_vars(w.body)

        # A guard refuted by the *entry* context means the loop never runs
        # at all (its body cannot have executed first), so the whole loop —
        # including the first test — disappears (Loop-expand + If 2).
        if ctx.entails_expr(w.cond, negate=True):
            self._rule("LoopDrop", "Ψ refutes guard {}", w.cond)
            return SKIP

        inv_ctx = ctx.branch()
        inv_ctx.bindings = {}
        inv_ctx.forget(body_vars)
        guard = inv_ctx.simplify_bool(w.cond)

        if guard == FALSE:
            # False at every reachable loop head (proved under the havoc
            # context, which the entry state satisfies too).
            self._rule("LoopDrop", "guard false under havoc context: {}", w.cond)
            return SKIP
        if guard == TRUE:
            guard = w.cond

        # A stepped-over loop's body is self-simplified under its havoc context.
        body_ctx = inv_ctx.assuming(w.cond)
        body_ctx.bindings = {}
        body = self._omega(body_ctx, w.body, SKIP)

        self._rule("Step", "while ({})", guard)
        self._rewrite(inv_ctx, "loop-guard", w.cond, guard)
        ctx.psi = ctx.engine.post(ctx.psi, ctx.store, w)
        ctx.kill_vars(body_vars)
        return While(guard, body)
