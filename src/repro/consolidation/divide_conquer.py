"""Consolidating *n* UDFs: the divide-and-conquer driver (Section 6.1).

The paper amortises consolidation cost over many queries by merging UDFs
pairwise in a balanced tree: 50 leaf UDFs → 25 pairs → 13 → … → 1.  Each
internal node consolidates two already-consolidated programs, so "the last
iteration typically consolidates a pair of programs each containing a few
thousand lines of code".

Four orders are provided (the ablation benchmark compares them):

* ``clustered`` (default) — the balanced tree over programs first sorted
  by call-feature signature, so same-family queries merge while small;
* ``tree``  — the paper's balanced divide-and-conquer in given order;
* ``fold``  — a left fold (accumulate one growing program), which exposes
  the same optimisations but consolidates the big accumulator n−1 times;
* ``priority`` — a fold with the queries named in ``priority`` first (the
  Section 8 latency extension).

Each tree level's pair consolidations can run on an ``executor``:

* ``"serial"`` (default) — inline, one after the other;
* ``"thread"`` — a thread pool, mirroring the paper's parallel driver
  structure (CPython threads cannot speed up this CPU-bound work, but the
  measured *tree depth* is what the scalability experiment reports);
* ``"process"`` — a process pool that actually uses multiple cores:
  programs are picklable ASTs, and consolidation never calls the library
  *implementations* (it is a static transformation), so each worker gets a
  callable-free copy of the function table.  Child-process counters are
  folded back into the parent's report; per-query SMT latency histograms
  are process-local and therefore only recorded for serial/thread runs.

:class:`ConsolidationReport.executor` records which executor actually ran.

Telemetry (``telemetry=`` or ``config.telemetry``): per-pair merge time
histogram, calculus rule application counts, SMT query counters and the
entailment fast-path counters all land in the metrics registry; tracing
adds ``consolidate.batch`` / ``consolidate.pair`` spans.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace as dc_replace
from typing import Iterator, Optional, Sequence

from ..lang.ast import Program, seq
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.functions import FunctionTable, LibraryFunction
from ..lang.visitors import notified_pids, rename_locals
from ..smt.solver import Solver
from ..provenance.recorder import DerivationRecorder, Heuristic
from ..telemetry import NULL_TELEMETRY
from .algorithm import ConsolidationError, ConsolidationOptions, Consolidator
from .simplifier import SimplifyStats

_PLANNERS = ("related", "calibrated")

__all__ = [
    "ConsolidationReport",
    "MergeNode",
    "consolidate_all",
    "FAULT_HOOK",
    "SMT_UNKNOWN_NOTE",
]

_EXECUTORS = ("serial", "thread", "process")

# Prefix of the ConsolidationReport.degradations entry recording that the
# SMT solver answered "unknown" during the batch.  Unlike a skipped pair or
# a broken pool, this degradation is deterministic (the same batch always
# produces it) and purely a precision loss, so differential checks that
# compare executors can recognise and ignore it.
SMT_UNKNOWN_NOTE = "SMT solver returned unknown"

# Fault-injection seam (see repro.testing.faults).  Sites:
#   ("consolidate.pair", (a, b))   — consulted before each in-process pair
#                                    merge; raising simulates a mid-batch
#                                    failure, which must *degrade* (keep the
#                                    pair unmerged), never escape;
#   ("consolidate.worker", (a, b)) — consulted inside the process-pool
#                                    worker; raising (or ``os._exit``-ing,
#                                    which kills the worker and breaks the
#                                    pool) must make the driver redo the
#                                    level serially.
# None — the production value — costs one attribute read per pair.
FAULT_HOOK = None


@dataclass
class MergeNode:
    """One node of the divide-and-conquer merge tree.

    Leaves hold the original (unmerged) programs; an internal node holds
    the program produced by consolidating its two children.  The tree is
    treated as immutable: the incremental re-consolidation engine
    (:mod:`repro.consolidation.incremental`) patches it by rebuilding only
    the nodes on the path it touched, sharing every untouched subtree.
    """

    program: Program
    left: Optional["MergeNode"] = None
    right: Optional["MergeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def leaves(self) -> Iterator["MergeNode"]:
        """The leaf nodes in left-to-right order."""

        if self.is_leaf:
            yield self
            return
        for child in (self.left, self.right):
            if child is not None:
                yield from child.leaves()

    def leaf_pids(self) -> list[str]:
        return [leaf.program.pid for leaf in self.leaves()]

    def depth(self) -> int:
        """Height of the tree (a single leaf has depth 1)."""

        if self.is_leaf:
            return 1
        children = [c for c in (self.left, self.right) if c is not None]
        return 1 + max(c.depth() for c in children)

    def internal_count(self) -> int:
        """Number of internal nodes, i.e. pair merges the tree embodies."""

        if self.is_leaf:
            return 0
        count = 1
        for child in (self.left, self.right):
            if child is not None:
                count += child.internal_count()
        return count

    def shape(self) -> object:
        """A JSON-friendly rendering of the tree's structure (pids only)."""

        if self.is_leaf:
            return self.program.pid
        return {
            "pid": self.program.pid,
            "children": [
                c.shape() for c in (self.left, self.right) if c is not None
            ],
        }


@dataclass
class ConsolidationReport:
    """What happened while merging a batch of UDFs.

    ``executor``/``max_workers`` record how the driver was configured, so
    scalability experiments can attribute a duration to the pool it used.

    ``simplify_stats`` aggregates the entailment fast-path counters
    (abstract-env pre-check skips, memo hits) over every pair;
    ``validations`` holds one static-validation certificate per pair when
    ``options.static_validate`` is on.

    ``derivations`` holds one
    :class:`repro.provenance.DerivationTree` per successfully merged pair
    when provenance recording was requested (``provenance=True`` or
    ``config.provenance``); it is empty otherwise.

    ``prefilter`` holds the :class:`repro.analysis.prefilter.Prefilter`
    synthesized for the merged program when requested (``prefilter=True``
    or ``config.prefilter``), and ``prefilter_seconds`` its synthesis
    time — reported separately from ``duration`` (and spanned as
    ``consolidate.prefilter``) so guard synthesis can be banded apart
    from merge time.

    ``planner`` records the pair-ordering strategy that ran (``"related"``
    — the default heuristic adjacency — or ``"calibrated"``), and
    ``planner_decisions`` one dict per calibrated-planner decision:
    ``{"left", "right", "merged", "predicted_savings_seconds",
    "observed_savings_seconds", "mispredicted", "used_smt"}``.  A *skip*
    decision (``"merged": False``) means the planner predicted zero
    cross-simplification value and composed the pair sequentially without
    invoking the consolidator at all — semantically the exact result a
    merge of unrelated programs produces, minus its cost.

    ``skipped_pairs`` records every pair merge that failed mid-batch and
    was replaced by the sequential composition of its two inputs (one
    ``{"left", "right", "reason"}`` dict per skip); ``degradations`` is a
    log of coarser fallbacks (a broken process pool redone serially, or the
    :data:`SMT_UNKNOWN_NOTE` entry when the solver answered "unknown" and
    rewrites were skipped conservatively).  The driver *never* raises for
    these — the result is still a correct program, just less consolidated —
    so callers must consult :attr:`degraded` when they care.
    """

    program: Program
    num_inputs: int
    pair_consolidations: int = 0
    tree_depth: int = 0
    duration: float = 0.0
    prefilter: object = None
    prefilter_seconds: float = 0.0
    solver_stats: dict[str, int] = field(default_factory=dict)
    max_workers: int = 1
    executor: str = "serial"
    simplify_stats: dict = field(default_factory=dict)
    validations: list = field(default_factory=list)
    skipped_pairs: list = field(default_factory=list)
    degradations: list = field(default_factory=list)
    derivations: list = field(default_factory=list)
    merge_tree: Optional[MergeNode] = None
    planner: str = "related"
    planner_decisions: list = field(default_factory=list)

    @property
    def all_certified(self) -> bool:
        """Every pair statically certified (vacuously True when not validated)."""

        return all(v.certified for v in self.validations)

    @property
    def degraded(self) -> bool:
        """True when any pair was kept unmerged or any executor fell back."""

        return bool(self.skipped_pairs or self.degradations)


def _cluster_by_features(programs: list[Program]) -> list[Program]:
    """Order programs so UDFs with shared computations sit adjacently.

    The balanced tree pairs neighbours; in a mixed batch, random adjacency
    makes many early pairs share nothing.  Sorting by the call-feature
    signature (the same notion the ``related`` heuristic uses) clusters
    each family's queries together, so they merge while still small —
    where the If 3 embedding that eliminates redundant tests is cheapest.
    The reordering is semantics-preserving: every program still broadcasts
    through its own identifier.
    """

    from ..analysis.related import call_features
    from ..lang.visitors import stmt_exprs

    def signature(p: Program) -> str:
        keys = sorted(repr(k) for k in call_features(stmt_exprs(p.body)))
        return "|".join(keys)

    return sorted(programs, key=lambda p: (signature(p), p.pid))


# ---------------------------------------------------------------------------
# Process-pool plumbing.  Consolidation never *calls* library functions, so
# the child rebuilds the table from a picklable (name, cost, sorts) spec
# with a stub callable — lambdas and closures in the real table would not
# survive pickling.
# ---------------------------------------------------------------------------


def _stub_fn(*_args):  # pragma: no cover - consolidation never calls it
    raise RuntimeError("library implementations are not shipped to consolidation workers")


def _table_spec(functions: FunctionTable) -> tuple:
    return tuple((f.name, f.cost, f.result_sort, f.arg_sorts) for f in functions)


def _table_from_spec(spec: tuple) -> FunctionTable:
    return FunctionTable(
        LibraryFunction(name, _stub_fn, cost=cost, result_sort=sort, arg_sorts=args)
        for name, cost, sort, args in spec
    )


def _sequential_pair(a: Program, b: Program) -> Program:
    """The sequential baseline for one pair: run ``a`` then ``b`` unmerged.

    This is exactly what the paper's Ω produces when no rule applies — the
    two bodies concatenated after the mechanical disjoint-locals renaming —
    so notifications are the disjoint union and the cost is the sum of the
    originals, never worse than running the pair separately.  It is the
    fallback the driver substitutes when a pair merge fails mid-batch.
    """

    qa, qb = rename_locals(a), rename_locals(b)
    return Program(f"{a.pid}&{b.pid}", a.params, seq(qa.body, qb.body))


def _merge_pair_task(payload: tuple):
    """Top-level (hence picklable) pair-merge job for the process pool."""

    a, b, spec, cost_model, options, provenance = payload
    if FAULT_HOOK is not None:
        FAULT_HOOK("consolidate.worker", (a, b))
    recorder = DerivationRecorder() if provenance else None
    worker = Consolidator(
        _table_from_spec(spec), cost_model, options, recorder=recorder
    )
    merged = worker.consolidate(a, b)
    # Derivation events are plain string/number dataclasses, so the tree
    # pickles back to the parent unchanged.
    return (
        merged,
        worker.simplify_stats,
        worker.solver.stats.snapshot(),
        worker.last_validation,
        tuple(worker.trace),
        worker.last_duration,
        worker.last_derivation,
    )


def consolidate_all(
    programs: list[Program],
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    options: ConsolidationOptions | None = None,
    order: str = "clustered",
    max_workers: Optional[int] = None,
    priority: Sequence[str] | None = None,
    executor: Optional[str] = None,
    telemetry=None,
    config=None,
    provenance: Optional[bool] = None,
    prefilter: Optional[bool] = None,
    keep_tree: bool = False,
    planner: Optional[str] = None,
    calibration=None,
    smt_budget_seconds: Optional[float] = None,
) -> ConsolidationReport:
    """Merge ``programs`` into one program broadcasting every result.

    ``order='priority'`` implements the paper's Section 8 extension sketch:
    a (partial) query execution order.  Programs are folded left-to-right
    with the queries named in ``priority`` placed first; since Ω′ consumes
    the first program's statements — including its ``notify`` — before the
    second's, a higher-priority query's result is broadcast earlier in the
    merged program, bounding its latency.

    ``executor`` selects how each tree level's pair merges run (see module
    docstring); ``config`` (an :class:`repro.config.ExecutionConfig`)
    supplies defaults for ``executor``, ``max_workers``, ``telemetry`` and
    ``provenance``.

    ``provenance=True`` records one
    :class:`~repro.provenance.DerivationTree` per merged pair onto the
    report's ``derivations`` — every rule application, entailment, rewrite
    and heuristic decision of the batch.

    ``prefilter=True`` additionally synthesizes a sound reject-early guard
    for the final merged program (see :mod:`repro.analysis.prefilter`);
    the result and its timing land on ``report.prefilter`` /
    ``report.prefilter_seconds``.

    ``keep_tree=True`` records the divide-and-conquer structure itself: the
    report's ``merge_tree`` holds one :class:`MergeNode` per original
    program (leaves) and per pair merge (internal nodes, each carrying its
    intermediate merged program).  The incremental re-consolidation engine
    (:mod:`repro.consolidation.incremental`) patches this tree on
    add/remove of a single query instead of re-running the whole batch.

    ``planner="calibrated"`` replaces the level's fixed adjacent pairing
    with the cost-driven plan of :mod:`repro.profiling.planner`: pairs
    are ranked by predicted wall-seconds saved under ``calibration`` (a
    :class:`repro.profiling.CalibratedCostModel`; the static-prior
    ``uniform()`` model when none is supplied), executed highest-savings
    first, and pairs predicted unprofitable are composed sequentially
    without invoking the consolidator.  ``smt_budget_seconds`` caps the
    wall time spent on SMT-backed merges: once the budget is gone, the
    remaining (lowest-savings) pairs merge with ``use_smt=False``.
    Calibrated planning applies to the tree orders (``tree`` /
    ``clustered``) and runs its pair merges in-process and in plan order
    — budget accounting is sequential by construction — so ``executor``
    only shapes the ``related`` planner's levels.  Every decision lands
    on ``report.planner_decisions`` and, for provenance-recorded merges,
    as a ``planner`` heuristic entry on the pair's derivation tree
    (rendered by ``repro explain``).
    """

    if not programs:
        raise ValueError("need at least one program")
    if order not in ("tree", "fold", "priority", "clustered"):
        raise ValueError(f"unknown order {order!r}")

    # Batch-level preconditions are checked up front so misuse still raises
    # eagerly; once they hold, any *mid-batch* failure (solver crash, refuted
    # validation, dead worker) degrades to the sequential baseline instead.
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

    if executor is None:
        executor = config.executor if config is not None else "serial"
    if executor not in _EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose from {_EXECUTORS}")
    if max_workers is None:
        max_workers = config.max_workers if config is not None else 4
    if telemetry is None:
        telemetry = config.telemetry if config is not None else NULL_TELEMETRY
    if provenance is None:
        provenance = bool(config.provenance) if config is not None else False
    if prefilter is None:
        prefilter = bool(config.prefilter) if config is not None else False
    if planner is None:
        planner = config.planner if config is not None else "related"
    if planner not in _PLANNERS:
        raise ValueError(f"unknown planner {planner!r}; choose from {_PLANNERS}")
    if calibration is None and config is not None:
        calibration = config.calibration
    if smt_budget_seconds is None and config is not None:
        smt_budget_seconds = config.smt_budget_seconds

    if order == "priority":
        rank = {pid: i for i, pid in enumerate(priority or [])}
        programs = sorted(programs, key=lambda p: rank.get(p.pid, len(rank)))
        order = "fold"
    elif order == "clustered":
        programs = _cluster_by_features(programs)
        order = "tree"

    solver = Solver(telemetry=telemetry)
    options = options or ConsolidationOptions()
    stats = SimplifyStats()
    validations: list = []
    extra_solver_stats: dict[str, int] = {}
    registry = telemetry.metrics
    pair_seconds = registry.histogram("consolidation_pair_seconds")
    rule_counts: dict[str, int] = {}
    started = time.perf_counter()
    pairs = 0
    depth = 0

    def record_pair(trace, duration: float) -> None:
        pair_seconds.observe(duration)
        for rule in trace:
            rule_counts[rule] = rule_counts.get(rule, 0) + 1

    skipped: list[dict] = []
    degradations: list[str] = []
    derivations: list = []

    # Calibrated-planner state (inert under planner="related").
    calib_model = None
    planner_decisions: list[dict] = []
    planner_skips = 0
    planner_mispredictions = 0
    planner_budget_exhausted = 0
    smt_spent = 0.0
    if planner == "calibrated":
        from ..profiling import CalibratedCostModel

        calib_model = (
            calibration
            if calibration is not None
            else CalibratedCostModel.uniform(cost_model)
        )

    def merge(
        a: Program, b: Program, pair_options: ConsolidationOptions | None = None
    ) -> Program:
        # A fresh Consolidator per pair keeps traces separate; the shared
        # solver keeps the entailment cache warm across pairs, and the
        # shared stats object aggregates fast-path counters batch-wide.
        # (The recorder is per-pair too: its node stack is not re-entrant,
        # and the thread executor runs pairs concurrently; list.append on
        # the shared derivations list is atomic under the GIL.)
        # Any failure here — a solver crash escaping as an exception, a
        # refuted static validation, an injected fault — keeps the pair
        # unmerged (the sequential baseline is always correct) and records
        # the skip; the batch never dies for one pair.
        try:
            if FAULT_HOOK is not None:
                FAULT_HOOK("consolidate.pair", (a, b))
            recorder = DerivationRecorder() if provenance else None
            worker = Consolidator(
                functions,
                cost_model,
                pair_options if pair_options is not None else options,
                solver,
                stats,
                recorder=recorder,
            )
            with telemetry.span("consolidate.pair", left=a.pid, right=b.pid):
                merged = worker.consolidate(a, b)
        except Exception as exc:  # noqa: BLE001 - degrade, never crash mid-batch
            skipped.append(
                {
                    "left": a.pid,
                    "right": b.pid,
                    "reason": f"{type(exc).__name__}: {exc}",
                }
            )
            if telemetry.enabled:
                registry.counter("consolidation_skipped_pairs_total").inc()
            return _sequential_pair(a, b)
        record_pair(worker.trace, worker.last_duration)
        if worker.last_validation is not None:
            validations.append(worker.last_validation)
        if worker.last_derivation is not None:
            derivations.append(worker.last_derivation)
        return merged

    def absorb_task(result) -> Program:
        """Fold one :func:`_merge_pair_task` result into the batch state."""

        merged, child_stats, child_solver, validation, trace, duration, tree = result
        stats.entail_queries += child_stats.entail_queries
        stats.smt_queries += child_stats.smt_queries
        stats.precheck_skips += child_stats.precheck_skips
        stats.memo_hits += child_stats.memo_hits
        for key, value in child_solver.items():
            extra_solver_stats[key] = extra_solver_stats.get(key, 0) + value
        if validation is not None:
            validations.append(validation)
        if tree is not None:
            derivations.append(tree)
        record_pair(trace, duration)
        return merged

    spec = _table_spec(functions) if executor == "process" else None
    pool = None
    try:
        with telemetry.span(
            "consolidate.batch", n=len(programs), order=order, executor=executor
        ):
            level = list(programs)
            # ``nodes`` mirrors ``level`` one-to-one while keep_tree is on,
            # so every intermediate merged program lands on a MergeNode.
            nodes: list[MergeNode] | None = (
                [MergeNode(p) for p in level] if keep_tree else None
            )
            if order == "fold":
                acc = level[0]
                acc_node = nodes[0] if nodes is not None else None
                for i, nxt in enumerate(level[1:], start=1):
                    acc = merge(acc, nxt)
                    if nodes is not None:
                        acc_node = MergeNode(acc, acc_node, nodes[i])
                    pairs += 1
                    depth += 1
                result = acc
                if nodes is not None:
                    nodes = [acc_node]
            else:
                pool_broken = False
                while len(level) > 1:
                    depth += 1
                    if calib_model is not None:
                        # The cost-driven plan: highest predicted savings
                        # first, zero-savings pairs composed sequentially
                        # without touching the consolidator, SMT budget
                        # spent down the ranking.  Sequential by
                        # construction (budget accounting needs the order).
                        from ..profiling.planner import plan_level

                        plan = plan_level(level, functions, calib_model)
                        merged = []
                        for decision in plan.decisions:
                            a = level[decision.left]
                            b = level[decision.right]
                            if not decision.merge:
                                m = _sequential_pair(a, b)
                                planner_skips += 1
                                planner_decisions.append(
                                    {
                                        "left": a.pid,
                                        "right": b.pid,
                                        "merged": False,
                                        "predicted_savings_seconds": decision.predicted_savings,
                                        "observed_savings_seconds": 0.0,
                                        "mispredicted": False,
                                        "used_smt": False,
                                    }
                                )
                            else:
                                pair_options = options
                                use_smt = options.use_smt
                                if (
                                    use_smt
                                    and smt_budget_seconds is not None
                                    and smt_spent >= smt_budget_seconds
                                ):
                                    pair_options = dc_replace(
                                        options, use_smt=False
                                    )
                                    use_smt = False
                                    planner_budget_exhausted += 1
                                before_derivations = len(derivations)
                                merge_started = time.perf_counter()
                                m = merge(a, b, pair_options)
                                if use_smt:
                                    smt_spent += (
                                        time.perf_counter() - merge_started
                                    )
                                # Realized savings under the same model:
                                # predicted cost of the two inputs minus the
                                # merged program's.  A positive prediction
                                # that realizes nothing is a misprediction —
                                # flagged, counted, rendered by explain.
                                observed = (
                                    calib_model.predict_program_seconds(a, functions)
                                    + calib_model.predict_program_seconds(b, functions)
                                    - calib_model.predict_program_seconds(m, functions)
                                )
                                mispredicted = (
                                    decision.predicted_savings > 0.0
                                    and observed <= 0.0
                                )
                                if mispredicted:
                                    planner_mispredictions += 1
                                planner_decisions.append(
                                    {
                                        "left": a.pid,
                                        "right": b.pid,
                                        "merged": True,
                                        "predicted_savings_seconds": decision.predicted_savings,
                                        "observed_savings_seconds": observed,
                                        "mispredicted": mispredicted,
                                        "used_smt": use_smt,
                                    }
                                )
                                if provenance and len(derivations) > before_derivations:
                                    detail = (
                                        f"predicted={decision.predicted_savings:.3e}s "
                                        f"observed={observed:.3e}s"
                                    )
                                    if not use_smt:
                                        detail += " (smt budget exhausted)"
                                    if mispredicted:
                                        detail += " MISPREDICTED"
                                    derivations[-1].root.heuristics.append(
                                        Heuristic(
                                            "planner", detail, not mispredicted
                                        )
                                    )
                            merged.append(m)
                        pairs += len(plan.decisions)
                        if nodes is not None:
                            merged_nodes = [
                                MergeNode(m, nodes[d.left], nodes[d.right])
                                for d, m in zip(plan.decisions, merged)
                            ]
                            nodes = merged_nodes + [
                                nodes[i] for i in plan.carried
                            ]
                        level = merged + [level[i] for i in plan.carried]
                        continue
                    pairings = [
                        (level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)
                    ]
                    carried = [level[-1]] if len(level) % 2 else []
                    if executor != "serial" and len(pairings) > 1 and not pool_broken:
                        if pool is None:
                            pool_cls = (
                                ThreadPoolExecutor
                                if executor == "thread"
                                else ProcessPoolExecutor
                            )
                            pool = pool_cls(max_workers=max_workers)
                        if executor == "thread":
                            merged = list(pool.map(lambda ab: merge(*ab), pairings))
                        else:
                            payloads = [
                                (a, b, spec, cost_model, options, provenance)
                                for a, b in pairings
                            ]
                            try:
                                # Drain the whole level before absorbing any
                                # result, so a failure absorbs nothing and the
                                # serial redo cannot double-count stats.
                                raw = list(pool.map(_merge_pair_task, payloads))
                            except Exception as exc:  # noqa: BLE001 - dead worker / task crash
                                # A worker died (BrokenProcessPool) or a task
                                # raised; the pool is no longer trustworthy.
                                # Redo this level in-process — merge() still
                                # degrades per pair — and stay serial for the
                                # remaining levels.
                                degradations.append(
                                    f"process pool failed at depth {depth} "
                                    f"({type(exc).__name__}: {exc}); completed serially"
                                )
                                if telemetry.enabled:
                                    registry.counter(
                                        "consolidation_executor_degradations_total"
                                    ).inc()
                                pool.shutdown(wait=False)
                                pool = None
                                pool_broken = True
                                merged = [merge(a, b) for a, b in pairings]
                            else:
                                merged = [absorb_task(r) for r in raw]
                    else:
                        merged = [merge(a, b) for a, b in pairings]
                    pairs += len(pairings)
                    if nodes is not None:
                        merged_nodes = [
                            MergeNode(m, nodes[2 * i], nodes[2 * i + 1])
                            for i, m in enumerate(merged)
                        ]
                        nodes = merged_nodes + ([nodes[-1]] if carried else [])
                    level = merged + carried
                result = level[0]
    finally:
        if pool is not None:
            pool.shutdown()

    # Prefilter synthesis runs on the final merged program, inside its own
    # span and timed separately, so trajectory banding can tell guard
    # synthesis apart from merge time.  It reuses the batch solver (before
    # the stats snapshot below, so its certificate queries are counted).
    prefilter_obj = None
    prefilter_seconds = 0.0
    if prefilter:
        from ..analysis.prefilter import synthesize_prefilter

        recorder = DerivationRecorder() if provenance else None
        prefilter_started = time.perf_counter()
        with telemetry.span("consolidate.prefilter", program=result.pid):
            prefilter_obj = synthesize_prefilter(
                result,
                functions,
                cost_model,
                solver=solver,
                recorder=recorder,
                telemetry=telemetry,
            )
        prefilter_seconds = time.perf_counter() - prefilter_started
        if prefilter_obj.certificate == "degraded":
            degradations.append(
                f"prefilter degraded to true: {prefilter_obj.degraded_reason}"
            )

    solver_stats = solver.stats.snapshot()
    for key, value in extra_solver_stats.items():
        solver_stats[key] = solver_stats.get(key, 0) + value
    simplify_snapshot = stats.snapshot()

    if solver_stats.get("unknowns"):
        # "unknown" is answered as "not entailed": each affected rewrite is
        # conservatively skipped, never mis-applied.  Surface the precision
        # loss so callers can tell a clean batch from a degraded one.
        degradations.append(
            f"{SMT_UNKNOWN_NOTE} {solver_stats['unknowns']} time(s); "
            "the affected rewrites were skipped conservatively"
        )

    if telemetry.enabled:
        registry.counter("consolidation_batches_total").inc()
        registry.counter("consolidation_pairs_total").inc(pairs)
        registry.counter("consolidation_seconds_total").inc(
            time.perf_counter() - started
        )
        for rule, count in rule_counts.items():
            registry.counter("consolidation_rule_applications_total", rule=rule).inc(count)
        registry.merge_counts(solver_stats, prefix="smt_")
        registry.merge_counts(
            {k: v for k, v in simplify_snapshot.items() if k != "memo_hit_rate"},
            prefix="consolidation_",
        )
        registry.gauge("consolidation_memo_hit_rate").set(
            simplify_snapshot.get("memo_hit_rate", 0.0)
        )
        if planner == "calibrated":
            registry.counter("planner_pairs_total").inc(
                sum(1 for d in planner_decisions if d["merged"])
            )
            registry.counter("planner_skips_total").inc(planner_skips)
            registry.counter("planner_mispredictions_total").inc(
                planner_mispredictions
            )
            registry.counter("planner_smt_budget_exhausted_total").inc(
                planner_budget_exhausted
            )
            registry.gauge("planner_predicted_savings_seconds").set(
                sum(d["predicted_savings_seconds"] for d in planner_decisions)
            )
            if calib_model is not None:
                registry.gauge("calibration_staleness_seconds").set(
                    calib_model.staleness_seconds()
                )
                registry.gauge("calibration_r2").set(calib_model.r2)

    if prefilter_obj is not None and prefilter_obj.derivation is not None:
        derivations.append(prefilter_obj.derivation)

    return ConsolidationReport(
        program=result,
        num_inputs=len(programs),
        pair_consolidations=pairs,
        tree_depth=depth,
        duration=time.perf_counter() - started,
        prefilter=prefilter_obj,
        prefilter_seconds=prefilter_seconds,
        solver_stats=solver_stats,
        max_workers=max_workers if executor != "serial" else 1,
        executor=executor,
        simplify_stats=simplify_snapshot,
        validations=validations,
        skipped_pairs=skipped,
        degradations=degradations,
        derivations=derivations,
        merge_tree=nodes[0] if keep_tree else None,
        planner=planner,
        planner_decisions=planner_decisions,
    )
