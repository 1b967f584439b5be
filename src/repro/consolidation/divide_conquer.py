"""Consolidating *n* UDFs: the divide-and-conquer driver (Section 6.1).

The paper amortises consolidation cost over many queries by merging UDFs
pairwise, level by level, until one program is left: 50 leaf UDFs → 25
pairs → 13 → … → 1.  Each internal node consolidates two
already-consolidated programs, so "the last iteration typically
consolidates a pair of programs each containing a few thousand lines of
code".

:func:`consolidate_all` is that one loop.  What varies is the *pairing
policy* — which programs of a level meet, and which ride up unmerged:

* ``order="clustered"`` (default) / ``"tree"`` — neighbours meet
  (:func:`_adjacent`): the paper's balanced tree, over the programs as
  given (``tree``) or first sorted by call-feature signature so
  same-family queries merge while small (``clustered``);
* ``order="fold"`` / ``"priority"`` — the degenerate policy "the first two
  meet, the rest wait" (:func:`_first_two`): a left fold, which exposes the
  same optimisations but consolidates the growing accumulator n−1 times;
  ``priority`` puts the queries named in ``priority`` first — the paper's
  Section 8 extension sketch, a (partial) query execution order;
* ``config.planner="calibrated"`` — the cost-driven plan of
  :class:`repro.profiling.planner.CalibratedPairing`, for the tree orders.

Every pair the policy names goes through the one pair step,
:func:`merge_pair`, which either returns the pair's
:class:`~repro.consolidation.algorithm.PairRecord` — the merged program
with all its evidence — or raises.  Its three callers differ only in what
a failure *means*: the batch driver keeps the pair unmerged
(:func:`_unmerged`, a record that says why); the process-pool task lets it
propagate, so the driver redoes the level serially; the incremental engine
(:mod:`repro.consolidation.incremental`) turns it into a ``PatchError``.
Whichever executor produced a record, the driver thread folds it into the
batch, and :class:`ConsolidationReport` is a set of views over the records.

Every run-time knob comes from ``config`` (an
:class:`repro.config.ExecutionConfig`) and nowhere else.
``config.executor`` selects how a level's pair merges run:

* ``"serial"`` (default) — inline, one after the other;
* ``"process"`` — a process pool of ``min(os.cpu_count(), pairs in the
  widest pooled level)`` workers, the paper's parallel driver on real
  cores: programs are picklable ASTs, and consolidation never calls the
  library *implementations* (it is a static transformation), so each
  worker gets a callable-free copy of the function table.  Child-process
  counters are folded back into the parent's report; per-query SMT latency
  histograms are process-local and therefore only recorded for serial runs.

:class:`ConsolidationReport.executor` records which executor was
configured, ``max_workers`` how many processes the pool started.

Telemetry (``config.telemetry``): per-pair merge time histogram, calculus
rule application counts, SMT query counters and the entailment fast-path
counters all land in the metrics registry; tracing adds
``consolidate.batch`` / ``consolidate.pair`` spans.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, NoReturn, Optional, Sequence, cast

from ..analysis.related import call_features
from ..config import ExecutionConfig
from ..lang.ast import Program, seq
from ..lang.cost import CostModel
from ..lang.functions import FunctionTable, LibraryFunction
from ..lang.visitors import (
    canonicalize,
    pid_order,
    qualify_locals,
    rename_pids,
    requalify_locals,
    ride_notifies,
    stmt_exprs,
)
from ..profiling.model import CalibratedCostModel
from ..profiling.planner import CalibratedPairing, Pairing
from ..provenance.recorder import NULL_RECORDER, DerivationRecorder, NullRecorder
from ..smt.solver import Solver
from ..telemetry import NULL_TELEMETRY, Telemetry
from .algorithm import ConsolidationOptions, Consolidator, PairRecord, check_batch
from .simplifier import SimplifyStats

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "ConsolidationReport",
    "MergeNode",
    "PairRecord",
    "PairViews",
    "consolidate_all",
    "merge_pair",
    "ride",
    "FAULT_HOOK",
    "SMT_UNKNOWN_NOTE",
]

# Prefix of the ConsolidationReport.degradations entry recording that the
# SMT solver answered "unknown" during the batch.  Unlike a skipped pair or
# a broken pool, this degradation is deterministic (the same batch always
# produces it) and purely a precision loss, so differential checks that
# compare executors can recognise and ignore it.
SMT_UNKNOWN_NOTE = "SMT solver returned unknown"

# Fault-injection seam (see repro.testing.faults), consulted by merge_pair.
# Sites:
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
FAULT_HOOK: Optional[Callable[[str, tuple[Program, Program]], object]] = None


@dataclass
class MergeNode:
    """One node of the divide-and-conquer merge tree.

    Leaves hold the original (unmerged) programs, their locals qualified
    with their pids; an internal node holds the program produced by
    consolidating its two children — or, on a *ride node* (``ride`` set),
    the left child's program with the right leaf riding on its
    representative: ``ride`` maps the representative's pids to the
    rider's, and every ``notify`` of one is followed by the same
    ``notify`` of the other (:func:`ride`).  Ride nodes form a chain
    above the calculus root, whose subtree holds no ride node.  The tree
    is treated as immutable: the incremental re-consolidation engine
    (:mod:`repro.consolidation.incremental`) patches it by rebuilding only
    the nodes on the path it touched, sharing every untouched subtree.
    """

    program: Program
    left: Optional["MergeNode"] = None
    right: Optional["MergeNode"] = None
    ride: Optional[dict[str, str]] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def representative(self) -> Optional[str]:
        """On a ride node, the pid of the program the right leaf rides on."""

        return next(iter(self.ride)) if self.ride else None

    def relabel(
        self,
        pid_map: dict[str, str],
        left: Optional["MergeNode"] = None,
        right: Optional["MergeNode"] = None,
    ) -> "MergeNode":
        """This node over ``left`` and ``right``, each pid that is a key of
        ``pid_map`` renamed to its value: ``notify`` targets, local
        qualifiers, the label and the ride map.  A pure rebuild — α-renaming
        a consolidated program needs no calculus."""

        program = self.program
        renamed = Program(
            "&".join(pid_map.get(p, p) for p in program.pid.split("&")),
            program.params,
            rename_pids(requalify_locals(program.body, pid_map), pid_map),
        )
        ride = self.ride
        if ride is not None:
            ride = {pid_map.get(k, k): pid_map.get(v, v) for k, v in ride.items()}
        return MergeNode(renamed, left, right, ride)

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

    def riders(self) -> dict[str, str]:
        """Each rider's pid and its representative's, riders nearest the
        root first.  Riders ride in a chain above the calculus root."""

        out: dict[str, str] = {}
        node = self
        while node.representative is not None:
            assert node.left is not None and node.right is not None
            out[node.right.program.pid] = node.representative
            node = node.left
        return out

    def depth(self) -> int:
        """Height of the tree in pair merges (a single leaf has depth 1; the
        ride chain adds nothing)."""

        if self.is_leaf:
            return 1
        if self.ride is not None:
            assert self.left is not None
            return self.left.depth()
        return 1 + max(c.depth() for c in (self.left, self.right) if c is not None)

    def shape(self) -> object:
        """A JSON-friendly rendering of the tree's structure (pids only)."""

        if self.is_leaf:
            return self.program.pid
        doc: dict[str, object] = {"pid": self.program.pid}
        if self.ride is not None:
            doc["rides_on"] = self.representative
        doc["children"] = [c.shape() for c in (self.left, self.right) if c is not None]
        return doc


class PairViews:
    """Read-only views over ``pairs``, the one list of records a report keeps."""

    pairs: list[PairRecord]

    @property
    def validations(self) -> list[Any]:
        """The static-validation certificates (``options.static_validate``)."""

        return [r.validation for r in self.pairs if r.validation is not None]

    @property
    def derivations(self) -> list[Any]:
        """One :class:`repro.provenance.DerivationTree` per recorded merge."""

        return [r.derivation for r in self.pairs if r.derivation is not None]


@dataclass
class ConsolidationReport(PairViews):
    """What happened while merging a batch of UDFs.

    ``pairs`` holds one :class:`PairRecord` per pair the pairing policy
    named, in plan order — merged, kept unmerged after a failure, or
    declined by the planner — and is the only per-pair state: the names
    below are views over it.  ``rides`` holds one record per α-copy that
    rode on its representative instead (``rules == ("Ride",)``, ``left``
    the representative, ``right`` the rider); it is not a pair merge, and
    :attr:`riders` maps each rider to its representative.

    ``pair_consolidations`` is its length.  ``validations`` holds one
    static-validation certificate per pair when ``options.static_validate``
    is on; ``derivations`` one :class:`repro.provenance.DerivationTree` per
    successfully merged pair under ``config.provenance``, and is empty
    otherwise.

    ``skipped_pairs`` lists every pair merge that failed mid-batch and
    was replaced by the sequential composition of its two inputs (one
    ``{"left", "right", "reason"}`` dict per skip).  ``planner_decisions``
    has one dict per calibrated-planner decision: ``{"left", "right",
    "merged", "predicted_savings_seconds", "observed_savings_seconds",
    "mispredicted", "used_smt"}``.  A *skip* decision (``"merged": False``)
    means the planner predicted zero cross-simplification value and
    composed the pair sequentially without invoking the consolidator at
    all — semantically the exact result a merge of unrelated programs
    produces, minus its cost — or, with a ``"skip_reason"``, that the
    merge it asked for failed.

    ``executor`` records how the driver was configured and
    ``max_workers`` the size of the process pool it started (1 when no
    level pooled), so scalability experiments can attribute a duration to
    the pool it used.
    ``simplify_stats`` sums the pairs' entailment fast-path counters
    (abstract-env pre-check skips, memo hits).  ``planner`` records the
    pair-ordering strategy that ran (``"related"`` — the default heuristic
    adjacency — or ``"calibrated"``).

    ``degradations`` is a log of coarser fallbacks than a skipped pair (a
    broken process pool redone serially, or the :data:`SMT_UNKNOWN_NOTE`
    entry when the solver answered "unknown" and rewrites were skipped
    conservatively).  The driver *never* raises for these — the result is
    still a correct program, just less consolidated — so callers must
    consult :attr:`degraded` when they care.
    """

    program: Program
    num_inputs: int
    pairs: list[PairRecord] = field(default_factory=list)
    rides: list[PairRecord] = field(default_factory=list)
    tree_depth: int = 0
    duration: float = 0.0
    solver_stats: dict[str, int] = field(default_factory=dict)
    max_workers: int = 1
    executor: str = "serial"
    simplify_stats: dict[str, Any] = field(default_factory=dict)
    degradations: list[str] = field(default_factory=list)
    merge_tree: Optional[MergeNode] = None
    planner: str = "related"

    @property
    def pair_consolidations(self) -> int:
        return len(self.pairs)

    @property
    def riders(self) -> dict[str, str]:
        """Each rider's pid and the pid of the representative it rides on."""

        return {r.right: r.left for r in self.rides}

    @property
    def skipped_pairs(self) -> list[dict[str, str]]:
        return [
            {"left": r.left, "right": r.right, "reason": r.skip_reason}
            for r in self.pairs
            if r.skip_reason is not None
        ]

    @property
    def planner_decisions(self) -> list[dict[str, Any]]:
        return [r.planner for r in self.pairs if r.planner is not None]

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


def _stub_fn(*_args: object) -> NoReturn:  # pragma: no cover - consolidation never calls it
    raise RuntimeError("library implementations are not shipped to consolidation workers")


def _table_spec(functions: FunctionTable) -> tuple[Any, ...]:
    return tuple((f.name, f.cost, f.result_sort, f.arg_sorts) for f in functions)


def _table_from_spec(spec: tuple[Any, ...]) -> FunctionTable:
    return FunctionTable(
        LibraryFunction(name, _stub_fn, cost=cost, result_sort=sort, arg_sorts=args)
        for name, cost, sort, args in spec
    )


def _unmerged(a: Program, b: Program, reason: Optional[str] = None) -> PairRecord:
    """The record of a pair kept as its sequential baseline: ``a`` then ``b``.

    This is exactly what the paper's Ω produces when no rule applies — the
    two bodies concatenated, their locals already qualified by their leaves
    — so notifications are the disjoint union and the cost is the sum of the
    originals, never worse than running the pair separately.  It is what
    the planner asks for when it predicts nothing to share, and the
    fallback for a merge that failed mid-batch (``reason`` says how).
    """

    program = Program(f"{a.pid}&{b.pid}", a.params, seq(a.body, b.body))
    return PairRecord(a.pid, b.pid, program, skip_reason=reason)


def _adjacent(level: Sequence[Program]) -> Pairing:
    """``tree`` / ``clustered``: neighbours meet; an odd last program is carried."""

    n = len(level)
    return [(i, i + 1) for i in range(0, n - 1, 2)], range(n - n % 2, n)


def _first_two(level: Sequence[Program]) -> Pairing:
    """``fold`` / ``priority``: the accumulator meets the next program.

    Since Ω′ consumes the first program's statements — including its
    ``notify`` — before the second's, a query placed earlier in the fold
    broadcasts earlier in the merged program, bounding its latency.
    """

    return [(0, 1)], range(2, len(level))


def _alpha_classes(
    leaves: list[MergeNode],
) -> tuple[list[MergeNode], list[tuple[MergeNode, MergeNode]]]:
    """Split ``leaves`` into representatives (the first leaf of each
    α-class, in order) and ``(representative, rider)`` pairs for the rest."""

    firsts: dict[Program, MergeNode] = {}
    representatives: list[MergeNode] = []
    riders: list[tuple[MergeNode, MergeNode]] = []
    for leaf in leaves:
        first = firsts.setdefault(canonicalize(leaf.program), leaf)
        if first is leaf:
            representatives.append(leaf)
        else:
            riders.append((first, leaf))
    return representatives, riders


def ride(
    tree: MergeNode, rider: MergeNode, pid_map: dict[str, str]
) -> tuple[MergeNode, PairRecord]:
    """The ride node that puts leaf ``rider`` on ``tree``, and its record.

    ``pid_map`` pairs the pids of a representative in ``tree`` with the
    rider's (:func:`~repro.lang.visitors.pid_order`, position by
    position).  The rider is α-equivalent to its representative, so it
    notifies what the representative notifies: wherever ``tree``'s program
    runs ``notify rep e``, the ride node's runs ``notify rider e`` right
    after it.  No calculus runs and no local of the rider is used; the
    record's one rule is ``Ride``.
    """

    started = time.perf_counter()
    program = tree.program
    body = ride_notifies(program.body, pid_map)
    merged = Program(f"{program.pid}&{rider.program.pid}", program.params, body)
    node = MergeNode(merged, tree, rider, ride=pid_map)
    seconds = time.perf_counter() - started
    rep = next(iter(pid_map))
    return node, PairRecord(rep, rider.program.pid, merged, seconds, rules=("Ride",))


def merge_pair(
    a: Program,
    b: Program,
    functions: FunctionTable,
    cost_model: CostModel,
    options: ConsolidationOptions,
    solver: Solver,
    *,
    provenance: bool = False,
    telemetry: Telemetry = NULL_TELEMETRY,
    site: str = "consolidate.pair",
    **span_attrs: object,
) -> PairRecord:
    """The one pair-merge step: consolidate ``a`` and ``b`` or raise.

    A fresh Consolidator per pair keeps each record's rules and counters
    its own; the caller's ``solver`` keeps the entailment cache warm across
    its pairs.  The recorder is per-pair too: its node stack is not
    re-entrant.

    Anything may escape — a solver crash, a refuted static validation, an
    injected fault (:data:`FAULT_HOOK` at ``site``).  What that means is
    the caller's business; see the module docstring.
    """

    if FAULT_HOOK is not None:
        FAULT_HOOK(site, (a, b))
    recorder: DerivationRecorder | NullRecorder = (
        DerivationRecorder() if provenance else NULL_RECORDER
    )
    worker = Consolidator(functions, cost_model, options, solver, recorder)
    with telemetry.span("consolidate.pair", left=a.pid, right=b.pid, **span_attrs):
        worker.consolidate(a, b)
    assert worker.record is not None  # consolidate() returned
    return worker.record


def _merge_pair_task(
    payload: tuple[Program, Program, tuple[Any, ...], CostModel, ConsolidationOptions, bool],
) -> tuple[PairRecord, dict[str, int]]:
    """Top-level (hence picklable) pair-merge job for the process pool:
    the pair's record and what its private solver counted.

    A failure propagates: the driver treats the pool as broken and redoes
    the level in-process.  Derivation events are plain string/number
    dataclasses, so the tree pickles back to the parent unchanged.
    """

    a, b, spec, cost_model, options, provenance = payload
    solver = Solver()
    record = merge_pair(
        a,
        b,
        _table_from_spec(spec),
        cost_model,
        options,
        solver,
        provenance=provenance,
        site="consolidate.worker",
    )
    return record, solver.stats.snapshot()


def consolidate_all(
    programs: list[Program],
    functions: FunctionTable,
    *,
    options: ConsolidationOptions | None = None,
    order: str = "clustered",
    priority: Sequence[str] | None = None,
    keep_tree: bool = False,
    config: ExecutionConfig | None = None,
) -> ConsolidationReport:
    """Merge ``programs`` into one program broadcasting every result.

    ``order`` picks the pairing policy (see the module docstring);
    ``priority`` names the queries ``order='priority'`` folds first.
    ``config`` (default ``ExecutionConfig()``) is the only source of the
    run-time knobs — ``cost_model``, ``executor``, ``telemetry``,
    ``provenance``, ``planner``, ``calibration`` — documented on
    :class:`repro.config.ExecutionConfig`.

    Before the first level the qualified leaves are grouped by α-class
    (:func:`~repro.lang.visitors.canonicalize`): only the first leaf of each
    class in the driver's order enters the calculus, and every other member
    rides on it (:func:`ride`) once the representatives are merged.

    ``keep_tree=True`` keeps the divide-and-conquer structure itself on
    ``report.merge_tree`` (a :class:`MergeNode` tree), which the incremental
    engine (:mod:`repro.consolidation.incremental`) patches on add/remove
    of a single query instead of re-running the whole batch.

    Raises ``ValueError`` for an empty batch, an unknown ``order``, or the
    calibrated planner (which plans *tree* levels) with a fold order.
    """

    cfg = config or ExecutionConfig()
    cost_model, executor, telemetry = cfg.cost_model, cfg.executor, cfg.telemetry

    # Batch-level preconditions are checked up front so misuse still raises
    # eagerly; once they hold, any *mid-batch* failure (solver crash, refuted
    # validation, dead worker) degrades to the sequential baseline instead.
    if not programs:
        raise ValueError("need at least one program")
    if order not in ("clustered", "tree", "fold", "priority"):
        raise ValueError(f"unknown order {order!r}")
    fold = order in ("fold", "priority")
    if fold and cfg.planner == "calibrated":
        raise ValueError(
            f"planner='calibrated' plans tree levels and cannot drive order={order!r}; "
            "use order='tree' or 'clustered', or planner='related'"
        )
    check_batch(programs)

    if order == "priority":
        rank = {pid: i for i, pid in enumerate(priority or [])}
        programs = sorted(programs, key=lambda p: rank.get(p.pid, len(rank)))
    elif order == "clustered":
        programs = _cluster_by_features(programs)

    solver = Solver(telemetry=telemetry)
    options = options or ConsolidationOptions()
    records: list[PairRecord] = []
    rides: list[PairRecord] = []
    stats = SimplifyStats()
    degradations: list[str] = []
    pooled_solver_stats: Counter[str] = Counter()
    registry = telemetry.metrics
    pair_seconds = registry.histogram("consolidation_pair_seconds")
    rule_counts: Counter[str] = Counter()
    started = time.perf_counter()

    def attempt(a: Program, b: Program) -> PairRecord:
        # Here a failure keeps the pair unmerged (the sequential baseline
        # is always correct) and says why; the batch never dies for one pair.
        try:
            return merge_pair(
                a,
                b,
                functions,
                cost_model,
                options,
                solver,
                provenance=cfg.provenance,
                telemetry=telemetry,
            )
        except Exception as exc:  # noqa: BLE001 - degrade, never crash mid-batch
            return _unmerged(a, b, f"{type(exc).__name__}: {exc}")

    def absorb(record: PairRecord) -> Program:
        # Fold one pair's record into the batch.  Every executor's records
        # come through here, on the driver thread, in plan order.
        records.append(record)
        stats.add(record.stats)
        rule_counts.update(record.rules)
        if record.merged:
            pair_seconds.observe(record.seconds)
        elif record.skip_reason is not None and telemetry.enabled:
            registry.counter("consolidation_skipped_pairs_total").inc()
        return record.program

    calibrated = None
    if cfg.planner == "calibrated":
        calibrated = CalibratedPairing(
            functions,
            cast("CalibratedCostModel | None", cfg.calibration)
            or CalibratedCostModel.uniform(cost_model),
            options,
            merge_step=attempt,
            compose=_unmerged,
        )
    policy = calibrated or (_first_two if fold else _adjacent)
    in_order = calibrated.merge if calibrated else attempt
    # The planner decides each pair in the driver (a skip never reaches a
    # worker), so calibrated levels never pool.
    pooled = calibrated is None and executor == "process"
    pool: ProcessPoolExecutor | None = None
    workers = 1
    spec = _table_spec(functions) if pooled else None
    depth = 0

    def run(jobs: list[tuple[Program, Program]]) -> list[PairRecord]:
        nonlocal pool, pooled, workers
        if not (pooled and len(jobs) > 1):
            return [in_order(a, b) for a, b in jobs]
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor  # serial runs never load it
            # Levels only narrow, so the first pooled level sizes the pool.
            workers = min(os.cpu_count() or 1, len(jobs))
            pool = ProcessPoolExecutor(max_workers=workers)
        payloads = [(a, b, spec, cost_model, options, cfg.provenance) for a, b in jobs]
        try:
            # Drain the whole level before counting any of it, so a
            # failure counts nothing and the serial redo cannot
            # double-count stats.
            raw = list(pool.map(_merge_pair_task, payloads))
        except Exception as exc:  # noqa: BLE001 - dead worker / task crash
            # A worker died (BrokenProcessPool) or a task raised; the pool
            # is no longer trustworthy.  Redo this level in-process —
            # attempt() still degrades per pair — and stay serial for the
            # remaining levels.
            degradations.append(
                f"process pool failed at depth {depth} "
                f"({type(exc).__name__}: {exc}); completed serially"
            )
            if telemetry.enabled:
                registry.counter("consolidation_executor_degradations_total").inc()
            pool.shutdown(wait=False)
            pool, pooled = None, False
            return [attempt(a, b) for a, b in jobs]
        for _, child_solver in raw:
            pooled_solver_stats.update(child_solver)
        return [record for record, _ in raw]

    try:
        with telemetry.span("consolidate.batch", n=len(programs), order=order, executor=executor):
            # Every program of a level is held by a MergeNode, so each
            # intermediate merged program lands in the tree.  A leaf's
            # locals are qualified here, once; no merge renames them again.
            level, riders = _alpha_classes([MergeNode(qualify_locals(p)) for p in programs])
            while len(level) > 1:
                depth += 1
                pairs, carried = policy([node.program for node in level])
                merged = run([(level[i].program, level[j].program) for i, j in pairs])
                level = [
                    MergeNode(absorb(r), level[i], level[j]) for (i, j), r in zip(pairs, merged)
                ] + [level[i] for i in carried]
            # Riders go on last to first, each right after its
            # representative, so a class notifies in the driver's order.
            root = level[0]
            for first, leaf in reversed(riders):
                pid_map = dict(zip(pid_order(first.program), pid_order(leaf.program)))
                root, record = ride(root, leaf, pid_map)
                rides.append(record)
                rule_counts["Ride"] += 1
    finally:
        if pool is not None:
            pool.shutdown()
    result = root.program

    totals = Counter(solver.stats.snapshot())
    totals.update(pooled_solver_stats)
    solver_stats = dict(totals)
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
        registry.counter("consolidation_pairs_total").inc(len(records))
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
        if calibrated is not None:
            calibrated.export(registry, [r.planner for r in records if r.planner is not None])

    return ConsolidationReport(
        program=result,
        num_inputs=len(programs),
        pairs=records,
        rides=rides[::-1],
        tree_depth=depth,
        duration=time.perf_counter() - started,
        solver_stats=solver_stats,
        max_workers=workers,
        executor=executor,
        simplify_stats=simplify_snapshot,
        degradations=degradations,
        merge_tree=root if keep_tree else None,
        planner=cfg.planner,
    )
