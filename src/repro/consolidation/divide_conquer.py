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
  Section 8 extension sketch, a (partial) query execution order.

Every pair the policy names goes through the one pair step,
:func:`merge_pair`, which returns the pair's
:class:`~repro.consolidation.algorithm.PairRecord`: the merged program
with all its evidence, or the pair kept unmerged (:func:`_unmerged`) —
*declined* when the two programs share no work
(:func:`~repro.analysis.related.shares_work`: no call signature, no
comparison subject, no loop test in common), so no calculus runs, or
*skipped* when the merge failed (or the notification gate,
:func:`~repro.analysis.static.check_notifications`, refuted it), with a
record that says why.  The incremental engine
(:mod:`repro.consolidation.incremental`) patches the merge tree through
the same step, both rules included.  The driver folds each record into
the batch in plan order, and :class:`ConsolidationReport` is a set of
views over the records.

Every run-time knob comes from ``config`` (an
:class:`repro.config.ExecutionConfig`) and nowhere else.  Each level's
pairs run in plan order, in-process, sharing one warm solver.  The
paper's driver merges a level's pairs in parallel; a process pool did so
here through 7.x and was removed in 8.0.0: the merge tree's critical
path caps any pool well below the core count, and on a measured batch
two workers never reached 1.3× of this loop (CHANGES.md has the
measurements).

Telemetry (``config.telemetry``): per-pair merge time histogram, calculus
rule application counts, declined and skipped pair counters, SMT query
counters and the entailment fast-path counters all land in the metrics
registry; tracing adds
``consolidate.batch`` / ``consolidate.pair`` spans.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..analysis.related import call_features, shares_work
from ..config import ExecutionConfig
from ..lang.ast import Program, seq
from ..lang.cost import CostModel
from ..lang.functions import FunctionTable
from ..lang.visitors import (
    canonicalize,
    pid_order,
    qualify_locals,
    rename_pids,
    requalify_locals,
    ride_notifies,
    stmt_exprs,
)
from ..smt.solver import Solver
from ..telemetry import NULL_TELEMETRY, Telemetry
from .algorithm import ConsolidationOptions, Consolidator, PairRecord, check_batch
from .simplifier import SimplifyStats

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
# SMT solver answered "unknown" during the batch.  Unlike a skipped pair,
# this degradation is deterministic (the same batch always produces it) and
# purely a precision loss, so differential checks can recognise and ignore
# it.
SMT_UNKNOWN_NOTE = "SMT solver returned unknown"

# Fault-injection seam (see repro.testing.faults), consulted by merge_pair
# at site "consolidate.pair" with the pair (a, b) before each pair merge;
# raising simulates a mid-batch failure, which must *degrade* (keep the
# pair unmerged), never escape.  None — the production value — costs one
# attribute read per pair.
FAULT_HOOK: Optional[Callable[[str, tuple[Program, Program]], object]] = None

# What a pairing policy answers for one level of the merge driver: the
# positions that meet, in execution order, and the positions carried to the
# next level unmerged.
Pairing = tuple[Sequence[tuple[int, int]], Sequence[int]]


@dataclass
class MergeNode:
    """One node of the divide-and-conquer merge tree.

    Leaves hold the original (unmerged) programs, their locals qualified
    with their pids; an internal node holds the program produced by
    consolidating its two children — or, on the *ride node* (``ride``
    set), its left child's program with every α-copy riding on its
    representative (:func:`ride`).  ``ride`` maps each rider's pid to its
    pid map — the representative's pids to the rider's — in notify order.
    Only a root is a ride node; the calculus tree below it holds none.
    The tree is treated as immutable: the incremental re-consolidation
    engine (:mod:`repro.consolidation.incremental`) patches it by
    rebuilding only the nodes on the path it touched, sharing every
    untouched subtree.
    """

    program: Program
    left: Optional["MergeNode"] = None
    right: Optional["MergeNode"] = None
    ride: Optional[dict[str, dict[str, str]]] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

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

        def rename(pid: str) -> str:
            return pid_map.get(pid, pid)

        program = self.program
        renamed = Program(
            "&".join(map(rename, program.pid.split("&"))),
            program.params,
            rename_pids(requalify_locals(program.body, pid_map), pid_map),
        )
        ride = self.ride
        if ride is not None:
            ride = {
                rename(rider): {rename(k): rename(v) for k, v in rider_map.items()}
                for rider, rider_map in ride.items()
            }
        return MergeNode(renamed, left, right, ride)

    def leaf_pids(self) -> list[str]:
        """The calculus leaves' pids in left-to-right order, then the riders'."""

        if self.is_leaf:
            return [self.program.pid]
        children = (c for c in (self.left, self.right) if c is not None)
        return [pid for c in children for pid in c.leaf_pids()] + list(self.ride or ())

    def riders(self) -> dict[str, str]:
        """Each rider's pid and its representative's, in notify order."""

        return {rider: next(iter(pid_map)) for rider, pid_map in (self.ride or {}).items()}

    def depth(self) -> int:
        """Height of the tree in pair merges (a single leaf has depth 1; the
        ride node adds nothing)."""

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
            doc["riders"] = self.riders()
        doc["children"] = [c.shape() for c in (self.left, self.right) if c is not None]
        return doc


class PairViews:
    """Read-only views over ``pairs``, the one list of records a report keeps."""

    pairs: list[PairRecord]

    @property
    def validations(self) -> list[Any]:
        """One static-validation certificate per merged pair, computed when read."""

        return [r.validation for r in self.pairs if r.validation is not None]

    @property
    def derivations(self) -> list[Any]:
        """One :class:`repro.provenance.DerivationTree` per merged pair,
        replayed when read."""

        return [r.derivation for r in self.pairs if r.derivation is not None]

    @property
    def declined(self) -> list[tuple[str, str]]:
        """``(left, right)`` of each pair declined for sharing no work."""

        return [(r.left, r.right) for r in self.pairs if r.declined]


@dataclass
class ConsolidationReport(PairViews):
    """What happened while merging a batch of UDFs.

    ``pairs`` holds one :class:`PairRecord` per pair the pairing policy
    named, in plan order — merged, declined because the two programs
    share no work, or kept unmerged after a failure — and is the only
    per-pair state: the names
    below are views over it.  ``rides`` holds one record per α-copy that
    rode on its representative instead (``rules == ("Ride",)``, ``left``
    the representative, ``right`` the rider); it is not a pair merge, and
    :attr:`riders` maps each rider to its representative.

    ``pair_consolidations`` counts the pairs that were not declined.
    ``validations`` holds one static-validation certificate and
    ``derivations`` one :class:`repro.provenance.DerivationTree` per merged
    pair, each computed when read (no merge records either).

    ``skipped_pairs`` lists every pair merge that failed mid-batch and
    was replaced by the sequential composition of its two inputs (one
    ``{"left", "right", "reason"}`` dict per skip).  ``declined`` lists
    the pairs composed sequentially because they share no work: no
    calculus ran and the result is the pair's sequential baseline, correct
    and no costlier than the two programs run apart, so a decline is
    neither a skip nor a degradation.

    ``simplify_stats`` sums the pairs' entailment fast-path counters
    (goals folded through the store, memo hits).

    ``degradations`` is a log of coarser fallbacks than a skipped pair (the
    :data:`SMT_UNKNOWN_NOTE` entry when the solver answered "unknown" and
    rewrites were skipped conservatively).  The driver *never* raises for
    these — the result is still a correct program, just less consolidated
    — so callers must consult :attr:`degraded` when they care.
    """

    program: Program
    num_inputs: int
    pairs: list[PairRecord] = field(default_factory=list)
    rides: list[PairRecord] = field(default_factory=list)
    tree_depth: int = 0
    duration: float = 0.0
    solver_stats: dict[str, int] = field(default_factory=dict)
    simplify_stats: dict[str, Any] = field(default_factory=dict)
    degradations: list[str] = field(default_factory=list)
    merge_tree: Optional[MergeNode] = None

    @property
    def pair_consolidations(self) -> int:
        """Pairs the calculus was asked to merge: every pair but the declined."""

        return sum(not r.declined for r in self.pairs)

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
    def all_certified(self) -> bool:
        """Every merged pair statically certified (vacuously True with none)."""

        return all(v.certified for v in self.validations)

    @property
    def degraded(self) -> bool:
        """True when any pair was kept unmerged or the solver answered unknown."""

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


def _unmerged(a: Program, b: Program, reason: Optional[str] = None) -> PairRecord:
    """The record of a pair kept as its sequential baseline: ``a`` then ``b``.

    The two bodies concatenated, their locals already qualified by their
    leaves — so notifications are the disjoint union and the cost is the
    sum of the originals, never worse than running the pair separately.
    It is the pair step's answer for two programs that share no work, and
    the fallback for a merge that failed mid-batch (``reason`` says how).
    Ω may do better on a pair that shares no work — it also simplifies
    each program as it merges (constant tests, tests ``Ψ = true``
    entails), and Loop 2/3 can fuse loops whose tests differ in shape —
    and a decline gives that up.
    """

    program = Program(f"{a.pid}&{b.pid}", a.params, seq(a.body, b.body))
    return PairRecord(a.pid, b.pid, program, skip_reason=reason, merged=False)


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
    root: MergeNode, riders: dict[str, dict[str, str]]
) -> tuple[MergeNode, list[PairRecord]]:
    """The ride node that puts ``riders`` on the calculus root ``root``,
    and one record per rider.

    ``riders`` maps each rider's pid to its pid map: a representative's
    pids in ``root`` paired with the rider's
    (:func:`~repro.lang.visitors.pid_order`, position by position).  A
    rider is α-equivalent to its representative, so it notifies what the
    representative notifies: wherever ``root``'s program runs
    ``notify rep e``, the ride node's runs ``notify rider e`` for each of
    ``rep``'s riders right after it, in map order — one pass over the
    program for all of them.  No calculus runs and no local of a rider is
    used; each record's one rule is ``Ride``.  With no riders, ``root``
    itself is returned.
    """

    if not riders:
        return root, []
    started = time.perf_counter()
    followers: dict[str, list[str]] = {}
    for pid_map in riders.values():
        for rep, rider in pid_map.items():
            followers.setdefault(rep, []).append(rider)
    program = root.program
    # A rider added later notifies first and is appended to the label.
    label = "&".join([program.pid, *reversed(riders)])
    merged = Program(label, program.params, ride_notifies(program.body, followers))
    node = MergeNode(merged, root, ride=riders)
    seconds = (time.perf_counter() - started) / len(riders)
    records = [
        PairRecord(next(iter(pid_map)), rider, merged, seconds, rules=("Ride",))
        for rider, pid_map in riders.items()
    ]
    return node, records


def merge_pair(
    a: Program,
    b: Program,
    functions: FunctionTable,
    cost_model: CostModel,
    options: ConsolidationOptions,
    solver: Solver,
    *,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> PairRecord:
    """The one pair step: ``a`` and ``b`` consolidated, or kept unmerged.

    Two programs that share no work (:func:`shares_work`) are *declined*:
    kept as their sequential baseline (:func:`_unmerged`) with no
    Consolidator built, ``skip_reason`` ``None`` and ``merged`` False —
    unless Ω would refuse them (different inputs, a shared notification
    id), which is a failure like any other.

    Otherwise a fresh Consolidator per pair keeps each record's rules and
    counters its own; the caller's ``solver`` keeps the entailment cache
    warm across its pairs.  Nothing is recorded: the record keeps what Ω
    was handed, and its derivation is replayed from that when read.

    A failure — a solver crash, a refuted notification gate, an injected
    fault (:data:`FAULT_HOOK`) — keeps the pair as its sequential baseline
    with the reason on ``skip_reason``: the result is still correct, just
    less consolidated, so no caller ever sees a pair raise.
    """

    try:
        if not shares_work(a.body, b.body):
            check_batch((a, b))  # a pair Ω would refuse is skipped, not declined
            if telemetry.enabled:
                telemetry.counter("consolidation_declined_pairs_total").inc()
            return _unmerged(a, b)
        if FAULT_HOOK is not None:
            FAULT_HOOK("consolidate.pair", (a, b))
        worker = Consolidator(functions, cost_model, options, solver)
        with telemetry.span("consolidate.pair", left=a.pid, right=b.pid):
            worker.consolidate(a, b)
    except Exception as exc:  # noqa: BLE001 - degrade, never crash mid-batch
        return _unmerged(a, b, f"{type(exc).__name__}: {exc}")
    assert worker.record is not None  # consolidate() returned
    return worker.record


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
    run-time knobs — ``cost_model`` and ``telemetry`` — documented on
    :class:`repro.config.ExecutionConfig`.

    Before the first level the qualified leaves are grouped by α-class
    (:func:`~repro.lang.visitors.canonicalize`): only the first leaf of each
    class in the driver's order enters the calculus, and every other member
    rides on it (:func:`ride`) once the representatives are merged.

    ``keep_tree=True`` keeps the divide-and-conquer structure itself on
    ``report.merge_tree`` (a :class:`MergeNode` tree), which the incremental
    engine (:mod:`repro.consolidation.incremental`) patches on add/remove
    of a single query instead of re-running the whole batch.

    Raises ``ValueError`` for an empty batch or an unknown ``order``.
    """

    cfg = config or ExecutionConfig()
    cost_model, telemetry = cfg.cost_model, cfg.telemetry

    # Batch-level preconditions are checked up front so misuse still raises
    # eagerly; once they hold, any *mid-batch* failure (solver crash, refuted
    # notifications) degrades to the sequential baseline instead.
    if not programs:
        raise ValueError("need at least one program")
    if order not in ("clustered", "tree", "fold", "priority"):
        raise ValueError(f"unknown order {order!r}")
    check_batch(programs)

    if order == "priority":
        rank = {pid: i for i, pid in enumerate(priority or [])}
        programs = sorted(programs, key=lambda p: rank.get(p.pid, len(rank)))
    elif order == "clustered":
        programs = _cluster_by_features(programs)

    solver = Solver(telemetry=telemetry)
    options = options or ConsolidationOptions()
    records: list[PairRecord] = []
    stats = SimplifyStats()
    degradations: list[str] = []
    registry = telemetry.metrics
    pair_seconds = registry.histogram("consolidation_pair_seconds")
    rule_counts: Counter[str] = Counter()
    started = time.perf_counter()

    def attempt(a: Program, b: Program) -> PairRecord:
        return merge_pair(a, b, functions, cost_model, options, solver, telemetry=telemetry)

    def absorb(record: PairRecord) -> Program:
        # Fold one pair's record into the batch, in plan order.
        records.append(record)
        stats.add(record.stats)
        rule_counts.update(record.rules)
        if record.merged:
            pair_seconds.observe(record.seconds)
        elif record.skip_reason is not None and telemetry.enabled:
            registry.counter("consolidation_skipped_pairs_total").inc()
        return record.program

    policy = _first_two if order in ("fold", "priority") else _adjacent
    depth = 0

    with telemetry.span("consolidate.batch", n=len(programs), order=order):
        # Every program of a level is held by a MergeNode, so each
        # intermediate merged program lands in the tree.  A leaf's
        # locals are qualified here, once; no merge renames them again.
        level, copies = _alpha_classes([MergeNode(qualify_locals(p)) for p in programs])
        while len(level) > 1:
            depth += 1
            pairs, carried = policy([node.program for node in level])
            merged = [attempt(level[i].program, level[j].program) for i, j in pairs]
            level = [
                MergeNode(absorb(r), level[i], level[j]) for (i, j), r in zip(pairs, merged)
            ] + [level[i] for i in carried]
        # The riders notify right after their representative, each class
        # in the driver's order.
        root, rides = ride(
            level[0],
            {
                leaf.program.pid: dict(zip(pid_order(first.program), pid_order(leaf.program)))
                for first, leaf in copies
            },
        )
        rule_counts.update(rule for record in rides for rule in record.rules)
    result = root.program

    solver_stats = solver.stats.snapshot()
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
        registry.counter("consolidation_pairs_total").inc(
            sum(not r.declined for r in records)
        )
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

    return ConsolidationReport(
        program=result,
        num_inputs=len(programs),
        pairs=records,
        rides=rides,
        tree_depth=depth,
        duration=time.perf_counter() - started,
        solver_stats=solver_stats,
        simplify_stats=simplify_snapshot,
        degradations=degradations,
        merge_tree=root if keep_tree else None,
    )
