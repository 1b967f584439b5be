"""Incremental re-consolidation: patching the divide-and-conquer merge tree.

The batch driver (:func:`repro.consolidation.consolidate_all`) merges *n*
UDFs with *n − 1* pair consolidations.  When a long-running service adds
or removes a single query, re-running the whole batch wastes almost all
of that work: every subtree not containing the changed leaf is already a
correct, cost-bounded consolidation of its own leaves.  This module
patches the :class:`~repro.consolidation.divide_conquer.MergeNode` tree
instead:

* **add** — the new query is merged against the current root with one
  pair consolidation, producing a new root whose left subtree is the old
  tree (shared, not copied).  Repeated adds grow a spine; callers bound
  the degeneracy with a depth policy and rebuild when it trips.
* **remove** — the leaf is unlinked (its parent collapses into the
  sibling subtree) and only the internal nodes on the leaf-to-root path
  are re-merged, reusing every off-path intermediate program: ~log₂ *n*
  pair merges instead of *n − 1*.

An α-copy of a live query takes no pair merge at all.  As in the batch
driver, the riders sit in one ride node
(:func:`~repro.consolidation.divide_conquer.ride`) above the calculus
root, and each mutation rides them again on the root it leaves:

* **add** of a copy — the caller names the live twin — puts the copy
  first in the ride map; an ordinary add grafts onto the calculus root;
* **remove** of a rider drops it from the ride map;
* **remove** of a representative that still has riders hands its place to
  the first of them: every node on the representative's calculus path is
  renamed to that rider — pids and local qualifiers, as the plan cache
  relabels a tree — and the class's other riders ride on it.

Every patched pair goes through the batch driver's one pair step
(:func:`~repro.consolidation.divide_conquer.merge_pair`) and so under its
rules: a merge that fails — or whose notifications the gate refutes — is
kept unmerged, with the reason on its record's ``skip_reason``, exactly
as in a batch.  The step's fault-injection seam
(``divide_conquer.FAULT_HOOK``, site ``consolidate.pair``) reaches the
patches too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..config import ExecutionConfig
from ..lang.ast import Program
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.functions import FunctionTable
from ..lang.visitors import canonicalize, pid_order, qualify_locals
from ..smt.solver import Solver
from ..telemetry import NULL_TELEMETRY, Telemetry
from .algorithm import ConsolidationOptions, PairRecord
from .divide_conquer import (
    ConsolidationReport,
    MergeNode,
    PairViews,
    consolidate_all,
    merge_pair,
    ride,
)

__all__ = ["PatchResult", "add_query", "remove_query", "rebuild"]


@dataclass
class PatchResult(PairViews):
    """What one incremental tree mutation did.

    ``pairs`` holds the :class:`~repro.consolidation.algorithm.PairRecord`
    of every pair step the mutation took — the patch's own pairs, or all
    of a ``fallback`` rebuild's — and the other per-pair names are
    views over it: ``pair_merges`` counts the records that were not
    declined (a pair kept unmerged after a failure included; a full
    re-consolidation of *n* queries has *n − 1* records),
    ``validations`` and ``derivations`` are the merged records'
    certificates and derivation trees, each computed when read.
    ``rides`` holds a ``("Ride",)`` record per rider of the ride node the
    mutation built; they are not pair merges.  ``fallback`` is set by a
    caller that rebuilt instead of patching, and says why.  ``tree`` is
    ``None`` only when the last query was removed.
    """

    tree: Optional[MergeNode]
    action: str  # "add" | "remove"
    seconds: float = 0.0
    pairs: list[PairRecord] = field(default_factory=list)
    fallback: Optional[str] = None
    rides: list[PairRecord] = field(default_factory=list)

    @property
    def pair_merges(self) -> int:
        return sum(not r.declined for r in self.pairs)

    @property
    def patched_pids(self) -> list[str]:
        """Pids of the programs the mutation produced: one per patched
        merge, or the new root alone after a fallback rebuild."""

        if self.fallback is None:
            return [r.program.pid for r in self.pairs]
        return [self.tree.program.pid] if self.tree is not None else []


def _merge_step(
    result: PatchResult, functions: FunctionTable, cost_model: CostModel, telemetry: Telemetry
) -> Callable[[MergeNode, MergeNode], MergeNode]:
    """One patch's pair step: the node over two children whose program is
    their :func:`merge_pair` under the default options, its record kept on
    ``result.pairs``.  Each patch gets a fresh solver."""

    options = ConsolidationOptions()
    solver = Solver(telemetry=telemetry)

    def merge(left: MergeNode, right: MergeNode) -> MergeNode:
        pair = merge_pair(
            left.program, right.program, functions, cost_model, options, solver,
            telemetry=telemetry,
        )
        result.pairs.append(pair)
        return MergeNode(pair.program, left, right)

    return merge


def _split(tree: MergeNode) -> tuple[MergeNode, dict[str, dict[str, str]]]:
    """The calculus root of ``tree`` and the ride map above it."""

    if tree.ride is None:
        return tree, {}
    assert tree.left is not None  # a ride node holds what it rides on
    return tree.left, tree.ride


_Step = Callable[[MergeNode, MergeNode, MergeNode], MergeNode]


def _replace_up(path: list[MergeNode], old: MergeNode, new: MergeNode, step: _Step) -> MergeNode:
    """The root after ``new`` takes ``old``'s place below the last node of
    ``path`` (root first): each node of ``path``, bottom-up, becomes
    ``step(node, left, right)`` over its untouched child and the patched one."""

    for ancestor in reversed(path):
        if ancestor.left is old:
            left, right = new, ancestor.right
        else:
            left, right = ancestor.left, new
        assert left is not None and right is not None  # internal nodes have both
        new, old = step(ancestor, left, right), ancestor
    return new


def add_query(
    tree: Optional[MergeNode],
    program: Program,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    telemetry: Telemetry = NULL_TELEMETRY,
    twin: Optional[str] = None,
) -> PatchResult:
    """Graft one new query onto the merge tree with a single pair merge.

    The calculus root becomes the left child of a fresh one — every
    existing intermediate program is reused untouched — and the riders
    ride on it again; the new leaf's locals are qualified with its pid, as
    ``consolidate_all`` does.  ``twin`` names a live query ``program`` is
    an α-copy of (the registry knows it from fingerprints): the copy then
    rides on that query's representative, with no pair merge.  Raises
    :class:`ValueError` when ``program`` is not an α-copy of ``twin``.
    """

    started = time.perf_counter()
    result = PatchResult(tree=tree, action="add")
    leaf = MergeNode(qualify_locals(program))
    if tree is None:
        result.tree = leaf
    else:
        root, riders = _split(tree)
        if twin is not None:
            path = _path_to_leaf(root, tree.riders().get(twin, twin))
            if path is None or canonicalize(path[-1].program) != canonicalize(leaf.program):
                raise ValueError(f"query {program.pid!r} is not an α-copy of {twin!r}")
            pid_map = dict(zip(pid_order(path[-1].program), pid_order(leaf.program)))
            riders = {program.pid: pid_map, **riders}
        else:
            merge = _merge_step(result, functions, cost_model, telemetry)
            root = merge(root, leaf)
        result.tree, result.rides = ride(root, riders)
    result.seconds = time.perf_counter() - started
    return result


def remove_query(
    tree: MergeNode,
    pid: str,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> PatchResult:
    """Unlink the leaf for ``pid`` and re-merge only its root path.

    The leaf's parent collapses into the sibling subtree; each ancestor
    above it is re-consolidated from its (one new, one untouched)
    children, bottom-up, and the riders ride on the new calculus root.  A
    rider and a representative with riders leave with no pair merge (see
    the module docstring).  Raises :class:`ValueError` when ``pid`` is not
    a leaf of ``tree``.
    """

    started = time.perf_counter()
    result = PatchResult(tree=tree, action="remove")
    root: Optional[MergeNode]
    root, riders = _split(tree)
    path = _path_to_leaf(root, pid)
    heir = next((r for r, rep in tree.riders().items() if rep == pid), None)
    if pid in riders:
        riders = {r: pid_map for r, pid_map in riders.items() if r != pid}
    elif path is None:
        raise ValueError(f"query {pid!r} is not a leaf of the merge tree")
    elif heir is not None:
        # The first rider takes the representative's place: its path is
        # renamed, and the class's other riders ride on the heir.
        pid_map = riders[heir]
        leaf = path[-1]
        root = _replace_up(
            path[:-1],
            leaf,
            leaf.relabel(pid_map),
            lambda ancestor, left, right: ancestor.relabel(pid_map, left, right),
        )
        riders = {
            r: {pid_map.get(k, k): v for k, v in rider_map.items()}
            for r, rider_map in riders.items()
            if r != heir
        }
    elif len(path) == 1:
        # The tree was a single leaf; removing it empties the registry.
        root = None
    else:
        merge = _merge_step(result, functions, cost_model, telemetry)
        # ``path`` runs root → … → parent → leaf.  The sibling subtree takes
        # the parent's place; every ancestor above is then re-merged
        # bottom-up from its untouched child and the patched subtree.
        parent = path[-2]
        sibling = parent.right if parent.left is path[-1] else parent.left
        assert sibling is not None
        root = _replace_up(path[:-2], parent, sibling, lambda _, left, right: merge(left, right))
    if root is not None:
        result.tree, result.rides = ride(root, riders)
    else:
        result.tree = None
    result.seconds = time.perf_counter() - started
    return result


def rebuild(
    programs: list[Program],
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    config: ExecutionConfig | None = None,
    telemetry: Telemetry | None = None,
) -> tuple[MergeNode, ConsolidationReport]:
    """Full re-consolidation, keeping the tree for future patches."""

    cfg = (config or ExecutionConfig()).evolve(cost_model=cost_model)
    if telemetry is not None:
        cfg = cfg.evolve(telemetry=telemetry)
    report = consolidate_all(programs, functions, keep_tree=True, config=cfg)
    assert report.merge_tree is not None  # keep_tree=True
    return report.merge_tree, report


def _path_to_leaf(tree: MergeNode, pid: str) -> Optional[list[MergeNode]]:
    """Root-to-leaf node path for the leaf whose program is ``pid``."""

    if tree.is_leaf:
        return [tree] if tree.program.pid == pid else None
    for child in (tree.left, tree.right):
        if child is None:
            continue
        sub = _path_to_leaf(child, pid)
        if sub is not None:
            return [tree] + sub
    return None
