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

Each patched pair merge can run the static translation validator
(:mod:`repro.analysis.static.validate`); a refuted certificate — or any
exception escaping the merge — raises :class:`PatchError`, and the caller
is expected to fall back to a full re-consolidation, recording the
fallback.  Unlike the batch driver, a patch never silently degrades to
the sequential composition: the service wants either a certified patch or
an honest rebuild.

Patched pairs go through the batch driver's one pair step
(:func:`~repro.consolidation.divide_conquer.merge_pair`) — and so through
its fault-injection seam (``divide_conquer.FAULT_HOOK``, site
``consolidate.pair``), which lets the existing fault battery exercise the
fallback ladder.  Only the meaning of a failure is this module's own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..config import ExecutionConfig
from ..lang.ast import Program
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.functions import FunctionTable
from ..lang.visitors import qualify_locals
from ..smt.solver import Solver
from ..telemetry import NULL_TELEMETRY, Telemetry
from .algorithm import ConsolidationOptions, PairRecord
from .divide_conquer import (
    ConsolidationReport,
    MergeNode,
    PairViews,
    consolidate_all,
    merge_pair,
)

__all__ = ["PatchError", "PatchResult", "add_query", "remove_query", "rebuild"]


class PatchError(Exception):
    """A tree patch could not be completed (or certified) safely.

    Raised when a patched pair merge throws, or when the static validator
    refutes its certificate.  Callers fall back to a full
    re-consolidation; the message becomes the recorded fallback reason.
    """


@dataclass
class PatchResult(PairViews):
    """What one incremental tree mutation did.

    ``pairs`` holds the :class:`~repro.consolidation.algorithm.PairRecord`
    of every pair consolidation the mutation ran — the patch's own merges,
    or all of a ``fallback`` rebuild's — and the other per-pair names are
    views over it: ``pair_merges`` is its length (the quantity a full
    re-consolidation spends *n − 1* on, counted whether or not provenance
    was recorded), ``validations`` and ``derivations`` are the records'
    certificates and provenance trees.  ``tree`` is ``None`` only when the
    last query was removed.
    """

    tree: Optional[MergeNode]
    action: str  # "add" | "remove" | "rebuild"
    seconds: float = 0.0
    pairs: list[PairRecord] = field(default_factory=list)
    fallback: Optional[str] = None

    @property
    def program(self) -> Optional[Program]:
        return self.tree.program if self.tree is not None else None

    @property
    def pair_merges(self) -> int:
        return len(self.pairs)

    @property
    def patched_pids(self) -> list[str]:
        """Pids of the programs the mutation produced: one per patched
        merge, or the new root alone after a fallback rebuild."""

        if self.fallback is None:
            return [r.program.pid for r in self.pairs]
        return [self.tree.program.pid] if self.tree is not None else []


def _patch_step(
    result: PatchResult,
    functions: FunctionTable,
    cost_model: CostModel,
    options: ConsolidationOptions | None,
    static_validate: bool,
    record: bool,
    telemetry: Telemetry,
) -> Callable[[Program, Program], Program]:
    """One patch's pair step: a certified merge folded into ``result``, or
    a :class:`PatchError` — for an exception and for an uncertified
    validation alike.  Each patch gets a fresh solver.
    """

    options = options or ConsolidationOptions()
    if static_validate:
        options = replace(options, static_validate=True)
    solver = Solver(telemetry=telemetry)

    def merge(a: Program, b: Program) -> Program:
        try:
            pair = merge_pair(
                a,
                b,
                functions,
                cost_model,
                options,
                solver,
                provenance=record,
                telemetry=telemetry,
                patch=True,
            )
        except Exception as exc:  # noqa: BLE001 - surfaced as a typed patch failure
            raise PatchError(
                f"pair merge {a.pid} ⊕ {b.pid} failed: {type(exc).__name__}: {exc}"
            ) from exc
        result.pairs.append(pair)
        if pair.validation is not None and not pair.validation.certified:
            raise PatchError(
                f"pair merge {a.pid} ⊕ {b.pid} refuted by the static validator"
            )
        return pair.program

    return merge


def add_query(
    tree: Optional[MergeNode],
    program: Program,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    options: ConsolidationOptions | None = None,
    *,
    static_validate: bool = True,
    record: bool = True,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> PatchResult:
    """Graft one new query onto the merge tree with a single pair merge.

    The old tree becomes the left child of a fresh root — every existing
    intermediate program is reused untouched; the new leaf's locals are
    qualified with its pid, as ``consolidate_all`` does.  Raises
    :class:`PatchError` when the merge fails or its validation is refuted;
    the caller should then fall back to :func:`rebuild`.
    """

    started = time.perf_counter()
    result = PatchResult(tree=tree, action="add")
    leaf = MergeNode(qualify_locals(program))
    if tree is None:
        result.tree = leaf
    else:
        merge = _patch_step(
            result, functions, cost_model, options, static_validate, record, telemetry
        )
        result.tree = MergeNode(merge(tree.program, leaf.program), tree, leaf)
    result.seconds = time.perf_counter() - started
    return result


def remove_query(
    tree: MergeNode,
    pid: str,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    options: ConsolidationOptions | None = None,
    *,
    static_validate: bool = True,
    record: bool = True,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> PatchResult:
    """Unlink the leaf for ``pid`` and re-merge only its root path.

    The leaf's parent collapses into the sibling subtree; each ancestor
    above it is re-consolidated from its (one new, one untouched)
    children, bottom-up.  Raises :class:`ValueError` when ``pid`` is not a
    leaf of ``tree`` and :class:`PatchError` when a path merge fails.
    """

    started = time.perf_counter()
    path = _path_to_leaf(tree, pid)
    if path is None:
        raise ValueError(f"query {pid!r} is not a leaf of the merge tree")
    result = PatchResult(tree=tree, action="remove")
    if len(path) == 1:
        # The tree was a single leaf; removing it empties the registry.
        result.tree = None
    else:
        merge = _patch_step(
            result, functions, cost_model, options, static_validate, record, telemetry
        )
        # ``path`` runs root → … → parent → leaf.  The sibling subtree takes
        # the parent's place; every ancestor above is then re-merged
        # bottom-up from its untouched child and the patched subtree.
        parent = path[-2]
        patched = parent.right if parent.left is path[-1] else parent.left
        swapped = parent  # the node ``patched`` currently stands in for
        for ancestor in reversed(path[:-2]):
            if ancestor.left is swapped:
                left, right = patched, ancestor.right
            else:
                left, right = ancestor.left, patched
            assert left is not None and right is not None  # internal nodes have both
            patched = MergeNode(merge(left.program, right.program), left, right)
            swapped = ancestor
        result.tree = patched
    result.seconds = time.perf_counter() - started
    return result


def rebuild(
    programs: list[Program],
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    options: ConsolidationOptions | None = None,
    *,
    config: ExecutionConfig | None = None,
    provenance: bool = True,
    telemetry: Telemetry | None = None,
) -> tuple[MergeNode, ConsolidationReport]:
    """Full re-consolidation, keeping the tree for future patches."""

    cfg = (config or ExecutionConfig()).evolve(cost_model=cost_model, provenance=provenance)
    if telemetry is not None:
        cfg = cfg.evolve(telemetry=telemetry)
    report = consolidate_all(programs, functions, options=options, keep_tree=True, config=cfg)
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
