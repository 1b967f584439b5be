"""The dynamic query registry: consolidation as a long-running service.

A :class:`QueryRegistry` owns the mutable state the offline pipeline
never needed: which queries are currently registered (per tenant), the
live divide-and-conquer merge tree, a plan cache keyed by canonical
fingerprints, and the append-only event log that makes all of it
replayable.  Mutations take one path::

    admit ──► duplicate / precondition checks ──► journal append
          ──► plan cache probe ──► incremental patch (or rebalance)

* **Admission** (:mod:`repro.service.admission`) rejects malformed or
  lint-failing queries with SARIF diagnostics before any state changes.
* **Plan cache**: the registry keys each consolidated plan by the
  multiset of member fingerprints (:func:`repro.service.fingerprint.plan_key`)
  and keeps the :data:`PLAN_CACHE_SIZE` most recently used.
  Re-registering an alpha-equivalent batch — same queries, new names or
  pids — reuses the prior merge tree wholesale; only the notify targets
  and the locals' qualifiers are structurally renamed, no pair is
  re-consolidated.
* **Incremental patching** (:mod:`repro.consolidation.incremental`): a
  cache miss on add/remove of one query patches the merge tree instead of
  re-running ``consolidate_all``; an α-copy of a live query rides on it
  with no pair merge, and ``explain()`` names each rider's
  representative.  Every merge runs under the batch driver's rules: a
  pair that fails, or whose notifications the gate refutes, is kept
  unmerged and counted (``patch_fallbacks``).  A registration whose graft
  would grow the tree past the depth bound (:data:`REBALANCE_FACTOR`)
  rebuilds the balanced tree instead, gated like any other merge and
  recorded on the patch result (``full_rebuilds``).  ``explain()`` reads
  the last patch's static certificates and derivations, each computed on
  that first read; no merge records either.
* **Event log** (:mod:`repro.service.events`): every applied mutation is
  journalled first; a registry constructed over an existing journal
  replays it through this same path, so restart recovers byte-identical
  plan fingerprints.

All public methods are safe under concurrent callers: one re-entrant
lock serialises mutations and plan reads.  ``explain()`` computes its
evidence after releasing it, so a slow explain blocks no mutation.

Telemetry lands under ``service_*``: registrations, admission rejects,
plan-cache hits/misses, incremental patches, rebalances, pair merges, and
the patch seconds histogram.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from threading import RLock
from typing import Any, Iterable, Optional, Sequence

from ..config import ExecutionConfig, ServiceConfig
from ..consolidation.divide_conquer import MergeNode
from ..consolidation.incremental import PatchResult, add_query, rebuild, remove_query
from ..lang.ast import Program
from ..lang.functions import FunctionTable
from ..lang.printer import program_to_str
from ..lang.visitors import notified_pids
from ..naiad.dataflow import RunResult
from ..naiad.linq import from_collection
from .admission import AdmissionDecision, admit
from .errors import DuplicateQueryError, RegistryError, UnknownQueryError
from .events import Event, EventLog
from .fingerprint import fingerprint, plan_key

__all__ = [
    "PLAN_CACHE_SIZE",
    "REBALANCE_FACTOR",
    "RegisteredQuery",
    "PlanSnapshot",
    "QueryRegistry",
]

# A root graft that would make the tree deeper than
# REBALANCE_FACTOR · ⌈log₂ n⌉ + 1 rebuilds the balanced tree instead.
REBALANCE_FACTOR = 2.0
# Consolidated plans the cache keeps, evicted least-recently-used.
PLAN_CACHE_SIZE = 128


@dataclass(frozen=True)
class RegisteredQuery:
    """One admitted query's registry entry."""

    pid: str
    tenant: str
    program: Program
    fingerprint: str
    seq: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "tenant": self.tenant,
            "fingerprint": self.fingerprint,
            "seq": self.seq,
        }


@dataclass(frozen=True)
class PlanSnapshot:
    """The current consolidated plan, as served by ``/v1/plan``."""

    fingerprint: str
    pids: tuple[str, ...]
    queries: int
    depth: int
    program_text: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "pids": list(self.pids),
            "queries": self.queries,
            "depth": self.depth,
            "program": self.program_text,
        }


@dataclass
class _CachedPlan:
    """One plan-cache line: the tree plus its leaf identities."""

    tree: MergeNode
    leaves: tuple[tuple[str, str], ...]  # (fingerprint, pid) per leaf


def _relabel_tree(node: MergeNode, pid_map: dict[str, str]) -> MergeNode:
    """A structurally-renamed copy of a cached tree for new pids.

    Cached plans are keyed by canonical fingerprints, so a hit may serve
    a batch whose queries are alpha-equivalent but carry different pids.
    Renaming every ``notify`` target, every local's qualifier and each
    node's pid label is a pure tree rebuild — no consolidation, no SMT.
    """

    return node.relabel(
        pid_map,
        _relabel_tree(node.left, pid_map) if node.left is not None else None,
        _relabel_tree(node.right, pid_map) if node.right is not None else None,
    )


class QueryRegistry:
    """Dynamic multi-tenant registry with an incrementally-patched plan.

    ``event_log`` is the path of the append-only journal: an existing one
    is replayed on construction; ``None`` keeps the registry in memory
    only (no durability, no replay on restart).
    """

    def __init__(
        self,
        functions: FunctionTable,
        *,
        config: ExecutionConfig | None = None,
        service: ServiceConfig | None = None,
        event_log: Optional[str] = None,
    ) -> None:
        self.functions = functions
        self.config = config or ExecutionConfig()
        self.service = service or ServiceConfig()
        self.telemetry = self.config.telemetry
        self._queries: "OrderedDict[str, RegisteredQuery]" = OrderedDict()
        self._tree: Optional[MergeNode] = None
        self._plan_cache: "OrderedDict[str, _CachedPlan]" = OrderedDict()
        self._lock = RLock()
        self._seq = 0
        self._log: Optional[EventLog] = None
        self._replaying = False
        self.last_patch: Optional[PatchResult] = None
        self.stats = {
            "registered_total": 0,
            "unregistered_total": 0,
            "admission_rejects_total": 0,
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "incremental_patches": 0,
            "full_rebuilds": 0,
            "patch_fallbacks": 0,
            "pair_merges_total": 0,
        }
        if event_log is not None:
            self._log = EventLog(event_log)
            self._replay(self._log.existing)

    # -- replay ------------------------------------------------------------

    def _replay(self, events: Iterable[Event]) -> None:
        """Re-apply a journal through the ordinary mutation path."""

        self._replaying = True
        try:
            for event in events:
                if event.op == "register":
                    entry = self.register(event.program, tenant=event.tenant)
                    if event.fingerprint and entry.fingerprint != event.fingerprint:
                        raise RegistryError(
                            f"event log replay diverged at seq {event.seq}: "
                            f"query {event.pid!r} replayed with fingerprint "
                            f"{entry.fingerprint}, journal says {event.fingerprint}"
                        )
                elif event.op == "unregister":
                    self.unregister(event.pid)
                else:
                    raise RegistryError(
                        f"event log contains unknown op {event.op!r} at "
                        f"seq {event.seq}"
                    )
                self._seq = max(self._seq, event.seq)
        finally:
            self._replaying = False

    # -- mutations ---------------------------------------------------------

    def register(
        self, query: Program | str, tenant: str = "default"
    ) -> RegisteredQuery:
        """Admit and register one query, patching the plan incrementally."""

        decision = self._admit(query)
        program = decision.program
        with self._lock:
            if program.pid in self._queries:
                raise DuplicateQueryError(
                    f"query id {program.pid!r} is already registered"
                )
            new_pids = notified_pids(program.body) | {program.pid}
            for other in self._queries.values():
                taken = notified_pids(other.program.body) | {other.pid}
                overlap = new_pids & taken
                if overlap:
                    raise DuplicateQueryError(
                        f"query {program.pid!r} notifies ids already owned by "
                        f"{other.pid!r}: {sorted(overlap)}"
                    )
            if self._queries:
                first = next(iter(self._queries.values())).program
                if program.params != first.params:
                    raise RegistryError(
                        f"query {program.pid!r} takes inputs {program.params}, "
                        f"but this registry consolidates over {first.params}"
                    )
            fp = fingerprint(program, self.config.cost_model)
            seq = self._journal(
                "register",
                program.pid,
                tenant=tenant,
                program=program_to_str(program),
                fingerprint=fp,
            )
            entry = RegisteredQuery(program.pid, tenant, program, fp, seq)
            self._queries[program.pid] = entry
            try:
                self._apply_add(program, fp)
            except Exception:
                # The plan must never desynchronise from the membership.
                del self._queries[program.pid]
                raise
            self._bump("registered_total", "service_registered_total")
            return entry

    def unregister(self, pid: str) -> None:
        """Remove one query, patching only the leaf's root path."""

        with self._lock:
            if pid not in self._queries:
                raise UnknownQueryError(f"no registered query has id {pid!r}")
            self._journal("unregister", pid)
            entry = self._queries.pop(pid)
            try:
                self._apply_remove(entry)
            except Exception:
                self._queries[pid] = entry
                raise
            self._bump("unregistered_total", "service_unregistered_total")

    def _admit(self, query: Program | str) -> AdmissionDecision:
        try:
            return admit(
                query,
                self.functions,
                admit_warnings=self.service.admit_warnings,
            )
        except Exception:
            self._bump("admission_rejects_total", "service_admission_rejects_total")
            raise

    def _bump(self, stat: str, metric: str) -> None:
        self.stats[stat] += 1
        if self.telemetry.enabled:
            self.telemetry.counter(metric).inc()

    def _journal(self, op: str, pid: str, **fields: str) -> int:
        self._seq += 1
        if self._log is not None and not self._replaying:
            return self._log.append(op, pid, **fields).seq
        return self._seq

    # -- plan maintenance --------------------------------------------------

    def _current_key(self) -> str:
        return plan_key(q.fingerprint for q in self._queries.values())

    def _cache_store(self) -> None:
        if self._tree is None:
            return
        key = self._current_key()
        leaves = tuple(
            (self._queries[pid].fingerprint, pid)
            for pid in self._tree.leaf_pids()
        )
        self._plan_cache[key] = _CachedPlan(self._tree, leaves)
        self._plan_cache.move_to_end(key)
        while len(self._plan_cache) > PLAN_CACHE_SIZE:
            self._plan_cache.popitem(last=False)

    def _cache_probe(self) -> bool:
        """Serve the current membership from the plan cache if possible."""

        if not self._queries:
            self._tree = None
            return True
        key = self._current_key()
        cached = self._plan_cache.get(key)
        if cached is None:
            self._bump("plan_cache_misses", "service_plan_cache_misses_total")
            return False
        # Match cached leaves to current pids fingerprint-by-fingerprint;
        # same-fingerprint queries are alpha-equivalent, so any pairing
        # within a fingerprint class is sound.
        wanted: dict[str, list[str]] = {}
        for entry in self._queries.values():
            wanted.setdefault(entry.fingerprint, []).append(entry.pid)
        pid_map: dict[str, str] = {}
        for fp, old_pid in cached.leaves:
            pid_map[old_pid] = wanted[fp].pop(0)
        self._tree = _relabel_tree(cached.tree, pid_map)
        self._plan_cache.move_to_end(key)
        self._bump("plan_cache_hits", "service_plan_cache_hits_total")
        self._cache_store()
        return True

    def _apply_add(self, program: Program, fp: str) -> None:
        if self._cache_probe():
            # A hit is the patch that produced the live tree — one with no
            # pair merges — so last_patch never describes an older plan.
            self.last_patch = PatchResult(tree=self._tree, action="add")
            return
        started = time.perf_counter()
        # A root graft makes the tree one level deeper: decide the
        # rebalance before merging, so a registration pays the graft or
        # the rebuild, never both.  An α-copy of a live query — the
        # fingerprint is the α-class key — rides on it and deepens nothing.
        depth = self._tree.depth() + 1 if self._tree is not None else 1
        twins = (q.pid for q in self._queries.values() if q.fingerprint == fp)
        twin = next((pid for pid in twins if pid != program.pid), None)
        if twin is None and self._needs_rebalance(depth):
            patch = self._rebalance(
                f"rebalance: depth {depth} exceeded the "
                f"policy bound for {len(self._queries)} queries"
            )
        else:
            patch = add_query(
                self._tree,
                program,
                self.functions,
                self.config.cost_model,
                telemetry=self.telemetry,
                twin=twin,
            )
            if patch.pairs or patch.rides:
                self._count_patch(patch)
        patch.seconds = time.perf_counter() - started
        self._install(patch)

    def _apply_remove(self, entry: RegisteredQuery) -> None:
        if self._cache_probe():
            self.last_patch = PatchResult(tree=self._tree, action="remove")
            return
        assert self._tree is not None  # the membership had entry
        started = time.perf_counter()
        patch = remove_query(
            self._tree,
            entry.pid,
            self.functions,
            self.config.cost_model,
            telemetry=self.telemetry,
        )
        self._count_patch(patch)
        patch.seconds = time.perf_counter() - started
        self._install(patch)

    def _rebalance(self, reason: str) -> PatchResult:
        """Full re-consolidation of the live set, recorded as the patch's
        ``fallback``: the balanced tree again."""

        programs = [q.program for q in self._queries.values()]
        tree, report = rebuild(
            programs,
            self.functions,
            self.config.cost_model,
            config=self.config,
            telemetry=self.telemetry,
        )
        self.stats["full_rebuilds"] += 1
        if self.telemetry.enabled:
            self.telemetry.counter("service_full_rebuilds_total").inc()
        patch = PatchResult(tree=tree, action="add", pairs=report.pairs, fallback=reason)
        self._count_pairs(patch)
        return patch

    def _count_patch(self, patch: PatchResult) -> None:
        self.stats["incremental_patches"] += 1
        if self.telemetry.enabled:
            self.telemetry.counter("service_incremental_patches_total").inc()
        self._count_pairs(patch)

    def _count_pairs(self, patch: PatchResult) -> None:
        """Count the patch's pair merges, and those kept unmerged."""

        self.stats["pair_merges_total"] += patch.pair_merges
        self.stats["patch_fallbacks"] += sum(r.skip_reason is not None for r in patch.pairs)
        if self.telemetry.enabled:
            self.telemetry.counter("service_pair_merges_total").inc(patch.pair_merges)

    def _install(self, patch: PatchResult) -> None:
        self._tree = patch.tree
        self.last_patch = patch
        self._cache_store()
        if self.telemetry.enabled:
            self.telemetry.histogram("service_patch_seconds").observe(patch.seconds)

    def _needs_rebalance(self, depth: int) -> bool:
        n = len(self._queries)
        return n >= 4 and depth > REBALANCE_FACTOR * math.ceil(math.log2(n)) + 1

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queries)

    def pids(self) -> list[str]:
        with self._lock:
            return list(self._queries)

    def queries(self) -> list[RegisteredQuery]:
        with self._lock:
            return list(self._queries.values())

    def get(self, pid: str) -> RegisteredQuery:
        with self._lock:
            if pid not in self._queries:
                raise UnknownQueryError(f"no registered query has id {pid!r}")
            return self._queries[pid]

    @property
    def tree(self) -> Optional[MergeNode]:
        return self._tree

    def plan(self) -> Optional[PlanSnapshot]:
        """The current consolidated plan (``None`` while empty)."""

        with self._lock:
            if self._tree is None:
                return None
            return PlanSnapshot(
                fingerprint=self._current_key(),
                pids=tuple(self._queries),
                queries=len(self._queries),
                depth=self._tree.depth(),
                program_text=program_to_str(self._tree.program),
            )

    def run(self, rows: Sequence[object]) -> RunResult:
        """Execute the consolidated plan over ``rows`` (a RunResult)."""

        with self._lock:
            if self._tree is None:
                raise RegistryError("no queries are registered; nothing to run")
            program, pids = self._tree.program, list(self._queries)
        query = from_collection(rows, config=self.config).where_consolidated(
            program, pids, self.functions
        )
        return query.run(self.config)

    def metrics_doc(self) -> dict[str, int]:
        """The ``/metrics`` document: the counters in ``stats``."""

        with self._lock:
            return dict(self.stats)

    def explain(self) -> dict[str, Any]:
        """A JSON-friendly account of the plan and how it got here."""

        from ..provenance import derivation_summary

        with self._lock:
            doc: dict[str, Any] = {
                "queries": len(self._queries),
                "plan_fingerprint": self._current_key() if self._queries else None,
                "tree": self._tree.shape() if self._tree is not None else None,
                "riders": self._tree.riders() if self._tree is not None else {},
                "depth": self._tree.depth() if self._tree is not None else 0,
                "cache": {
                    "size": len(self._plan_cache),
                    "hits": self.stats["plan_cache_hits"],
                    "misses": self.stats["plan_cache_misses"],
                },
                "counters": dict(self.stats),
            }
            patch = self.last_patch
        # An installed patch is never mutated again, and its certificates
        # and derivations are computed here, on first read, out of the lock.
        if patch is not None:
            validations = patch.validations
            doc["last_patch"] = {
                "action": patch.action,
                "pair_merges": patch.pair_merges,
                "declined": [list(pair) for pair in patch.declined],
                "rides": len(patch.rides),
                "patched_pids": patch.patched_pids,
                "fallback": patch.fallback,
                "seconds": round(patch.seconds, 6),
                # null, not a vacuous true, when no merge was validated
                "certified": (
                    all(v.certified for v in validations) if validations else None
                ),
                "validated": len(validations),
                "derivations": derivation_summary(patch.derivations),
            }
        return doc
