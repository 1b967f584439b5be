"""Execution configuration: one object for every run-time knob.

Before this module, each layer grew its own keyword arguments —
``backend=`` on the operators, ``workers=`` on ``Query.run``,
``cost_model=`` everywhere, ``parallel=`` on ``consolidate_all`` — and
they drifted (a knob added to one entry point was forgotten on the next).
:class:`ExecutionConfig` replaced them with a single immutable value
threaded through :meth:`repro.naiad.linq.Query.run`,
:func:`repro.naiad.linq.from_collection`, ``run_where_many`` /
``run_where_consolidated``, :func:`repro.consolidation.consolidate_all`,
the experiment harness and the CLI.

It is the only way to set a run-time knob: the keywords were deprecated
through 1.x and removed in 2.0, and 3.0 removed the copies
``consolidate_all`` had kept (CHANGES.md has the migration table).
``consolidate_all`` reads ``cost_model``, ``executor``, ``telemetry``,
``provenance``, ``planner`` and ``calibration`` from its ``config`` and
from nowhere else.

Telemetry rides in the config too: ``telemetry`` is the
:class:`repro.telemetry.Telemetry` facade every instrumented layer
reports into (default: the no-op ``NULL_TELEMETRY``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Optional

from .lang.compile import BACKENDS, DEFAULT_BACKEND
from .lang.cost import DEFAULT_COST_MODEL, CostModel
from .telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "ExecutionConfig",
    "ServiceConfig",
    "EXECUTORS",
    "PLANNERS",
]

EXECUTORS = ("serial", "process")

# Consolidation pair-ordering strategies (see repro.profiling.planner for
# the calibrated one).
PLANNERS = ("related", "calibrated")

@dataclass(frozen=True)
class ExecutionConfig:
    """Everything a query run needs beyond the data and the programs.

    ``backend``
        The rung of the execution ladder a run enters on.  The ``Where*``
        operators have one path — whole partitions through one row-loop
        kernel from the flush path, degrading to the per-record compiled
        closure (programs the shape classifier cannot bound, a kernel
        that raises) and from there to the interpreter (see
        :mod:`repro.lang.vectorize`).  ``"compiled"`` (default) and
        ``"vectorized"`` both enter at the kernel — two names for one
        strategy until 5.0.0 drops one; ``"interp"`` enters at the
        bottom rung, the tree-walking reference.  Per-record callers
        (:func:`repro.lang.compile.make_runner`) get the compiled closure
        or the interpreter.
    ``workers``
        Data-parallel dataflow shards.
    ``cost_model``
        The Figure-2 cost model used by interpreter, compiler and
        consolidator alike.
    ``io_cost_per_record`` / ``overhead_per_operator``
        The dataflow engine's virtual-clock charges.
    ``executor``
        How the divide-and-conquer consolidation driver runs its pair
        merges: ``"serial"`` or ``"process"`` (a pool of
        ``min(os.cpu_count(), pairs in the level)`` workers — programs are
        picklable ASTs).  Only the ``related`` planner's levels pool;
        calibrated levels run in-process, in plan order.
    ``telemetry``
        The observability handle.
    ``provenance``
        When True, the consolidation driver records a full
        :class:`repro.provenance.DerivationTree` per pair merge (rule
        applications, entailments, rewrites, heuristics) onto
        ``ConsolidationReport.derivations``.  Off by default — recording
        follows the NULL-twin pattern, so the disabled path costs one
        inert method call per decision point.
    ``planner``
        Consolidation pair-ordering strategy: ``"related"`` (the paper's
        heuristic, default) or ``"calibrated"`` — rank candidate pairs by
        predicted wall-seconds saved under ``calibration``, skip pairs
        predicted unprofitable, and merge the highest-savings pairs first
        (see :mod:`repro.profiling.planner`).  It plans tree levels, so
        ``consolidate_all`` refuses it with ``order="fold"``/``"priority"``.
    ``calibration``
        Optional :class:`repro.profiling.CalibratedCostModel` backing the
        calibrated planner.  When the planner is ``"calibrated"`` and no
        model is supplied, the driver falls back to
        ``CalibratedCostModel.uniform()`` (static Figure-2 priors).
    """

    backend: str = DEFAULT_BACKEND
    workers: int = 4
    cost_model: CostModel = DEFAULT_COST_MODEL
    io_cost_per_record: int = 25
    overhead_per_operator: int = 2
    executor: str = "serial"
    telemetry: Telemetry = NULL_TELEMETRY
    provenance: bool = False
    planner: str = "related"
    calibration: object = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.executor not in EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}; choose from {EXECUTORS}")
        if self.planner not in PLANNERS:
            raise ValueError(
                f"unknown planner {self.planner!r}; choose from {PLANNERS}"
            )
        if self.workers < 1:
            raise ValueError(
                f"workers must be an integer >= 1, got {self.workers!r}"
            )

    def evolve(self, **changes: Any) -> "ExecutionConfig":
        """A copy with ``changes`` applied (the config is immutable)."""

        return replace(self, **changes)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for the consolidation service (``repro serve``).

    ``host`` / ``port``
        Bind address; port 0 asks the OS for an ephemeral port.
    ``event_log``
        Path of the append-only registry journal.  ``None`` keeps the
        registry in-memory only (no durability, no replay on restart).
    ``static_validate_patches``
        Run the abstract-interpretation translation validator on every
        incremental pair merge; an uncertified patch falls back to a full
        re-consolidation (recorded, never silent).
    ``record_derivations``
        Record one provenance :class:`~repro.provenance.DerivationTree`
        per patched pair merge, summarised by ``/v1/explain``.  Recording
        keeps references to the nodes each event was handed and renders
        their text only when a report reads it, so on by default costs a
        patch little more than the event objects themselves.
    ``rebalance_factor``
        Incremental adds graft at the root and slowly grow a spine; when
        the tree's depth exceeds ``rebalance_factor × ⌈log₂ n⌉ + 1`` the
        registry rebuilds the balanced tree instead (a recorded rebuild,
        not a failure).  Must be finite and ≥ 1.0.
    ``plan_cache_size``
        Maximum retained consolidated plans, evicted least-recently-used.
        0 disables the cache.
    ``admit_warnings``
        When False, a lint *warning* rejects a submission just like an
        error (the default only rejects on errors).
    """

    host: str = "127.0.0.1"
    port: int = 8765
    event_log: Optional[str] = None
    static_validate_patches: bool = True
    record_derivations: bool = True
    rebalance_factor: float = 2.0
    plan_cache_size: int = 128
    admit_warnings: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(
                f"port must be an integer in 0..65535 (0 = ephemeral), "
                f"got {self.port!r}"
            )
        # Written so NaN fails too: a NaN factor never trips a rebalance.
        if not 1.0 <= self.rebalance_factor < math.inf:
            raise ValueError(
                f"rebalance_factor must be a finite float >= 1.0, got "
                f"{self.rebalance_factor!r}"
            )
        if self.plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be an integer >= 0 (0 disables the "
                f"cache), got {self.plan_cache_size!r}"
            )

    def evolve(self, **changes: Any) -> "ServiceConfig":
        """A copy with ``changes`` applied (the config is immutable)."""

        return replace(self, **changes)

