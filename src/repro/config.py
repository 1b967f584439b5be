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
``consolidate_all`` reads ``cost_model``, ``telemetry``, ``provenance``
and ``calibration`` from its ``config`` and from nowhere else.
8.0.0 removed ``executor`` with the process-pool consolidation driver;
9.0.0 made ``ServiceConfig``'s rebalance factor and plan-cache size the
registry's constants.  10.0.0 left one knob per decision: the engine's
charges are :mod:`repro.naiad.dataflow` constants, a ``calibration``
model is the choice of the calibrated planner (no ``planner`` field),
provenance is always recorded by the service, and its event log is
named on :class:`repro.service.QueryRegistry` alone.

Telemetry rides in the config too: ``telemetry`` is the
:class:`repro.telemetry.Telemetry` facade every instrumented layer
reports into (default: the no-op ``NULL_TELEMETRY``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional

from .lang.compile import BACKENDS, DEFAULT_BACKEND
from .lang.cost import DEFAULT_COST_MODEL, CostModel
from .telemetry import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:
    from .profiling.model import CalibratedCostModel

__all__ = [
    "ExecutionConfig",
    "ServiceConfig",
]


def _is_integer(value: object) -> bool:
    """True for anything ``range()`` takes as a count (it defines
    ``__index__``): ``int``, ``bool`` and integer scalars such as
    ``numpy.int64``, but no float, even ``4.0``."""

    return hasattr(type(value), "__index__")


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
        strategy, both kept while the benchmark's ``run_*`` metrics
        build both (ROADMAP items 9(iii) and 10(a) drop one);
        ``"interp"`` enters at the bottom rung, the tree-walking
        reference.  Per-record callers
        (:func:`repro.lang.compile.make_runner`) get the compiled closure
        or the interpreter.
    ``workers``
        Data-parallel dataflow shards.
    ``cost_model``
        The Figure-2 cost model used by interpreter, compiler and
        consolidator alike.
    ``telemetry``
        The observability handle.
    ``provenance``
        When True, the consolidation driver records a full
        :class:`repro.provenance.DerivationTree` per pair merge (rule
        applications, entailments, rewrites, heuristics) onto
        ``ConsolidationReport.derivations``.  Off by default — recording
        follows the NULL-twin pattern, so the disabled path costs one
        inert method call per decision point.
    ``calibration``
        The consolidation pair-ordering strategy.  ``None`` (default) runs
        the paper's ``related`` heuristic; a
        :class:`repro.profiling.CalibratedCostModel` runs the calibrated
        planner under it — rank candidate pairs by predicted wall-seconds
        saved, skip pairs predicted unprofitable, and merge the
        highest-savings pairs first (see :mod:`repro.profiling.planner`);
        ``CalibratedCostModel.uniform()`` plans with the static Figure-2
        priors.  The calibrated planner plans tree levels, so
        ``consolidate_all`` refuses it with ``order="fold"``/``"priority"``.
    """

    backend: str = DEFAULT_BACKEND
    workers: int = 4
    cost_model: CostModel = DEFAULT_COST_MODEL
    telemetry: Telemetry = NULL_TELEMETRY
    provenance: bool = False
    calibration: Optional["CalibratedCostModel"] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if not _is_integer(self.workers) or self.workers < 1:
            raise ValueError(
                f"workers must be an integer >= 1, got {self.workers!r}"
            )
        if self.calibration is not None:
            from .profiling.model import CalibratedCostModel

            if not isinstance(self.calibration, CalibratedCostModel):
                raise TypeError(
                    "calibration must be a CalibratedCostModel or None, got "
                    f"{type(self.calibration).__name__}"
                )

    def evolve(self, **changes: Any) -> "ExecutionConfig":
        """A copy with ``changes`` applied (the config is immutable)."""

        return replace(self, **changes)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for the consolidation service (``repro serve``).

    The registry always records one provenance derivation per pair merge
    (``/v1/explain`` summarises them), and its event log is named on
    :class:`repro.service.QueryRegistry` (``repro serve --event-log``).

    ``host`` / ``port``
        Bind address; port 0 asks the OS for an ephemeral port.
    ``static_validate_patches``
        Run the abstract-interpretation translation validator on every pair
        merge the registry runs, rebalances included; a refuted pair is
        kept unmerged, as in a batch (recorded, never silent).
    ``admit_warnings``
        When False, a lint *warning* rejects a submission just like an
        error (the default only rejects on errors).
    """

    host: str = "127.0.0.1"
    port: int = 8765
    static_validate_patches: bool = True
    admit_warnings: bool = True

    def __post_init__(self) -> None:
        if not _is_integer(self.port) or not 0 <= self.port <= 65535:
            raise ValueError(
                f"port must be an integer in 0..65535 (0 = ephemeral), "
                f"got {self.port!r}"
            )

    def evolve(self, **changes: Any) -> "ServiceConfig":
        """A copy with ``changes`` applied (the config is immutable)."""

        return replace(self, **changes)

