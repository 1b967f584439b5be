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
``consolidate_all`` reads ``cost_model`` and ``telemetry`` from its
``config`` and from nowhere else.
8.0.0 removed ``executor`` with the process-pool consolidation driver;
9.0.0 made ``ServiceConfig``'s rebalance factor and plan-cache size the
registry's constants.  10.0.0 left one knob per decision: the engine's
charges are :mod:`repro.naiad.dataflow` constants, and the service's
event log is named on :class:`repro.service.QueryRegistry` alone.
12.0.0 removed ``calibration`` with the calibrated planner: there is one
pairing planner, and its pair step declines pairs that share no work.
14.0.0 removed ``provenance``: no merge records its derivation; a merged
pair's is replayed when read
(:attr:`repro.consolidation.PairRecord.derivation`).

Telemetry rides in the config too: ``telemetry`` is the
:class:`repro.telemetry.Telemetry` facade every instrumented layer
reports into (default: the no-op ``NULL_TELEMETRY``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .lang.compile import BACKENDS, DEFAULT_BACKEND
from .lang.cost import DEFAULT_COST_MODEL, CostModel
from .telemetry import NULL_TELEMETRY, Telemetry

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
    """

    backend: str = DEFAULT_BACKEND
    workers: int = 4
    cost_model: CostModel = DEFAULT_COST_MODEL
    telemetry: Telemetry = NULL_TELEMETRY

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if not _is_integer(self.workers) or self.workers < 1:
            raise ValueError(
                f"workers must be an integer >= 1, got {self.workers!r}"
            )

    def evolve(self, **changes: Any) -> "ExecutionConfig":
        """A copy with ``changes`` applied (the config is immutable)."""

        return replace(self, **changes)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for the consolidation service (``repro serve``).

    ``/v1/explain`` summarises the last patch's derivations, each replayed
    when read, and the event log is named on
    :class:`repro.service.QueryRegistry` (``repro serve --event-log``).

    ``host`` / ``port``
        Bind address; port 0 asks the OS for an ephemeral port.
    ``admit_warnings``
        When False, a lint *warning* rejects a submission just like an
        error (the default only rejects on errors).
    """

    host: str = "127.0.0.1"
    port: int = 8765
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

