"""Continuous profiling and trace-calibrated cost estimation.

The paper's cost model (Figure 2, :mod:`repro.lang.cost`) prices every
operation kind with a static literal count.  This package closes the loop
between those static prices and the wall clock the backends actually
observe:

* :mod:`repro.profiling.features` — static per-operation-kind unit counts
  of a program (the regression features);
* :mod:`repro.profiling.trace` — the schema-versioned JSONL trace store
  the sampling profiler appends to;
* :mod:`repro.profiling.profiler` — the sampling micro-profiler hooked
  into every rung of the execution ladder (kernel / compiled closure /
  interpreter; samples are tagged ``compiled`` / ``vectorized`` /
  ``interp``), with the
  repository's NULL-twin discipline: :data:`NULL_PROFILER` costs nothing
  and the hooks are wired at *construction* time, never per record;
* :mod:`repro.profiling.calibrate` — the offline least-squares fitter
  (``repro calibrate``) with fit diagnostics;
* :mod:`repro.profiling.model` — the serialized
  :class:`CalibratedCostModel`, pluggable back into the
  :mod:`repro.lang.cost` seam via :func:`repro.lang.cost.cost_model_from_weights`;
* :mod:`repro.profiling.planner` — the cost-driven pair planner the
  divide-and-conquer consolidation driver uses under
  ``planner="calibrated"``.
"""

from __future__ import annotations

from .calibrate import fit_calibration
from .features import OP_KINDS, RECORD_KIND, op_units, program_units
from .model import MODEL_SCHEMA_VERSION, CalibratedCostModel
from .planner import LevelPlan, PlannedPair, pair_savings, plan_level
from .profiler import NULL_PROFILER, NullProfiler, Profiler
from .trace import (
    TRACE_SCHEMA_VERSION,
    TraceSample,
    TraceStore,
    read_trace,
    trace_fingerprint,
)

__all__ = [
    "OP_KINDS",
    "RECORD_KIND",
    "op_units",
    "program_units",
    "TRACE_SCHEMA_VERSION",
    "TraceSample",
    "TraceStore",
    "read_trace",
    "trace_fingerprint",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "fit_calibration",
    "CalibratedCostModel",
    "MODEL_SCHEMA_VERSION",
    "PlannedPair",
    "LevelPlan",
    "pair_savings",
    "plan_level",
]
