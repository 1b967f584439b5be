"""Continuous profiling and trace-calibrated cost estimation.

The paper's cost model (Figure 2, :mod:`repro.lang.cost`) prices every
operation kind with a static literal count.  This package closes the loop
between those static prices and the wall clock the backends actually
observe:

* :mod:`repro.profiling.features` — static per-operation-kind unit counts
  of a program (the regression features);
* :mod:`repro.profiling.trace` — the schema-versioned JSONL trace store
  the sampling profiler appends to;
* :mod:`repro.profiling.profiler` — the sampling micro-profiler, a
  driver that runs a program through the execution ladder's public
  entry points and times every rung it reaches (kernel / compiled
  closure / interpreter; samples are tagged ``compiled`` /
  ``vectorized`` / ``interp``).  Nothing on the query run path knows
  about it: a run that is not being profiled carries no hook;
* :mod:`repro.profiling.calibrate` — the offline least-squares fitter
  (``repro calibrate``) with fit diagnostics;
* :mod:`repro.profiling.model` — the serialized
  :class:`CalibratedCostModel`, pluggable back into the
  :mod:`repro.lang.cost` seam via :func:`repro.lang.cost.cost_model_from_weights`.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

from .features import OP_KINDS, RECORD_KIND, op_units, program_units
from .model import MODEL_SCHEMA_VERSION, CalibratedCostModel
from .trace import (
    TRACE_SCHEMA_VERSION,
    TraceSample,
    TraceStore,
    read_trace,
    trace_fingerprint,
)

# The profiler and the fitter load on first use: ``import repro`` reaches
# this package only for the cost model.
_LAZY = {"Profiler": "profiler", "fit_calibration": "calibrate"}


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)

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
    "fit_calibration",
    "CalibratedCostModel",
    "MODEL_SCHEMA_VERSION",
]
