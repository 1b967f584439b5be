"""The serialized calibrated cost model.

A :class:`CalibratedCostModel` is what ``repro calibrate`` produces:
seconds-per-unit weights for every operation kind (plus the per-record
overhead axis), together with the fit diagnostics an operator needs to
decide whether to trust it — R², residual magnitudes, per-kind standard
errors and support counts, and the fingerprint/timestamp of the trace it
was fitted from.

:meth:`to_cost_model` folds the weights back into the existing
:class:`repro.lang.cost.CostModel` seam (integer units normalized to
``var = 1``) for any consumer of the Figure-2 static model; a program's
predicted seconds are its :func:`~repro.profiling.features.program_units`
weighted by :attr:`CalibratedCostModel.weights`.

Serialization is deterministic: :meth:`to_json` sorts every mapping and
derives ``fitted_at`` from the newest sample timestamp, so fitting the
same trace twice yields byte-identical JSON (tested).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Union

from ..lang.cost import CostModel, cost_model_from_weights
from .trace import finite

__all__ = ["MODEL_SCHEMA_VERSION", "CalibratedCostModel"]

MODEL_SCHEMA_VERSION = 1

# Support below this many samples marks a weight "low" confidence even
# when its standard error looks tight — the error estimate itself is
# untrustworthy on a handful of points.
_MIN_SUPPORT = 8


@dataclass(frozen=True)
class CalibratedCostModel:
    """Least-squares seconds-per-unit weights plus fit diagnostics."""

    weights: Mapping[str, float]
    r2: float = 0.0
    residual_abs_mean: float = 0.0
    residual_abs_max: float = 0.0
    stderr: Mapping[str, float] = field(default_factory=dict)
    support: Mapping[str, int] = field(default_factory=dict)
    samples: int = 0
    backends: Mapping[str, int] = field(default_factory=dict)
    fitted_at: float = 0.0
    trace_fingerprint: str = ""
    source: str = "fit"  # "uniform" in files written before 12.0.0
    schema: int = MODEL_SCHEMA_VERSION

    # -- diagnostics ---------------------------------------------------------

    def confidence(self, kind: str) -> str:
        """``high`` / ``medium`` / ``low`` trust in one fitted weight."""

        n = int(self.support.get(kind, 0))
        if n < _MIN_SUPPORT:
            return "low"
        weight = self.weights.get(kind, 0.0)
        err = self.stderr.get(kind, float("inf"))
        if weight > 0.0 and err <= 0.5 * weight:
            return "high"
        return "medium"

    # -- the repro.lang.cost seam --------------------------------------------

    def to_cost_model(self) -> CostModel:
        """Fold the fitted weights back into an integer Figure-2 model."""

        return cost_model_from_weights(self.weights)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": self.schema,
            "source": self.source,
            "weights": {k: self.weights[k] for k in sorted(self.weights)},
            "diagnostics": {
                "r2": self.r2,
                "residual_abs_mean": self.residual_abs_mean,
                "residual_abs_max": self.residual_abs_max,
                "stderr": {k: self.stderr[k] for k in sorted(self.stderr)},
                "support": {k: self.support[k] for k in sorted(self.support)},
                "confidence": {
                    k: self.confidence(k) for k in sorted(self.weights)
                },
                "samples": self.samples,
                "backends": {k: self.backends[k] for k in sorted(self.backends)},
            },
            "fitted_at": self.fitted_at,
            "trace_fingerprint": self.trace_fingerprint,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "CalibratedCostModel":
        if doc.get("schema") != MODEL_SCHEMA_VERSION:
            raise ValueError(
                f"calibrated model schema {doc.get('schema')!r} is not "
                f"{MODEL_SCHEMA_VERSION}"
            )
        weights = doc.get("weights")
        if not isinstance(weights, dict):
            raise ValueError("calibrated model has no weights mapping")
        diagnostics = doc.get("diagnostics")
        diag: Dict[str, object] = dict(diagnostics) if isinstance(diagnostics, dict) else {}
        stderr = diag.get("stderr")
        support = diag.get("support")
        backends = diag.get("backends")
        return cls(
            weights={str(k): finite(v, f"weight {k!r}") for k, v in weights.items()},
            r2=finite(diag.get("r2", 0.0), "r2"),
            residual_abs_mean=finite(diag.get("residual_abs_mean", 0.0), "residual_abs_mean"),
            residual_abs_max=finite(diag.get("residual_abs_max", 0.0), "residual_abs_max"),
            # A standard error may be infinite (or NaN): the fitter's "no
            # estimate" for a kind it could not pin down.
            stderr=(
                {str(k): float(v) for k, v in stderr.items()}
                if isinstance(stderr, dict)
                else {}
            ),
            support=(
                {str(k): int(finite(v, f"support {k!r}")) for k, v in support.items()}
                if isinstance(support, dict)
                else {}
            ),
            samples=int(finite(diag.get("samples", 0), "samples")),
            backends=(
                {str(k): int(finite(v, f"backends {k!r}")) for k, v in backends.items()}
                if isinstance(backends, dict)
                else {}
            ),
            fitted_at=finite(doc.get("fitted_at", 0.0), "fitted_at"),
            trace_fingerprint=str(doc.get("trace_fingerprint", "")),
            source=str(doc.get("source", "fit")),
        )

    @classmethod
    def from_json(cls, text: str) -> "CalibratedCostModel":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("calibrated model JSON must be an object")
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CalibratedCostModel":
        return cls.from_json(Path(path).read_text())
