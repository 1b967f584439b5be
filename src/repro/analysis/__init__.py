"""Program analyses supporting consolidation.

* :mod:`repro.analysis.sp` — strongest postconditions over SMT contexts,
* :mod:`repro.analysis.costmodel` — static expression/statement costs,
* :mod:`repro.analysis.invariants` — guess-and-check loop invariants,
* :mod:`repro.analysis.related` — the ``related`` heuristic of Figure 8,
* :mod:`repro.analysis.prefilter` — sound reject-early guard synthesis and
  the vectorizability shape classifier.
"""

from .costmodel import expr_cost, stmt_cost_bounds
from .invariants import loop_invariant, stable_conjuncts
from .prefilter import (
    PREFILTER_PID,
    SHAPES,
    Prefilter,
    classify_shape,
    make_guard,
    synthesize_prefilter,
)
from .related import comparison_subjects, expr_features, related
from .sp import SpEngine

__all__ = [
    "expr_cost",
    "stmt_cost_bounds",
    "loop_invariant",
    "stable_conjuncts",
    "PREFILTER_PID",
    "SHAPES",
    "Prefilter",
    "classify_shape",
    "make_guard",
    "synthesize_prefilter",
    "comparison_subjects",
    "expr_features",
    "related",
    "SpEngine",
]
