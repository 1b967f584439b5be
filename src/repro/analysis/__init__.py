"""Program analyses supporting consolidation.

* :mod:`repro.analysis.sp` — strongest postconditions over SMT contexts,
* :mod:`repro.analysis.costmodel` — static expression costs,
* :mod:`repro.analysis.invariants` — guess-and-check loop invariants,
* :mod:`repro.analysis.related` — the ``related`` heuristic of Figure 8.
"""

from .costmodel import expr_cost
from .invariants import loop_invariant, stable_conjuncts
from .related import comparison_subjects, expr_features, related
from .sp import SpEngine

__all__ = [
    "expr_cost",
    "loop_invariant",
    "stable_conjuncts",
    "comparison_subjects",
    "expr_features",
    "related",
    "SpEngine",
]
