"""Program consolidation: the paper's primary contribution.

* :mod:`repro.consolidation.simplifier` — cross-simplification (Figure 3),
* :mod:`repro.consolidation.algorithm` — the Ω/Ω′ algorithm (Figures 5/7/8),
* :mod:`repro.consolidation.divide_conquer` — merging n UDFs pairwise: one
  level loop over a pairing policy, and the one pair-merge step,
* :mod:`repro.consolidation.incremental` — patching the merge tree on
  add/remove of a single query (the service's re-consolidation engine),
* :mod:`repro.consolidation.verify` — dynamic Theorem 1 checking.
"""

from .algorithm import ConsolidationError, ConsolidationOptions, Consolidator, PairRecord
from .divide_conquer import ConsolidationReport, MergeNode, consolidate_all, merge_pair
from .incremental import PatchResult, add_query, rebuild, remove_query
from .simplifier import Context, fold_expr, ir_from_linear, ir_linear
from .verify import SoundnessReport, SoundnessViolation, check_soundness
