"""repro.provenance — derivation recording and explain-plan reporting.

The consolidation calculus makes dozens of opaque decisions per pair:
which If/Loop/Com rule fired, which ``Ψ ⊨ e`` entailments the solver
accepted, where the ``related`` heuristic pruned an embedding, which
cross-simplification rewrites landed.  This package turns those decisions
into queryable artifacts — the database EXPLAIN for the optimiser:

* :mod:`repro.provenance.recorder` — the structured
  :class:`DerivationRecorder` threaded through
  :class:`repro.consolidation.Consolidator` and the simplifier
  :class:`~repro.consolidation.simplifier.Context`.  Recording follows
  the telemetry NULL-twin pattern: the default :data:`NULL_RECORDER`
  makes every hook a no-op behind one ``enabled`` check, so a merge
  allocates *zero* derivation objects;
* :mod:`repro.provenance.render` — compact text rendering of SMT
  formulas (``Ψ`` contexts) and IR expressions for reports;
* :mod:`repro.provenance.attribution` — the cost-attribution pass that
  joins each operator's *static predicted* cost (the translation
  validator's bounds) with the *observed* per-operator runtime
  (``RunMetrics.per_operator``) and flags mispredictions;
* :mod:`repro.provenance.explain` — the ``repro explain`` engine: build
  a batch, consolidate it, execute it instrumented, and render the whole
  derivation as a text tree, JSON document or a self-contained HTML
  report.

No merge records: a merged pair's :class:`DerivationTree` is replayed
from the pair's inputs when it is read — ``record.derivation``, or
``ConsolidationReport.derivations`` / ``PatchResult.derivations`` for
every merged pair.

``attribution`` and ``explain`` are loaded lazily (PEP 562): they import
the consolidation and dataflow layers, which themselves import
:mod:`repro.provenance.recorder` — eager imports here would be circular.
"""

from .recorder import (
    NULL_RECORDER,
    DerivationRecorder,
    DerivationTree,
    Entailment,
    Heuristic,
    Rewrite,
    RuleNode,
    derivation_summary,
)
from .render import format_expr, format_formula

__all__ = [
    "DerivationRecorder",
    "DerivationTree",
    "RuleNode",
    "Entailment",
    "Rewrite",
    "Heuristic",
    "NULL_RECORDER",
    "derivation_summary",
    "format_formula",
    "format_expr",
    "OperatorAttribution",
    "attribute_costs",
    "ExplainReport",
    "explain_batch",
    "render_text",
    "render_json",
    "render_html",
]

_LAZY = {
    "OperatorAttribution": "attribution",
    "attribute_costs": "attribution",
    "ExplainReport": "explain",
    "explain_batch": "explain",
    "render_text": "explain",
    "render_json": "explain",
    "render_html": "explain",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
