"""Telemetry sinks: where snapshots go.

A sink is anything with ``export(snapshot: dict) -> None``, where the
snapshot is what :meth:`repro.telemetry.core.Telemetry.snapshot` returns
(``{"metrics": {...}, "spans": [...]}``).  Three implementations:

* :class:`InMemorySink` — keeps snapshots in a list (tests, notebooks);
* :class:`JsonlFileSink` — appends one JSON document per line, the format
  the CLI's ``--metrics-out`` artifact builds on (EXPERIMENTS.md documents it);
* :class:`PrometheusTextSink` — renders the metrics half in the
  Prometheus text exposition format (version 0.0.4), so an operator can
  point a node-exporter-style textfile collector at the output.

:func:`prometheus_text` is the pure renderer, usable without a sink.
"""

from __future__ import annotations

import json
from typing import Protocol, runtime_checkable

__all__ = [
    "TelemetrySink",
    "InMemorySink",
    "JsonlFileSink",
    "PrometheusTextSink",
    "prometheus_text",
]


@runtime_checkable
class TelemetrySink(Protocol):
    def export(self, snapshot: dict) -> None: ...


class InMemorySink:
    """Accumulates snapshots in memory (``sink.exports``)."""

    def __init__(self) -> None:
        self.exports: list[dict] = []

    def export(self, snapshot: dict) -> None:
        self.exports.append(snapshot)


class JsonlFileSink:
    """Appends each snapshot as one line of JSON to ``path``."""

    def __init__(self, path) -> None:
        self.path = path

    def export(self, snapshot: dict) -> None:
        with open(self.path, "a") as handle:
            handle.write(json.dumps(snapshot, sort_keys=True) + "\n")


class PrometheusTextSink:
    """Overwrites ``path`` with the text exposition of the latest snapshot."""

    def __init__(self, path) -> None:
        self.path = path

    def export(self, snapshot: dict) -> None:
        with open(self.path, "w") as handle:
            handle.write(prometheus_text(snapshot.get("metrics", snapshot)))


# ---------------------------------------------------------------------------
# Prometheus text exposition (the subset the metric model needs)
# ---------------------------------------------------------------------------

# Help strings for every series the repository emits, keyed by family name.
# Unknown families (ad-hoc test metrics, future additions) fall back to a
# generated line so every family still carries mandatory HELP/TYPE metadata.
HELP_TEXTS = {
    "compile_cache_hits_total": "Compiled-backend translation cache hits.",
    "compile_cache_misses_total": "Compiled-backend translation cache misses.",
    "compile_fallbacks_total": "Programs that fell back to the interpreter backend.",
    "compile_seconds": "Wall time spent translating programs to closures.",
    "consolidation_batches_total": "Divide-and-conquer consolidation batches run.",
    "consolidation_declined_pairs_total": "Pairs sharing no work, composed with no calculus run.",
    "consolidation_entail_queries": "Semantic entailment questions asked of the context.",
    "consolidation_memo_hit_rate": "Fraction of entailment queries answered by the memo.",
    "consolidation_memo_hits": "Entailment queries answered by the (psi, store reads, e) memo.",
    "consolidation_pair_seconds": "Wall time per pair consolidation.",
    "consolidation_pairs_total": "Pair consolidations performed (declined pairs excluded).",
    "consolidation_precheck_skips": "Entailments whose goal folded to a constant through the store.",
    "consolidation_rule_applications_total": "Calculus rule applications, by rule.",
    "consolidation_seconds_total": "Total wall time spent consolidating batches.",
    "consolidation_skipped_pairs_total": "Pairs kept unmerged after a mid-batch failure.",
    "consolidation_smt_queries": "Entailment queries that reached the SMT solver.",
    "dataflow_operator_records_in_total": "Records entering each operator.",
    "dataflow_operator_records_out_total": "Records leaving each operator.",
    "dataflow_operator_seconds_total": "Wall time spent inside each operator.",
    "dataflow_operator_udf_cost_total": "Figure-2 UDF cost units charged per operator.",
    "dataflow_records_total": "Records ingested by dataflow runs.",
    "dataflow_runs_total": "Dataflow graph executions.",
    "dataflow_udf_cost_total": "Figure-2 UDF cost units across all runs.",
    "dataflow_wall_seconds_total": "Wall time of dataflow runs.",
    "provenance_attributed_operators": "Operators joined in the last cost-attribution pass.",
    "provenance_mispredicted_operators_total": "Operators whose static cost bound was violated or loose.",
    "provenance_operator_cost_ratio": "Static predicted / observed per-record cost, by operator.",
    "smt_cache_hits": "SMT validity checks answered from the formula cache.",
    "smt_check_seconds": "SMT validity check latency.",
    "smt_checks": "SMT validity checks issued.",
    "smt_forced_unsat": "SMT checks closed on a level-0 theory conflict (no core minimisation).",
    "smt_literal_hits": "SMT checks answered 'sat' as one non-constant theory literal (no search).",
    "smt_literals_asserted": "Theory literals pushed onto the solver's assertion stack.",
    "smt_literals_reused": "Theory literals a check found already asserted (shared prefix).",
    "smt_sat_calls": "Underlying SAT search invocations.",
    "smt_theory_rounds": "Theory-propagation rounds across all checks.",
    "smt_unknowns": "SMT checks that returned unknown.",
    "smt_witness_hits": "SMT checks answered 'sat' by a remembered witness (no search).",
}


def _escape_label_value(value: str) -> str:
    r"""Escape one label value: ``\`` -> ``\\``, ``"`` -> ``\"``, LF -> ``\n``.

    Backslashes are escaped first so the backslashes *introduced* by the
    quote/newline replacements are not doubled again.
    """

    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    r"""Escape HELP text: only ``\`` and newline (quotes stay literal).

    The exposition format gives HELP lines a *different* escaping rule
    from label values — escaping quotes here would corrupt the help text.
    """

    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _labels(labels: dict, extra: tuple = ()) -> str:
    items = [*sorted(labels.items()), *extra]
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def _num(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _help_for(name: str) -> str:
    return HELP_TEXTS.get(name, f"repro metric {name}.")


def prometheus_text(metrics_snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as exposition text.

    Families are emitted in name order, each headed by its ``# HELP`` and
    ``# TYPE`` lines (known families get curated help text, the rest a
    generated fallback); histogram buckets are cumulative with the
    mandatory ``+Inf`` bucket and ``_sum`` / ``_count`` series, exactly as
    Prometheus expects.  Label values and HELP text use their distinct
    spec escapings (see :func:`_escape_label_value` / :func:`_escape_help`).
    """

    families: dict[str, tuple[str, list]] = {}
    for kind_key, kind in (("counters", "counter"), ("gauges", "gauge"), ("histograms", "histogram")):
        for metric in metrics_snapshot.get(kind_key, []):
            families.setdefault(metric["name"], (kind, []))[1].append(metric)

    lines: list[str] = []
    for name in sorted(families):
        kind, metrics = families[name]
        lines.append(f"# HELP {name} {_escape_help(_help_for(name))}")
        lines.append(f"# TYPE {name} {kind}")
        for metric in metrics:
            labels = metric["labels"]
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{_labels(labels)} {_num(metric['value'])}")
            else:
                for le, cumulative in metric["buckets"]:
                    le_str = "+Inf" if le == "+Inf" else _num(le)
                    lines.append(
                        f"{name}_bucket{_labels(labels, (('le', le_str),))} {cumulative}"
                    )
                lines.append(f"{name}_sum{_labels(labels)} {_num(metric['sum'])}")
                lines.append(f"{name}_count{_labels(labels)} {metric['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
