"""``repro explain`` — the EXPLAIN plan for consolidation.

:func:`explain_batch` builds a query batch from one of the evaluation
domains, consolidates the chosen pair with derivation recording on,
executes both the ``whereMany`` baseline and the merged program on an
instrumented dataflow, and joins everything into one
:class:`ExplainReport`:

* the full derivation tree per pair (every calculus rule applied, with
  the entailments, rewrites and heuristic decisions under each node);
* rule frequencies and the ten slowest SMT entailments with their ``Ψ``
  contexts (the optimiser's hotspot profile);
* the cost-attribution table — static predicted vs observed per-record
  cost for the ``whereMany`` / ``whereConsolidated`` operators.

Three renderers share the report: :func:`render_text` (terminal tree),
:func:`render_json` (machine-readable, optionally timing-stripped for
golden tests) and :func:`render_html` (a self-contained single-file
report, no external assets).
"""

from __future__ import annotations

import html as html_mod
import json
from dataclasses import dataclass, field
from typing import Optional

from ..analysis.static import validate_consolidation
from ..config import ExecutionConfig
from ..consolidation import ConsolidationOptions, consolidate_all
from ..naiad.linq import from_collection
from ..telemetry import Telemetry
from .attribution import OperatorAttribution, attribute_costs
from .recorder import DerivationTree, Entailment, RuleNode, _strip_timings

__all__ = [
    "ExplainReport",
    "explain_batch",
    "render_text",
    "render_json",
    "render_html",
]

# Modest sizes: explain is interactive; the paper-scale generators are for
# the figure harnesses.
_DATASET_MAKERS = {
    "weather": lambda ds: ds.generate_weather(cities=60),
    "flight": lambda ds: ds.generate_flights(airlines=60),
    "news": lambda ds: ds.generate_news(articles=300),
    "twitter": lambda ds: ds.generate_twitter(tweets=300),
    "stock": lambda ds: ds.generate_stocks(companies=20, total_daily_rows=4_000),
}


@dataclass
class ExplainReport:
    """Everything ``repro explain`` knows about one consolidated pair."""

    domain: str
    family: str
    n: int
    seed: int
    pair_pids: tuple[str, ...]
    merged_pid: str
    derivations: list[DerivationTree] = field(default_factory=list)
    rule_counts: dict[str, int] = field(default_factory=dict)
    solver_stats: dict = field(default_factory=dict)
    simplify_stats: dict = field(default_factory=dict)
    validation: Optional[dict] = None
    attributions: list[OperatorAttribution] = field(default_factory=list)
    rows: int = 0
    consolidation_seconds: float = 0.0
    udf_cost_many: int = 0
    udf_cost_consolidated: int = 0
    planner: str = "related"
    planner_decisions: list[dict] = field(default_factory=list)
    riders: dict[str, str] = field(default_factory=dict)

    def slowest_entailments(self, count: int = 10, by_time: bool = True):
        """The hotspot list: entailments that reached the solver
        (``source == "smt"``), not those a memo or the store answered.
        ``by_time=False`` orders lexicographically — used by the
        timing-stripped renderings, where wall-clock rank would leak
        nondeterminism into golden files."""

        pool = [
            e for tree in self.derivations for e in tree.entailments() if e.source == "smt"
        ]
        if by_time:
            return sorted(pool, key=lambda e: -e.seconds)[:count]
        return sorted(pool, key=lambda e: (e.kind, e.source, e.psi, e.query))[:count]

    def to_dict(self, include_timings: bool = True) -> dict:
        doc = {
            "domain": self.domain,
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "pair": list(self.pair_pids),
            "merged": self.merged_pid,
            "rows": self.rows,
            "seconds": round(self.consolidation_seconds, 6),
            "rule_counts": self.rule_counts,
            "solver_stats": self.solver_stats,
            "simplify_stats": self.simplify_stats,
            "validation": self.validation,
            "udf_cost": {
                "whereMany": self.udf_cost_many,
                "whereConsolidated": self.udf_cost_consolidated,
            },
            "attributions": [a.to_dict() for a in self.attributions],
            "derivations": [t.to_dict() for t in self.derivations],
            "smt_hotspots": [
                e.to_dict()
                for e in self.slowest_entailments(by_time=include_timings)
            ],
        }
        if self.planner != "related" or self.planner_decisions:
            # Emitted only when the cost-driven planner ran, so default
            # explain documents keep their pre-planner schema.
            doc["planner"] = self.planner
            doc["planner_decisions"] = self.planner_decisions
        if self.riders:
            # An α-copy rides on its representative and has no derivation;
            # emitted only then, so other documents keep their schema.
            doc["riders"] = self.riders
        if not include_timings:
            doc = _strip_timings(doc)
        return doc


def explain_batch(
    domain: str,
    pair: tuple[int, int] = (0, 1),
    family: str = "Mix",
    n: int = 8,
    seed: int = 1,
    rows: Optional[int] = 200,
    options: ConsolidationOptions | None = None,
    dataset=None,
    telemetry=None,
    calibration=None,
) -> ExplainReport:
    """Consolidate one pair with full recording and instrumented execution.

    ``pair`` indexes into the generated batch (``--pair 0,1``); pass a
    prebuilt ``dataset`` to skip generation (tests do, for speed), and a
    live ``telemetry`` to receive the run's metrics (the CLI passes its
    ``--metrics-out`` registry; per-operator stats require a live
    instance, so a disabled one is replaced by a fresh capture).

    A ``calibration`` model (see ``repro calibrate``, or
    ``CalibratedCostModel.uniform()``) routes the pair through the
    cost-driven planner;
    its predicted-vs-observed savings land both on the derivation tree
    (a ``planner`` heuristic entry, rendered in every format) and on
    ``report.planner_decisions``.
    """

    from ..queries import DOMAIN_QUERIES

    if domain not in _DATASET_MAKERS:
        raise ValueError(
            f"unknown domain {domain!r}; choose from {sorted(_DATASET_MAKERS)}"
        )
    if dataset is None:
        from .. import datasets as ds

        dataset = _DATASET_MAKERS[domain](ds)
    module = DOMAIN_QUERIES[domain]
    if family not in module.FAMILY_NAMES:
        raise ValueError(
            f"unknown {domain} family {family!r}; choose from {module.FAMILY_NAMES}"
        )
    batch = module.make_batch(dataset, family, n=n, seed=seed)
    i, j = pair
    if not (0 <= i < len(batch) and 0 <= j < len(batch)) or i == j:
        raise ValueError(f"pair {pair} out of range for a batch of {len(batch)}")
    selected = [batch[i], batch[j]]
    pids = tuple(p.pid for p in selected)

    if telemetry is None or not getattr(telemetry, "enabled", False):
        telemetry = Telemetry()
    cfg = ExecutionConfig(telemetry=telemetry)
    report = consolidate_all(
        selected,
        dataset.functions,
        options=options,
        config=cfg.evolve(provenance=True, calibration=calibration),
    )

    validation = validate_consolidation(
        selected, report.program, dataset.functions
    )

    # Instrumented execution: per-operator stats are only collected with a
    # live telemetry (the NULL path skips the bookkeeping entirely).
    records = dataset.rows if rows is None else dataset.rows[: max(rows, 1)]
    many_run = (
        from_collection(records, config=cfg)
        .where_many(selected, dataset.functions)
        .run(cfg)
    )
    cons_run = (
        from_collection(records, config=cfg)
        .where_consolidated(report.program, list(pids), dataset.functions)
        .run(cfg)
    )

    predicted = {
        f"whereMany[{len(selected)}]": validation.originals_cost_upper,
        f"whereConsolidated[{len(pids)}]": validation.merged_cost_upper,
    }
    per_operator = dict(many_run.metrics.per_operator)
    per_operator.update(cons_run.metrics.per_operator)
    attributions = attribute_costs(per_operator, predicted, telemetry=telemetry)

    rule_counts: dict[str, int] = {}
    for tree in report.derivations:
        for rule, count in tree.rule_counts().items():
            rule_counts[rule] = rule_counts.get(rule, 0) + count

    return ExplainReport(
        domain=domain,
        family=family,
        n=n,
        seed=seed,
        pair_pids=pids,
        merged_pid=report.program.pid,
        derivations=list(report.derivations),
        rule_counts=rule_counts,
        solver_stats=dict(report.solver_stats),
        simplify_stats=dict(report.simplify_stats),
        validation=validation.to_dict(),
        attributions=attributions,
        rows=len(records),
        consolidation_seconds=report.duration,
        udf_cost_many=many_run.metrics.udf_cost,
        udf_cost_consolidated=cons_run.metrics.udf_cost,
        planner=report.planner,
        planner_decisions=list(report.planner_decisions),
        riders=report.riders,
    )


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _goal(e: Entailment) -> str:
    """The query, with the store bindings it was encoded through."""

    return f"{e.query} where {e.store}" if e.store else e.query


def _question(e: Entailment) -> str:
    return f"Ψ = {e.psi or 'true'} ⊨ {_goal(e)}"


def _node_lines(node: RuleNode, prefix: str, include_timings: bool) -> list[str]:
    lines: list[str] = []
    label = node.rule if not node.detail else f"{node.rule} — {node.detail}"
    lines.append(f"{prefix}{label}")
    pad = prefix.replace("├─ ", "│  ").replace("└─ ", "   ")
    for e in node.entailments:
        timing = f" [{e.seconds * 1000:.2f}ms]" if include_timings else ""
        lines.append(f"{pad}  ⊢ {e.kind} ({e.source}{timing}): {_question(e)} → {e.verdict}")
    for r in node.rewrites:
        lines.append(
            f"{pad}  ↦ {r.site}: {r.before} → {r.after} (Δcost {r.cost_delta:+d})"
        )
    for h in node.heuristics:
        verdict = "accept" if h.accepted else "reject"
        lines.append(f"{pad}  ? {h.kind} [{verdict}]: {h.detail}")
    for idx, child in enumerate(node.children):
        last = idx == len(node.children) - 1
        branch = "└─ " if last else "├─ "
        lines.extend(_node_lines(child, pad + branch, include_timings))
    return lines


def render_text(report: ExplainReport, include_timings: bool = True) -> str:
    """The terminal rendering: derivation trees plus the summary tables."""

    out: list[str] = []
    out.append(
        f"explain {report.domain}/{report.family} pair {'+'.join(report.pair_pids)}"
        f" → {report.merged_pid}"
    )
    if include_timings:
        out.append(f"consolidation time: {report.consolidation_seconds * 1000:.1f}ms")
    out.append("")
    if report.riders:
        out.append("riders (α-copies; no calculus run):")
        for rider, representative in report.riders.items():
            out.append(f"  {rider} rides on {representative}")
        out.append("")
    out.append("rule applications:")
    for rule, count in sorted(report.rule_counts.items(), key=lambda kv: (-kv[1], kv[0])):
        out.append(f"  {rule:<10} {count}")
    out.append("")
    if report.planner_decisions:
        out.append(f"planner ({report.planner}):")
        for d in report.planner_decisions:
            action = "merge" if d["merged"] else "skip "
            flags = " MISPREDICTED" if d["mispredicted"] else ""
            if d["merged"] and not d["used_smt"]:
                flags += " (no smt)"
            out.append(
                f"  {action} {d['left']} ⊗ {d['right']}: "
                f"predicted {d['predicted_savings_seconds']:.3e}s, "
                f"observed {d['observed_savings_seconds']:.3e}s{flags}"
            )
        out.append("")
    for tree in report.derivations:
        out.append(f"derivation {tree.left} ⊗ {tree.right} → {tree.merged}")
        out.extend(_node_lines(tree.root, "  ", include_timings))
        out.append("")
    hotspots = report.slowest_entailments(by_time=include_timings)
    if hotspots:
        out.append("slowest SMT entailments:")
        for e in hotspots:
            timing = f"{e.seconds * 1000:8.3f}ms  " if include_timings else ""
            out.append(f"  {timing}{e.kind} ({e.source}) {_question(e)} → {e.verdict}")
        out.append("")
    out.append("cost attribution (static bound vs observed per record):")
    for a in report.attributions:
        predicted = "∞" if a.predicted_per_record is None else f"{a.predicted_per_record:.0f}"
        observed = "-" if a.observed_per_record is None else f"{a.observed_per_record:.1f}"
        ratio = "-" if a.ratio is None else f"{a.ratio:.2f}x"
        out.append(
            f"  {a.operator:<28} predicted {predicted:>6}  observed {observed:>8}"
            f"  ratio {ratio:>7}  [{a.flag}]"
        )
    out.append(
        f"  udf cost: whereMany {report.udf_cost_many} vs "
        f"whereConsolidated {report.udf_cost_consolidated} over {report.rows} rows"
    )
    return "\n".join(out)


def render_json(report: ExplainReport, include_timings: bool = True) -> str:
    return json.dumps(report.to_dict(include_timings=include_timings), indent=2)


# ---------------------------------------------------------------------------
# HTML rendering (self-contained: inline CSS, zero external assets)
# ---------------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem auto;
       max-width: 70rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #ccd; padding: .25rem .6rem; text-align: left;
         font-size: .85rem; }
th { background: #eef; }
ul.tree { list-style: none; padding-left: 1.2rem; border-left: 1px dotted #aab; }
ul.tree > li { margin: .15rem 0; font-size: .85rem; }
.rule { font-weight: 600; color: #16325c; }
.detail { color: #555; }
.event { font-family: ui-monospace, monospace; font-size: .78rem; color: #333;
         display: block; margin-left: .6rem; }
.verdict-true { color: #0a7d38; } .verdict-false { color: #b3261e; }
.flag-ok { color: #0a7d38; } .flag-loose-bound { color: #b25d00; }
.flag-bound-violated { color: #b3261e; font-weight: 600; }
.flag-unbounded { color: #666; }
code { background: #f2f2f8; padding: 0 .2rem; }
"""


def _esc(text: str) -> str:
    return html_mod.escape(str(text), quote=True)


def _node_html(node: RuleNode) -> str:
    parts = ["<li>"]
    parts.append(f'<span class="rule">{_esc(node.rule)}</span>')
    if node.detail:
        parts.append(f' <span class="detail">{_esc(node.detail)}</span>')
    for e in node.entailments:
        cls = "verdict-true" if e.verdict else "verdict-false"
        parts.append(
            f'<span class="event">⊢ {_esc(e.kind)} ({_esc(e.source)}, '
            f"{e.seconds * 1000:.2f}ms): {_esc(_question(e))} → "
            f'<span class="{cls}">{e.verdict}</span></span>'
        )
    for r in node.rewrites:
        parts.append(
            f'<span class="event">↦ {_esc(r.site)}: <code>{_esc(r.before)}</code>'
            f" → <code>{_esc(r.after)}</code> (Δcost {r.cost_delta:+d})</span>"
        )
    for h in node.heuristics:
        verdict = "accept" if h.accepted else "reject"
        parts.append(
            f'<span class="event">? {_esc(h.kind)} [{verdict}]: {_esc(h.detail)}</span>'
        )
    if node.children:
        parts.append('<ul class="tree">')
        parts.extend(_node_html(child) for child in node.children)
        parts.append("</ul>")
    parts.append("</li>")
    return "".join(parts)


def render_html(report: ExplainReport) -> str:
    """One self-contained HTML document (saved as the CI artifact)."""

    rule_rows = "".join(
        f"<tr><td>{_esc(rule)}</td><td>{count}</td></tr>"
        for rule, count in sorted(
            report.rule_counts.items(), key=lambda kv: (-kv[1], kv[0])
        )
    )
    hotspot_rows = "".join(
        f"<tr><td>{e.seconds * 1000:.3f}</td><td>{_esc(e.kind)}</td>"
        f"<td>{_esc(e.source)}</td><td><code>{_esc(e.psi or 'true')}</code></td>"
        f"<td><code>{_esc(_goal(e))}</code></td><td>{e.verdict}</td></tr>"
        for e in report.slowest_entailments()
    )
    attribution_rows = "".join(
        "<tr>"
        f"<td>{_esc(a.operator)}</td>"
        f"<td>{'∞' if a.predicted_per_record is None else f'{a.predicted_per_record:.0f}'}</td>"
        f"<td>{'-' if a.observed_per_record is None else f'{a.observed_per_record:.1f}'}</td>"
        f"<td>{'-' if a.ratio is None else f'{a.ratio:.2f}×'}</td>"
        f"<td>{a.records_in}</td>"
        f'<td class="flag-{_esc(a.flag)}">{_esc(a.flag)}</td>'
        "</tr>"
        for a in report.attributions
    )
    trees = "".join(
        f"<h3>{_esc(tree.left)} ⊗ {_esc(tree.right)} → {_esc(tree.merged)} "
        f"({tree.seconds * 1000:.1f}ms)</h3>"
        f'<ul class="tree">{_node_html(tree.root)}</ul>'
        for tree in report.derivations
    )
    validation = report.validation or {}
    stats = report.simplify_stats
    riders = "".join(
        f"<p>{_esc(rider)} rides on {_esc(rep)} (α-copy; no calculus run)</p>"
        for rider, rep in report.riders.items()
    )
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>repro explain — {_esc(report.domain)}/{_esc(report.family)}</title>
<style>{_CSS}</style></head><body>
<h1>Consolidation explain plan — {_esc(report.domain)}/{_esc(report.family)},
pair {_esc('+'.join(report.pair_pids))} → <code>{_esc(report.merged_pid)}</code></h1>
<p>batch n={report.n}, seed={report.seed}; consolidation took
{report.consolidation_seconds * 1000:.1f}ms; executed over {report.rows} rows.
UDF cost {report.udf_cost_many} (whereMany) vs
{report.udf_cost_consolidated} (whereConsolidated).
Entailment queries: {stats.get("entail_queries", 0)}
(SMT {stats.get("smt_queries", 0)}, memo {stats.get("memo_hits", 0)},
folded through the store {stats.get("precheck_skips", 0)}).
Static validation: notify <b>{_esc(validation.get("notify", "-"))}</b>,
cost <b>{_esc(validation.get("cost", "-"))}</b>.</p>
<h2>Rule applications</h2>
<table><tr><th>rule</th><th>count</th></tr>{rule_rows}</table>
<h2>Derivations</h2>
{riders}{trees}
<h2>Slowest SMT entailments</h2>
<table><tr><th>ms</th><th>kind</th><th>source</th><th>Ψ context</th>
<th>query</th><th>verdict</th></tr>{hotspot_rows}</table>
<h2>Cost attribution</h2>
<table><tr><th>operator</th><th>predicted/record</th><th>observed/record</th>
<th>ratio</th><th>records</th><th>flag</th></tr>{attribution_rows}</table>
</body></html>
"""
