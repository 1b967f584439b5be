"""Plain-text rendering of experiment results (tables and ASCII bars)."""

from __future__ import annotations

from typing import Sequence

from .figure10 import Figure10Report
from .figure9 import Figure9Report
from .harness import ExperimentResult

__all__ = ["format_table", "render_figure9", "render_figure10"]


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None) -> str:
    """Render dict rows as an aligned text table."""

    if not rows:
        return "(no rows)"
    columns = list(columns or rows[0].keys())
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    rule = "  ".join("-" * widths[c] for c in columns)
    lines = [header, rule]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _bar(value: float, scale: float = 2.0, cap: int = 50) -> str:
    return "#" * min(cap, max(1, round(value * scale)))


def render_figure9(report: Figure9Report) -> str:
    """A textual Figure 9: one UDF/Total bar pair per experiment.

    Beside each cost-unit speedup stands its wall-clock twin (the Total one
    charges consolidation to the merged side), and beside the UDF line the
    batch's distinct UDFs (α-classes) out of its size.
    """

    lines = [
        "Figure 9 — speedup of whereConsolidated over whereMany "
        "(cost units; wall clock with consolidation charged)",
        "",
    ]
    current_domain = None
    for r in report.results:
        if r.domain != current_domain:
            current_domain = r.domain
            lines.append(f"[{r.domain}]")
        distinct = f"{r.distinct_udfs}/{r.n_udfs} distinct"
        lines.append(
            f"  {r.family:<4} UDF   {r.udf_speedup:6.2f}x  wall {r.udf_speedup_wall:6.2f}x"
            f"  {distinct:<14} {_bar(r.udf_speedup)}"
        )
        lines.append(
            f"       Total {r.total_speedup:6.2f}x  wall {r.total_speedup_wall:6.2f}x"
            f"  {'':<14} {_bar(r.total_speedup)}"
        )
    agg = report.aggregates()
    lines += [
        "",
        (
            f"UDF speedup   : {agg['udf_min']:.1f}x .. {agg['udf_max']:.1f}x "
            f"(avg {agg['udf_avg']:.1f}x)   [paper: 2.6x .. 24.2x, avg 8.4x]"
        ),
        (
            f"Total speedup : {agg['total_min']:.1f}x .. {agg['total_max']:.1f}x "
            f"(avg {agg['total_avg']:.1f}x)   [paper: 1.4x .. 23.1x, avg 6.0x]"
        ),
        (
            f"Total (wall)  : {agg['total_wall_min']:.2f}x .. {agg['total_wall_max']:.2f}x, "
            f"{agg['total_wall_paying']} of {len(report.results)} batches >= 1x "
            f"with consolidation charged"
        ),
        (
            f"Consolidation : avg {agg['consolidation_avg_s']:.2f}s per batch, "
            f"{agg['consolidation_frac_avg'] * 100:.1f}% of total "
            f"[paper: ~0.3s, ~0.4%]"
        ),
        (
            f"Distinct UDFs : {agg['distinct_udfs']} of {agg['udfs']} "
            f"(the rest are α-copies that ride on their twin)"
        ),
    ]
    return "\n".join(lines)


def render_figure10(report: Figure10Report) -> str:
    """A textual Figure 10: the five series against the number of UDFs."""

    rows = [
        {
            "n_udfs": p.n_udfs,
            "whereMany_udf": p.many_udf_cost,
            "whereMany_total": p.many_total_cost,
            "whereCons_udf": p.cons_udf_cost,
            "whereCons_total": p.cons_total_cost,
            "consolidation_s": round(p.consolidation_seconds, 3),
        }
        for p in report.points
    ]
    growth = report.growth_ratios()
    footer = (
        f"\nn grew {growth['n_ratio']:.0f}x: whereMany total grew "
        f"{growth['many_total_growth']:.1f}x (paper: ~linear), "
        f"whereConsolidated total grew {growth['cons_total_growth']:.1f}x "
        f"(paper: roughly constant)"
    )
    return (
        "Figure 10 — scalability with the number of UDFs (News mixes)\n\n"
        + format_table(rows)
        + footer
    )
