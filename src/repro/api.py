"""repro.api — the stable five-verb facade over the whole pipeline.

Everything the paper's workflow needs is one of five verbs, usable
in-process today and over HTTP tomorrow without changing error handling:

``consolidate``
    Merge a batch of Figure-1 programs into one (divide-and-conquer),
    returning the full :class:`~repro.consolidation.ConsolidationReport`.
``run``
    Execute a batch over rows — consolidated (the paper's
    ``whereConsolidated``) or un-consolidated (``whereMany``) — returning
    notification buckets and cost metrics.
``register`` / ``unregister``
    Mutate a live :class:`~repro.service.QueryRegistry`: admission,
    plan-cache probe, incremental merge-tree patch, journalled event.
    These are the *same* calls the HTTP server makes, so in-process and
    remote callers see identical semantics and exception types
    (:mod:`repro.service.errors`).
``explain``
    One JSON-able account of how a plan came to be — works on a live
    registry (the service's ``/v1/explain``) or on a plain batch of
    programs (consolidates it and replays each merge's derivation).

This module is a *facade*: no logic lives here, only stable signatures
with full type hints.  ``__all__`` is a frozen tuple and
``tests/test_api_surface.py`` pins every signature — changing this
surface is an explicit, reviewed act.
"""

from __future__ import annotations

from typing import Any, Final, Optional, Sequence, Union

from .config import ExecutionConfig
from .consolidation import ConsolidationOptions, ConsolidationReport, consolidate_all
from .lang.ast import Program
from .lang.functions import FunctionTable
from .naiad.dataflow import RunResult
from .naiad.linq import run_where_consolidated, run_where_many
from .provenance import derivation_summary
from .service.registry import QueryRegistry, RegisteredQuery

__all__: Final = ("consolidate", "explain", "register", "run", "unregister")


def consolidate(
    programs: Sequence[Program],
    functions: Optional[FunctionTable] = None,
    *,
    options: Optional[ConsolidationOptions] = None,
    config: Optional[ExecutionConfig] = None,
) -> ConsolidationReport:
    """Merge ``programs`` into one consolidated program.

    The report carries the merged program, the degradation ladder and
    per-pair evidence — validation certificates and derivations, each
    computed when read.  ``functions`` defaults to an empty table.
    """

    table = FunctionTable() if functions is None else functions
    return consolidate_all(list(programs), table, options=options, config=config)


def run(
    rows: Sequence[Any],
    programs: Sequence[Program],
    functions: Optional[FunctionTable] = None,
    *,
    consolidated: bool = True,
    options: Optional[ConsolidationOptions] = None,
    config: Optional[ExecutionConfig] = None,
) -> RunResult:
    """Execute ``programs`` over ``rows``; buckets keyed by program pid.

    ``consolidated=True`` (the paper's pitch) merges the batch first and
    runs the single ``whereConsolidated`` operator; ``False`` runs the
    un-merged ``whereMany`` baseline.  Both return the same
    :class:`~repro.naiad.dataflow.RunResult` shape, so equivalence checks
    are one ``==`` on ``result.buckets``.
    """

    if consolidated:
        return run_where_consolidated(rows, programs, functions, options, config)[0]
    return run_where_many(rows, programs, functions, config)


def register(
    registry: QueryRegistry,
    query: Union[Program, str],
    *,
    tenant: str = "default",
) -> RegisteredQuery:
    """Admit and register one query on a live registry.

    ``query`` may be a :class:`~repro.lang.ast.Program`, concrete
    Figure-1 syntax, or restricted-Python source (``def notify(row): …``).
    Raises :class:`~repro.service.errors.AdmissionError` (with SARIF
    diagnostics), :class:`~repro.service.errors.DuplicateQueryError` or
    :class:`~repro.service.errors.RegistryError` — the same types the
    HTTP client raises.
    """

    return registry.register(query, tenant=tenant)


def unregister(registry: QueryRegistry, pid: str) -> None:
    """Remove one registered query, patching the plan incrementally."""

    registry.unregister(pid)


def explain(
    target: Union[QueryRegistry, Sequence[Program]],
    functions: Optional[FunctionTable] = None,
    *,
    options: Optional[ConsolidationOptions] = None,
    config: Optional[ExecutionConfig] = None,
) -> dict:
    """How the consolidated plan came to be, as one JSON-able dict.

    A live :class:`~repro.service.QueryRegistry` explains itself — tree
    shape, last patch, plan-cache stats, counters.  A plain batch of
    programs is consolidated on the spot, and the dict summarises the
    merges' derivations, replayed as they are read (rule counts,
    entailments, rewrites, solver time).
    """

    if isinstance(target, QueryRegistry):
        return target.explain()
    report = consolidate(target, functions, options=options, config=config)
    return {
        "queries": len(list(target)),
        "merged_pid": report.program.pid,
        "pair_consolidations": report.pair_consolidations,
        "skipped_pairs": len(report.skipped_pairs),
        "derivations": derivation_summary(report.derivations),
    }
