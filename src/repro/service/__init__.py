"""repro.service — consolidation as a long-running, multi-tenant service.

The offline pipeline consolidates a batch and exits.  This package keeps
the consolidated plan *alive*: tenants register and unregister Figure-1
UDF queries dynamically over HTTP (or in-process), and the service keeps
one merged program up to date without re-consolidating the world on every
change.

* :mod:`~repro.service.admission` — every submission runs the frontend
  (parse or Python translation), the type checker and the full static
  linter; rejections carry SARIF 2.1.0 diagnostics, the same document
  ``repro lint --format sarif`` emits.
* :mod:`~repro.service.fingerprint` — canonical (alpha-renamed) program
  fingerprints and the order-independent plan key for the plan cache.
* :mod:`~repro.service.registry` — the core :class:`QueryRegistry`: plan
  cache, incremental merge-tree patching
  (:mod:`repro.consolidation.incremental`) with a recorded rebalance when
  grafts make the tree too deep, and the append-only event log
  (:mod:`~repro.service.events`) that makes state replayable on restart.
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — a
  stdlib-only HTTP server (``repro serve``) and a typed client that maps
  server error payloads back to the shared exception vocabulary
  (:mod:`~repro.service.errors`).

Quick start, in-process::

    from repro.service import QueryRegistry
    registry = QueryRegistry(functions)
    registry.register("program q1(row) { notify q1 (row > 10); }")
    result = registry.run(rows)          # buckets per registered pid

Over the wire, durable across restarts (the registry owns the journal;
``repro serve --event-log`` does the same)::

    registry = QueryRegistry(functions, event_log="events.jsonl")
    server = serve(functions, service=ServiceConfig(port=0), registry=registry)
    client = Client(port=server.port)
    client.register(source, tenant="acme")
"""

from importlib import import_module
from typing import Any

from .admission import AdmissionDecision, admit
from .errors import (
    AdmissionError,
    DuplicateQueryError,
    RegistryError,
    ServiceError,
    UnknownQueryError,
    error_for,
)
from .events import Event, EventLog
from .fingerprint import canonicalize, fingerprint, plan_key
from .registry import PlanSnapshot, QueryRegistry, RegisteredQuery

# The HTTP transport loads on first use: it pulls in ``http``, ``ssl``,
# ``email`` and ``socketserver``, which an in-process registry never touches.
_LAZY = dict.fromkeys(
    ["Client", "HealthInfo", "PatchInfo", "PlanInfo", "QueryInfo", "RegisterResult",
     "RunInfo", "UnregisterResult"], "client"
) | {"ConsolidationServer": "server", "serve": "server"}


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)

__all__ = [
    "AdmissionDecision",
    "AdmissionError",
    "Client",
    "ConsolidationServer",
    "DuplicateQueryError",
    "Event",
    "EventLog",
    "HealthInfo",
    "PatchInfo",
    "PlanInfo",
    "PlanSnapshot",
    "QueryInfo",
    "QueryRegistry",
    "RegisteredQuery",
    "RegisterResult",
    "RegistryError",
    "RunInfo",
    "ServiceError",
    "UnknownQueryError",
    "UnregisterResult",
    "admit",
    "canonicalize",
    "error_for",
    "fingerprint",
    "plan_key",
    "serve",
]
