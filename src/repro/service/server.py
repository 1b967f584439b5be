"""The stdlib HTTP front of the consolidation service (``repro serve``).

A thin JSON layer over :class:`repro.service.registry.QueryRegistry` —
every route body is one registry call, so the offline facade
(:mod:`repro.api`) and the online service cannot drift:

========  =======================  =============================================
method    path                     registry call
========  =======================  =============================================
GET       ``/healthz``             liveness + membership count
GET       ``/metrics``             registry counters (JSON, or Prometheus
                                   text when Accept asks for ``text/plain``)
GET       ``/v1/queries``          :meth:`QueryRegistry.queries`
POST      ``/v1/queries``          :meth:`QueryRegistry.register`
DELETE    ``/v1/queries/<pid>``    :meth:`QueryRegistry.unregister`
GET       ``/v1/plan``             :meth:`QueryRegistry.plan`
POST      ``/v1/run``              :meth:`QueryRegistry.run`
GET       ``/v1/explain``          :meth:`QueryRegistry.explain`
========  =======================  =============================================

Errors travel as ``{"error": <code>, "message": …, "diagnostics": …}``
where ``error`` is the stable code of the corresponding
:mod:`repro.service.errors` exception — the client rebuilds the *same*
exception types the offline facade raises, so callers handle admission
failures identically in-process and over the wire.  Status mapping:
admission 422, duplicates 409, unknown queries 404, other registry
errors 400, everything unexpected 500.

Built on :class:`http.server.ThreadingHTTPServer`: no third-party
dependencies, one daemon thread per connection, registry methods do
their own locking.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..config import ExecutionConfig, ServiceConfig
from ..lang.functions import FunctionTable
from ..telemetry.sinks import prometheus_text
from .errors import (
    AdmissionError,
    DuplicateQueryError,
    RegistryError,
    ServiceError,
    UnknownQueryError,
)
from .registry import QueryRegistry

__all__ = ["ConsolidationServer", "serve"]

_STATUS = {
    AdmissionError: 422,
    DuplicateQueryError: 409,
    UnknownQueryError: 404,
    RegistryError: 400,
    ServiceError: 400,
}


def _status_for(exc: Exception) -> int:
    for kind, status in _STATUS.items():
        if isinstance(exc, kind):
            return status
    return 500


class _Handler(BaseHTTPRequestHandler):
    """One request; the registry lives on the server object."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # -- plumbing ----------------------------------------------------------

    @property
    def registry(self) -> QueryRegistry:
        return self.server.registry  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102 - quiet by default
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _send(self, status: int, doc: dict) -> None:
        payload = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_metrics(self) -> None:
        """``/metrics``: JSON by default, Prometheus text on request.

        A client whose ``Accept`` header mentions ``text/plain`` (what
        Prometheus scrapers send) gets the exposition format rendered by
        :func:`repro.telemetry.sinks.prometheus_text`; everything else
        keeps the original JSON document.  Each counter becomes a
        ``service_``-prefixed Prometheus counter.
        """

        doc = self.registry.metrics_doc()
        accept = self.headers.get("Accept") or ""
        if "text/plain" not in accept:
            self._send(200, doc)
            return
        counters = [
            {"name": f"service_{name}", "labels": {}, "value": value}
            for name, value in sorted(doc.items())
        ]
        text = prometheus_text({"counters": counters, "gauges": [], "histograms": []})
        self._send_text(200, text, "text/plain; version=0.0.4; charset=utf-8")

    def _send_error(self, exc: Exception) -> None:
        if isinstance(exc, ServiceError):
            doc = {"error": exc.code, "message": str(exc)}
            if isinstance(exc, AdmissionError) and exc.diagnostics:
                doc["diagnostics"] = exc.diagnostics
        else:
            doc = {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
        self._send(_status_for(exc), doc)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        try:
            doc = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ServiceError("request body must be a JSON object")
        return doc

    def _plan_doc(self) -> Optional[dict]:
        plan = self.registry.plan()
        return plan.to_dict() if plan is not None else None

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        try:
            if self.path == "/healthz":
                self._send(
                    200, {"status": "ok", "queries": len(self.registry)}
                )
            elif self.path == "/metrics":
                self._send_metrics()
            elif self.path == "/v1/queries":
                self._send(
                    200,
                    {"queries": [q.to_dict() for q in self.registry.queries()]},
                )
            elif self.path == "/v1/plan":
                plan = self._plan_doc()
                if plan is None:
                    raise UnknownQueryError("no queries are registered; no plan")
                self._send(200, plan)
            elif self.path == "/v1/explain":
                self._send(200, self.registry.explain())
            else:
                self._send(404, {"error": "not-found", "message": self.path})
        except Exception as exc:  # noqa: BLE001 - every error becomes JSON
            self._send_error(exc)

    def do_POST(self) -> None:  # noqa: N802
        try:
            if self.path == "/v1/queries":
                body = self._body()
                program = body.get("program")
                if not isinstance(program, str) or not program.strip():
                    raise ServiceError(
                        "POST /v1/queries needs a non-empty 'program' string"
                    )
                entry = self.registry.register(
                    program, tenant=body.get("tenant", "default")
                )
                patch = self.registry.last_patch
                self._send(
                    201,
                    {
                        "query": entry.to_dict(),
                        "plan": self._plan_doc(),
                        "patch": {
                            "action": patch.action,
                            "pair_merges": patch.pair_merges,
                            "fallback": patch.fallback,
                        }
                        if patch is not None
                        else None,
                    },
                )
            elif self.path == "/v1/run":
                body = self._body()
                rows = body.get("rows")
                if not isinstance(rows, list):
                    raise ServiceError("POST /v1/run needs a 'rows' list")
                result = self.registry.run(rows)
                self._send(
                    200,
                    {
                        "buckets": {
                            pid: records
                            for pid, records in sorted(result.buckets.items())
                        },
                        "metrics": {
                            "udf_cost": result.metrics.udf_cost,
                            "io_cost": result.metrics.io_cost,
                            "overhead_cost": result.metrics.overhead_cost,
                            "total_cost": result.metrics.total_cost,
                        },
                    },
                )
            else:
                self._send(404, {"error": "not-found", "message": self.path})
        except Exception as exc:  # noqa: BLE001
            self._send_error(exc)

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            prefix = "/v1/queries/"
            if self.path.startswith(prefix) and len(self.path) > len(prefix):
                pid = self.path[len(prefix):]
                self.registry.unregister(pid)
                self._send(200, {"removed": pid, "plan": self._plan_doc()})
            else:
                self._send(404, {"error": "not-found", "message": self.path})
        except Exception as exc:  # noqa: BLE001
            self._send_error(exc)


class ConsolidationServer(ThreadingHTTPServer):
    """A registry with an HTTP front door.

    ``port=0`` binds an ephemeral port; read the real one from
    ``server.port`` (the smoke harness and tests depend on this).  Without
    a ``registry`` the server builds an in-memory one; a durable service
    passes one built over its journal
    (``QueryRegistry(functions, event_log=path)``, as ``repro serve
    --event-log`` does).
    """

    daemon_threads = True

    def __init__(
        self,
        functions: FunctionTable,
        *,
        config: ExecutionConfig | None = None,
        service: ServiceConfig | None = None,
        registry: QueryRegistry | None = None,
        verbose: bool = False,
    ) -> None:
        # Not ``registry or ...``: a registry with no queries is falsy.
        if registry is None:
            registry = QueryRegistry(functions, config=config, service=service)
        self.registry = registry
        self.verbose = verbose
        svc = service or registry.service
        super().__init__((svc.host, svc.port), _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


def serve(
    functions: FunctionTable,
    *,
    config: ExecutionConfig | None = None,
    service: ServiceConfig | None = None,
    registry: QueryRegistry | None = None,
    verbose: bool = False,
) -> ConsolidationServer:
    """Build a bound (not yet running) server; call ``serve_forever``."""

    return ConsolidationServer(
        functions,
        config=config,
        service=service,
        registry=registry,
        verbose=verbose,
    )
