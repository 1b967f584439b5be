"""The service's exception vocabulary, shared by both transports.

The offline facade (:mod:`repro.api`), the registry and the HTTP client
all raise the *same* classes: a caller migrating from in-process use to
the service changes how it connects, not how it handles failures.  Each
class carries a stable ``code`` string; the HTTP server puts that code in
every error payload, and :func:`error_for` maps it back to the class on
the client side.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ServiceError",
    "RegistryError",
    "AdmissionError",
    "DuplicateQueryError",
    "UnknownQueryError",
    "error_for",
]


class ServiceError(Exception):
    """Base class for every service-surface failure."""

    code = "service"


class RegistryError(ServiceError):
    """A registry operation could not be applied."""

    code = "registry"


class AdmissionError(RegistryError):
    """A submitted query was rejected by the admission pipeline.

    ``diagnostics`` is a SARIF 2.1.0 document (a plain dict) describing
    every finding that contributed to the rejection — parse errors, lint
    errors, type errors — so tooling on either side of the wire can
    render the rejection without bespoke parsing.
    """

    code = "admission"

    def __init__(self, message: str, diagnostics: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DuplicateQueryError(RegistryError):
    """The pid (or one of its notification ids) is already registered."""

    code = "duplicate-query"


class UnknownQueryError(RegistryError):
    """No registered query has the requested pid."""

    code = "unknown-query"


_BY_CODE = {
    cls.code: cls
    for cls in (
        ServiceError,
        RegistryError,
        AdmissionError,
        DuplicateQueryError,
        UnknownQueryError,
    )
}


def error_for(code: str, message: str, diagnostics: dict[str, Any] | None = None) -> ServiceError:
    """Rebuild the typed exception a server error payload describes."""

    cls = _BY_CODE.get(code, ServiceError)
    if cls is AdmissionError:
        return AdmissionError(message, diagnostics)
    return cls(message)
