"""The admission pipeline: every query earns its way into the registry.

A tenant submits a query as one of

* a :class:`~repro.lang.ast.Program` (in-process callers),
* concrete Figure-1 syntax (``program q1(row) { … }``), or
* restricted-Python source (``def notify(row): …``), translated by the
  existing frontend.

Admission then runs, in order: parsing/translation, the query-id check
(no ``.``: see :func:`_dotted_pid`) and the full static linter
(:mod:`repro.analysis.static.lint`, whose type pass reports once each
error the frontend type checker would raise).  Any *error*-severity finding rejects
the query with an :class:`~repro.service.errors.AdmissionError`
whose ``diagnostics`` is the same SARIF 2.1.0 document ``repro lint
--format sarif`` emits — one vocabulary for offline linting and online
rejection.  Warnings are admitted (the registry's policy knob
``ServiceConfig.admit_warnings`` can tighten this) but always travel on
the decision so callers can log them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..analysis.static import Finding, LintReport, lint_program, to_sarif
from ..frontend import TranslationError, translate_source
from ..lang.ast import Program
from ..lang.functions import FunctionTable
from ..lang.parser import ParseError, parse_program
from .errors import AdmissionError

__all__ = ["AdmissionDecision", "admit"]


@dataclass(frozen=True)
class AdmissionDecision:
    """The admitted program plus everything the pipeline found."""

    program: Program
    findings: tuple[Finding, ...] = ()

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")

    def diagnostics(self) -> dict[str, Any]:
        """The findings as a SARIF 2.1.0 document (a plain dict)."""

        return _sarif(self.program.pid, self.findings)


def _sarif(pid: str, findings: Iterable[Finding]) -> dict[str, Any]:
    report = LintReport(program=pid, findings=tuple(findings))
    doc: dict[str, Any] = json.loads(json.dumps(to_sarif([report])))
    return doc


def _reject(pid: str, findings: Sequence[Finding]) -> AdmissionError:
    errors = [f for f in findings if f.severity == "error"]
    summary = "; ".join(f"{f.rule}: {f.message}" for f in errors[:3])
    if len(errors) > 3:
        summary += f" (+{len(errors) - 3} more)"
    return AdmissionError(
        f"query {pid!r} rejected by admission: {summary}",
        diagnostics=_sarif(pid, findings),
    )


def _parse(source: str, functions: FunctionTable, pid: str | None) -> Program:
    """Concrete Figure-1 syntax or restricted Python, by inspection."""

    text = source.lstrip()
    if text.startswith("def "):
        try:
            return translate_source(source, pid or "q", functions=functions)
        except (TranslationError, SyntaxError) as exc:
            raise AdmissionError(
                f"query {pid or 'q'!r} rejected by admission: "
                f"translation failed: {exc}",
                diagnostics=_sarif(
                    pid or "q",
                    [
                        Finding(
                            rule="translation-error",
                            severity="error",
                            message=str(exc),
                            program=pid or "q",
                        )
                    ],
                ),
            ) from exc
    try:
        return parse_program(source)
    except ParseError as exc:
        raise AdmissionError(
            f"query {pid or '?'!r} rejected by admission: parse error: {exc}",
            diagnostics=_sarif(
                pid or "?",
                [
                    Finding(
                        rule="parse-error",
                        severity="error",
                        message=str(exc),
                        program=pid or "?",
                    )
                ],
            ),
        ) from exc


def _dotted_pid(pid: str) -> Finding:
    """Why a query id may not contain ``.``.

    Consolidation makes the locals of two queries disjoint by qualifying
    each local ``x`` of query ``p`` with its id, and a plan prints it as
    ``p.x``.  That separates any two ids but a dotted one and its dotted
    prefix, and such a pair would silently stay sequential at merge time
    (:meth:`Consolidator.consolidate` refuses it).
    """

    head, _, tail = pid.partition(".")
    return Finding(
        rule="dotted-pid",
        severity="error",
        message=(
            f"query id {pid!r} contains '.': locals print as '<id>.<local>', so "
            f"query {head!r}'s local '{tail}.x' and query {pid!r}'s local 'x' would both "
            f"become '{pid}.x' and the two could never be merged; use an id without dots"
        ),
        program=pid,
    )


def admit(
    query: Program | str,
    functions: FunctionTable,
    *,
    pid: str | None = None,
    admit_warnings: bool = True,
) -> AdmissionDecision:
    """Validate one submitted query; raises :class:`AdmissionError`.

    Returns the parsed/translated program together with every lint
    finding.  ``admit_warnings=False`` hardens the policy: a warning then
    rejects just like an error.
    """

    program = query if isinstance(query, Program) else _parse(query, functions, pid)

    findings: list[Finding] = []
    if "." in program.pid:
        findings.append(_dotted_pid(program.pid))
    findings.extend(lint_program(program, functions).findings)

    rejects = [f for f in findings if f.severity == "error"]
    if not admit_warnings:
        rejects += [f for f in findings if f.severity == "warning"]
    if rejects:
        raise _reject(program.pid, findings)
    return AdmissionDecision(program=program, findings=tuple(findings))
