"""SARIF 2.1.0 emission for the static linter.

``repro lint --format sarif`` turns a batch of :class:`LintReport` objects
into one Static Analysis Results Interchange Format document so the
findings can be uploaded to code-scanning UIs (GitHub, VS Code SARIF
viewers) without a bespoke adapter.  The mapping is deliberately small:

* one ``run`` for the whole invocation, tool driver ``repro-lint``;
* one ``reportingDescriptor`` (rule) per distinct finding rule id;
* one ``result`` per finding, with the program pid carried as a logical
  location (UDFs are generated or parsed from argv, so there is no
  physical file/region to point at) and the offending snippet, when the
  pass recorded one, appended to the message.

Severity mapping: linter ``error`` → SARIF ``error``, ``warning`` →
``warning``, anything else (an informational finding) → ``note``.
"""

from __future__ import annotations

import json
from typing import Sequence

from .lint import Finding, LintReport

__all__ = ["SARIF_VERSION", "to_sarif", "render_sarif"]

SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {"error": "error", "warning": "warning"}


def _level(finding: Finding) -> str:
    return _LEVELS.get(finding.severity, "note")


def _message(finding: Finding) -> str:
    if finding.snippet:
        return f"{finding.message} [{finding.snippet}]"
    return finding.message


def _result(finding: Finding) -> dict[str, object]:
    return {
        "ruleId": finding.rule,
        "level": _level(finding),
        "message": {"text": _message(finding)},
        "locations": [
            {
                "logicalLocations": [
                    {"name": finding.program, "kind": "function"}
                ]
            }
        ],
    }


def to_sarif(reports: Sequence[LintReport]) -> dict[str, object]:
    """Build one SARIF 2.1.0 document from every report's findings."""

    findings = [f for report in reports for f in report.findings]
    rules = sorted({f.rule for f in findings})
    driver: dict[str, object] = {
        "name": "repro-lint",
        "informationUri": "https://github.com/",
        "rules": [
            {
                "id": rule,
                "shortDescription": {"text": rule.replace("-", " ")},
            }
            for rule in rules
        ],
    }
    return {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": [_result(f) for f in findings],
            }
        ],
    }


def render_sarif(reports: Sequence[LintReport]) -> str:
    """``to_sarif`` serialised the way ``repro lint`` prints it."""

    return json.dumps(to_sarif(reports), indent=2, sort_keys=True)
