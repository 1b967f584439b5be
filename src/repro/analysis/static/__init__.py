"""Forward abstract interpretation over the Figure-1 IR.

* :mod:`repro.analysis.static.framework` — the structured fixpoint engine
  (``Seq``/``If``/``While`` with widening) over the interval domain,
* :mod:`repro.analysis.static.values` — intervals, three-valued booleans
  and the non-relational :class:`~repro.analysis.static.values.StaticEnv`,
* :mod:`repro.analysis.static.domains` — the interval/constant domain, the
  only one; definite assignment and notify multiplicity are statement
  facts (:func:`~repro.lang.visitors.walk_assigned`,
  :func:`~repro.lang.visitors.notify_counts`),
* :mod:`repro.analysis.static.costbound` — worst-case cost bounds with
  trip-count inference,
* :mod:`repro.analysis.static.lint` — the UDF linter behind ``repro lint``,
* :mod:`repro.analysis.static.sarif` — SARIF 2.1.0 emission for the
  linter's findings (``repro lint --format sarif``),
* :mod:`repro.analysis.static.validate` — the consolidation translation
  validator of Theorem 1's static half.
"""

from .domains import IntervalConstDomain, widening_thresholds
from .framework import analyze_program, analyze_stmt, loop_invariant_state
from .costbound import (
    constant_step,
    program_cost_upper,
    stmt_cost_upper,
    trip_count_bound,
)
from .lint import Finding, LintReport, lint_program, lint_programs
from .sarif import render_sarif, to_sarif
from .validate import StaticValidation, check_notifications, validate_consolidation
from .values import Interval, StaticEnv

__all__ = [
    "analyze_program",
    "analyze_stmt",
    "loop_invariant_state",
    "Interval",
    "StaticEnv",
    "IntervalConstDomain",
    "widening_thresholds",
    "constant_step",
    "trip_count_bound",
    "stmt_cost_upper",
    "program_cost_upper",
    "Finding",
    "LintReport",
    "lint_program",
    "lint_programs",
    "render_sarif",
    "to_sarif",
    "StaticValidation",
    "check_notifications",
    "validate_consolidation",
]
