"""A UDF linter built on the abstract-interpretation framework and the
statement facts of :mod:`repro.lang.visitors`.

Rules (rule id → severity):

* ``use-before-def`` (error) — a local may be read before any path has
  assigned it (:func:`~repro.lang.visitors.walk_assigned`).
* ``type-error`` / ``non-bool-guard`` / ``non-bool-notify`` (error) —
  sort violations; branch/loop guards and notify payloads must be boolean.
* ``unknown-function`` (error) — a ``Call`` targets a function missing
  from the supplied :class:`~repro.lang.functions.FunctionTable`; exactly
  the condition that makes :mod:`repro.lang.compile` refuse a program, so
  surfacing it here turns silent interpreter fallbacks into findings.
* ``unreachable-branch`` (warning) — the interval domain proves one arm
  of an ``If`` (or a loop body) can never execute.
* ``dead-store`` (warning) — an assignment whose value no later path
  reads (backward liveness).
* ``duplicate-notify`` (error/warning) — some pid is notified twice on
  every/some path.
* ``missing-notify`` (warning) — a pid mentioned in a ``notify`` may
  never be broadcast on some path, or the program notifies nothing.

The paper's Definition 1 demands each query answer *exactly once*, which
is why notify multiplicity is linted as strictly as type errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from ...lang.ast import (
    Assign,
    Call,
    Expr,
    If,
    Notify,
    Program,
    Seq,
    Skip,
    Stmt,
    While,
)
from ...lang.functions import BOOL, FunctionTable, Sort
from ...lang.printer import expr_to_str
from ...lang.visitors import (
    TypeError_,
    expr_vars,
    notify_counts,
    subexpressions,
    type_of,
    walk_assigned,
)
from .domains import IntervalConstDomain
from .framework import analyze_program

__all__ = ["Finding", "LintReport", "lint_program", "lint_programs"]

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem in one program."""

    rule: str
    severity: str
    message: str
    program: str
    snippet: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "program": self.program,
            "snippet": self.snippet,
        }


@dataclass
class LintReport:
    """All findings for one program, JSON-serialisable for ``repro lint``."""

    program: str
    findings: tuple[Finding, ...] = ()

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == WARNING)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def to_dict(self) -> dict[str, Any]:
        return {
            "program": self.program,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.findings],
        }


# ---------------------------------------------------------------------------
# Individual passes
# ---------------------------------------------------------------------------


def _stmt_reads(s: Stmt) -> Optional[Expr]:
    """The expression ``s`` evaluates first, if any."""

    if isinstance(s, (Assign, Notify)):
        return s.expr
    if isinstance(s, (If, While)):
        return s.cond
    return None


def _check_use_before_def(program: Program, out: list[Finding]) -> None:
    reported: set[tuple[str, str]] = set()

    def visit(stmt: Stmt, assigned: frozenset[str]) -> None:
        expr = _stmt_reads(stmt)
        if expr is None:
            return
        for name in sorted(expr_vars(expr) - assigned):
            key = (name, expr_to_str(expr))
            if key in reported:
                continue
            reported.add(key)
            out.append(
                Finding(
                    rule="use-before-def",
                    severity=ERROR,
                    message=f"local '{name}' may be read before assignment",
                    program=program.pid,
                    snippet=expr_to_str(expr),
                )
            )

    walk_assigned(program.body, visit)


def _check_types(
    program: Program, functions: Optional[FunctionTable], out: list[Finding]
) -> None:
    sorts: dict[str, Sort] = {}

    def sort_of(e: Expr) -> Optional[Sort]:
        try:
            return type_of(e, functions, sorts)
        except TypeError_ as exc:
            out.append(
                Finding(
                    rule="type-error",
                    severity=ERROR,
                    message=str(exc),
                    program=program.pid,
                    snippet=expr_to_str(e),
                )
            )
            return None

    def check_calls(e: Expr) -> None:
        if functions is None:
            return
        for sub in subexpressions(e):
            if isinstance(sub, Call) and sub.func not in functions:
                out.append(
                    Finding(
                        rule="unknown-function",
                        severity=ERROR,
                        message=(
                            f"call to '{sub.func}' not present in the function "
                            "table; repro.lang.compile would reject this "
                            "program and execution falls back to the interpreter"
                        ),
                        program=program.pid,
                        snippet=expr_to_str(sub),
                    )
                )

    def bool_guard(e: Expr, rule: str, what: str) -> None:
        check_calls(e)
        got = sort_of(e)
        if got is not None and got != BOOL:
            out.append(
                Finding(
                    rule=rule,
                    severity=ERROR,
                    message=f"{what} has sort {got}, expected bool",
                    program=program.pid,
                    snippet=expr_to_str(e),
                )
            )

    def walk(s: Stmt) -> None:
        if isinstance(s, Assign):
            check_calls(s.expr)
            got = sort_of(s.expr)
            if got is not None:
                sorts[s.var] = got
        elif isinstance(s, Notify):
            bool_guard(s.expr, "non-bool-notify", f"notify({s.pid}) payload")
        elif isinstance(s, Seq):
            for sub in s.stmts:
                walk(sub)
        elif isinstance(s, If):
            bool_guard(s.cond, "non-bool-guard", "branch condition")
            walk(s.then)
            walk(s.orelse)
        elif isinstance(s, While):
            bool_guard(s.cond, "non-bool-guard", "loop condition")
            walk(s.body)

    walk(program.body)


def _check_unreachable(program: Program, out: list[Finding]) -> None:
    domain = IntervalConstDomain.for_program(program)

    def visit(stmt: Stmt, env) -> None:
        if isinstance(stmt, If):
            then_in = domain.transfer_assume(env, stmt.cond, True)
            else_in = domain.transfer_assume(env, stmt.cond, False)
            if then_in.unreachable and not env.unreachable:
                out.append(
                    Finding(
                        rule="unreachable-branch",
                        severity=WARNING,
                        message="then-branch can never execute",
                        program=program.pid,
                        snippet=expr_to_str(stmt.cond),
                    )
                )
            if else_in.unreachable and not env.unreachable:
                out.append(
                    Finding(
                        rule="unreachable-branch",
                        severity=WARNING,
                        message="else-branch can never execute",
                        program=program.pid,
                        snippet=expr_to_str(stmt.cond),
                    )
                )
        elif isinstance(stmt, While):
            body_in = domain.transfer_assume(env, stmt.cond, True)
            if body_in.unreachable and not env.unreachable:
                out.append(
                    Finding(
                        rule="unreachable-branch",
                        severity=WARNING,
                        message="loop body can never execute",
                        program=program.pid,
                        snippet=expr_to_str(stmt.cond),
                    )
                )

    analyze_program(domain, program, visit)


def _live_before(
    s: Stmt, live_out: frozenset[str], dead: Optional[list[Assign]]
) -> frozenset[str]:
    """Backward liveness; collects dead :class:`Assign` nodes into ``dead``."""

    if isinstance(s, Skip):
        return live_out
    if isinstance(s, Assign):
        if dead is not None and s.var not in live_out:
            dead.append(s)
        return (live_out - {s.var}) | frozenset(expr_vars(s.expr))
    if isinstance(s, Notify):
        return live_out | frozenset(expr_vars(s.expr))
    if isinstance(s, Seq):
        for sub in reversed(s.stmts):
            live_out = _live_before(sub, live_out, dead)
        return live_out
    if isinstance(s, If):
        then_live = _live_before(s.then, live_out, dead)
        else_live = _live_before(s.orelse, live_out, dead)
        return then_live | else_live | frozenset(expr_vars(s.cond))
    if isinstance(s, While):
        cond_vars = frozenset(expr_vars(s.cond))
        live = live_out | cond_vars
        while True:  # grows monotonically over a finite variable set
            nxt = live | _live_before(s.body, live, None)
            if nxt == live:
                break
            live = nxt
        _live_before(s.body, live, dead)  # recording pass at the fixpoint
        return live
    raise TypeError(f"not a statement: {s!r}")


def _check_dead_stores(program: Program, out: list[Finding]) -> None:
    dead: list[Assign] = []
    _live_before(program.body, frozenset(), dead)
    seen: set[str] = set()
    for assign in dead:
        key = f"{assign.var} := {expr_to_str(assign.expr)}"
        if key in seen:
            continue
        seen.add(key)
        out.append(
            Finding(
                rule="dead-store",
                severity=WARNING,
                message=f"value assigned to '{assign.var}' is never read",
                program=program.pid,
                snippet=key,
            )
        )


def _check_notifications(program: Program, out: list[Finding]) -> None:
    counts = notify_counts(program.body)
    if not counts:
        out.append(
            Finding(
                rule="missing-notify",
                severity=WARNING,
                message=f"program never notifies '{program.pid}'",
                program=program.pid,
            )
        )
        return
    for pid, (lo, hi) in counts.items():
        if lo >= 2:
            out.append(
                Finding(
                    rule="duplicate-notify",
                    severity=ERROR,
                    message=f"'{pid}' is notified at least twice on every path",
                    program=program.pid,
                )
            )
        elif hi >= 2:
            out.append(
                Finding(
                    rule="duplicate-notify",
                    severity=WARNING,
                    message=f"'{pid}' may be notified more than once",
                    program=program.pid,
                )
            )
        if lo == 0:
            out.append(
                Finding(
                    rule="missing-notify",
                    severity=WARNING,
                    message=f"some path completes without notifying '{pid}'",
                    program=program.pid,
                )
            )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_program(
    program: Program, functions: Optional[FunctionTable] = None
) -> LintReport:
    """Run every lint pass over ``program``."""

    findings: list[Finding] = []
    _check_types(program, functions, findings)
    _check_use_before_def(program, findings)
    _check_unreachable(program, findings)
    _check_dead_stores(program, findings)
    _check_notifications(program, findings)
    order = {ERROR: 0, WARNING: 1}
    findings.sort(key=lambda f: (order[f.severity], f.rule, f.message))
    return LintReport(program=program.pid, findings=tuple(findings))


def lint_programs(
    programs: Iterable[Program], functions: Optional[FunctionTable] = None
) -> list[LintReport]:
    return [lint_program(p, functions) for p in programs]
