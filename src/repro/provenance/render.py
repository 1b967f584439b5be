"""Compact text rendering of SMT formulas and IR expressions.

The solver's :class:`~repro.smt.terms.Formula` values are normalised
dataclasses (``Le(term) ≡ term <= 0``, ``Lin`` linear combinations) whose
``repr`` is unreadable at derivation size.  Reports need the ``Ψ``
contexts and entailment goals in something a human can scan, so this
module renders them back into infix notation:

>>> format_formula(Le(Lin(-12, ((Sym("m1"), 1),))))
'm1 <= 12'

A symbol spells its local's name as the language printer does (a
qualified ``v!q1/x`` reads ``v!q1.x``).  Expressions reuse the language
pretty-printer (:func:`repro.lang.printer.expr_to_str`);
:func:`format_expr` merely adds the length clamp shared by every
provenance surface, so one very large embedded program cannot bloat a
report.
"""

from __future__ import annotations

from ..lang.ast import Expr, display_name
from ..lang.printer import expr_to_str
from ..smt.terms import (
    App,
    Eq,
    FAnd,
    FFalse,
    FNot,
    FOr,
    FTrue,
    Formula,
    Le,
    Lin,
    Num,
    Sym,
    Term,
)

__all__ = ["format_term", "format_formula", "format_expr", "clamp"]

MAX_TEXT = 240


def clamp(text: str, limit: int = MAX_TEXT) -> str:
    """Cut ``text`` at ``limit`` characters with an ellipsis marker."""

    if len(text) <= limit:
        return text
    return text[: limit - 1] + "…"


def format_term(t: Term) -> str:
    if isinstance(t, Num):
        return str(t.value)
    if isinstance(t, Sym):
        return display_name(t.name)
    if isinstance(t, App):
        args = ", ".join(format_term(a) for a in t.args)
        return f"{t.func}({args})"
    if isinstance(t, Lin):
        parts: list[str] = []
        for atom, coef in t.coeffs:
            rendered = format_term(atom)
            if coef == 1:
                piece = rendered
            elif coef == -1:
                piece = f"-{rendered}"
            else:
                piece = f"{coef}*{rendered}"
            if parts and not piece.startswith("-"):
                parts.append(f"+ {piece}")
            elif parts:
                parts.append(f"- {piece[1:]}")
            else:
                parts.append(piece)
        if t.const:
            sign = "+" if t.const > 0 else "-"
            parts.append(f"{sign} {abs(t.const)}" if parts else str(t.const))
        return " ".join(parts) if parts else "0"
    return repr(t)


def _comparison(t: Term, op: str) -> str:
    """Render ``t op 0`` by moving the constant to the right-hand side."""

    if isinstance(t, Lin) and t.const and t.coeffs:
        lhs = format_term(Lin(0, t.coeffs))
        return f"{lhs} {op} {-t.const}"
    return f"{format_term(t)} {op} 0"


def format_formula(f: Formula, limit: int | None = None) -> str:
    """``f`` in infix notation; with ``limit``, cut like :func:`clamp`.

    ``format_formula(f, limit) == clamp(format_formula(f), limit)``, but the
    parts of a top-level conjunction are rendered only until the limit is
    passed: a recorded ``Ψ`` of thousands of conjuncts costs O(``limit``),
    not O(``|Ψ|``), per event.
    """

    if limit is not None:
        return clamp(_render(f, limit), limit)
    return _render(f, None)


def _render(f: Formula, limit: int | None) -> str:
    if isinstance(f, FTrue):
        return "true"
    if isinstance(f, FFalse):
        return "false"
    if isinstance(f, Le):
        return _comparison(f.term, "<=")
    if isinstance(f, Eq):
        return _comparison(f.term, "=")
    if isinstance(f, FNot):
        inner = f.operand
        if isinstance(inner, Le):
            return _comparison(inner.term, ">")
        if isinstance(inner, Eq):
            return _comparison(inner.term, "!=")
        return f"!({format_formula(inner)})"
    if isinstance(f, (FAnd, FOr)):
        separator = " & " if isinstance(f, FAnd) else " | "
        parts: list[str] = []
        size = -len(separator)
        for arg in f.args:
            parts.append(_nest(arg))
            size += len(separator) + len(parts[-1])
            if limit is not None and size > limit:
                break
        return separator.join(parts)
    return repr(f)


def _nest(f: Formula) -> str:
    text = format_formula(f)
    if isinstance(f, (FAnd, FOr)):
        return f"({text})"
    return text


def format_expr(e: Expr, limit: int = MAX_TEXT) -> str:
    """The language pretty-printer with the shared report length clamp."""

    return clamp(expr_to_str(e), limit)
