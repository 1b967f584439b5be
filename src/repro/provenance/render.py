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

from typing import Iterable, Iterator

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

__all__ = ["format_term", "format_formula", "format_expr", "format_store", "clamp"]

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
    rendering stops once the limit is passed, at any depth: a ``Ψ`` of
    thousands of conjuncts, or one conjunct holding a thousand-way
    disjunction, costs O(``limit``), not O(``|Ψ|``).
    """

    if limit is None:
        return "".join(_pieces(f))
    taken: list[str] = []
    size = 0
    for piece in _pieces(f):
        taken.append(piece)
        size += len(piece)
        if size > limit:
            break
    return clamp("".join(taken), limit)


def _pieces(f: Formula) -> Iterator[str]:
    """The rendering of ``f``, lazily: stop consuming and the rest is unvisited."""

    if isinstance(f, FTrue):
        yield "true"
    elif isinstance(f, FFalse):
        yield "false"
    elif isinstance(f, Le):
        yield _comparison(f.term, "<=")
    elif isinstance(f, Eq):
        yield _comparison(f.term, "=")
    elif isinstance(f, FNot) and isinstance(f.operand, Le):
        yield _comparison(f.operand.term, ">")
    elif isinstance(f, FNot) and isinstance(f.operand, Eq):
        yield _comparison(f.operand.term, "!=")
    elif isinstance(f, FNot):
        yield "!("
        yield from _pieces(f.operand)
        yield ")"
    elif isinstance(f, (FAnd, FOr)):
        separator = " & " if isinstance(f, FAnd) else " | "
        for index, arg in enumerate(f.args):
            if index:
                yield separator
            nested = isinstance(arg, (FAnd, FOr))
            if nested:
                yield "("
            yield from _pieces(arg)
            if nested:
                yield ")"
    else:
        yield repr(f)


def format_expr(e: Expr, limit: int = MAX_TEXT) -> str:
    """The language pretty-printer with the shared report length clamp."""

    return clamp(expr_to_str(e), limit)


def format_store(bindings: Iterable[tuple[str, Term | Formula]], limit: int = MAX_TEXT) -> str:
    """Store bindings ``local ↦ value``, by local name, comma-separated."""

    parts = [
        f"{display_name(name)} ↦ "
        + (format_formula(value, limit) if isinstance(value, Formula) else format_term(value))
        for name, value in sorted(bindings, key=lambda b: b[0])
    ]
    return clamp(", ".join(parts), limit)
