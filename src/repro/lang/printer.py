"""Pretty printer for the consolidation language.

Produces the concrete syntax accepted by :mod:`repro.lang.parser`, so
``parse_stmt(to_str(s)) == s`` for every statement the parser can produce
(round-trip tested).  A qualified local prints with a ``.`` for its
separator (:func:`repro.lang.ast.display_name`), so a merged program's
locals print as identifiers the parser reads.
"""

from __future__ import annotations

from .ast import (
    Arg,
    Assign,
    BinOp,
    BoolConst,
    BoolOp,
    Call,
    Cmp,
    Expr,
    If,
    IntConst,
    Node,
    Not,
    Notify,
    Program,
    Seq,
    Skip,
    Stmt,
    StrConst,
    Var,
    While,
    display_name,
)

__all__ = ["to_str", "expr_to_str", "stmt_to_str", "program_to_str"]

# Higher binds tighter.  Comparisons are non-associative; arithmetic and
# connectives are left-associative in the parser.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "not": 3,
    "cmp": 4,
    "+": 5,
    "-": 5,
    "*": 6,
}
_ATOM = 10


def expr_to_str(e: Expr) -> str:
    text, _prec = _expr(e)
    return text


def _paren(child: Expr, parent_prec: int, right_side: bool = False) -> str:
    text, prec = _expr(child)
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def _expr(e: Expr) -> tuple[str, int]:
    if isinstance(e, IntConst):
        text = str(e.value)
        return (f"({text})", _ATOM) if e.value < 0 else (text, _ATOM)
    if isinstance(e, StrConst):
        escaped = e.value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"', _ATOM
    if isinstance(e, BoolConst):
        return ("true" if e.value else "false"), _ATOM
    if isinstance(e, Arg):
        return f"@{e.name}", _ATOM
    if isinstance(e, Var):
        return display_name(e.name), _ATOM
    if isinstance(e, Call):
        args = ", ".join(expr_to_str(a) for a in e.args)
        return f"{e.func}({args})", _ATOM
    if isinstance(e, BinOp):
        p = _PRECEDENCE[e.op]
        return f"{_paren(e.left, p)} {e.op} {_paren(e.right, p, right_side=True)}", p
    if isinstance(e, Cmp):
        p = _PRECEDENCE["cmp"]
        op = "==" if e.op == "=" else e.op
        return f"{_paren(e.left, p + 1)} {op} {_paren(e.right, p + 1)}", p
    if isinstance(e, Not):
        p = _PRECEDENCE["not"]
        return f"!{_paren(e.operand, p + 1)}", p
    if isinstance(e, BoolOp):
        p = _PRECEDENCE[e.op]
        return f"{_paren(e.left, p)} {e.op} {_paren(e.right, p, right_side=True)}", p
    raise TypeError(f"not an expression: {e!r}")


def stmt_to_str(s: Stmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(s, Skip):
        return f"{pad}skip;"
    if isinstance(s, Assign):
        return f"{pad}{display_name(s.var)} := {expr_to_str(s.expr)};"
    if isinstance(s, Notify):
        return f"{pad}notify {s.pid} {expr_to_str(s.expr)};"
    if isinstance(s, Seq):
        return "\n".join(stmt_to_str(sub, indent) for sub in s.stmts)
    if isinstance(s, If):
        lines = [f"{pad}if ({expr_to_str(s.cond)}) {{"]
        lines.append(stmt_to_str(s.then, indent + 1))
        lines.append(f"{pad}}} else {{")
        lines.append(stmt_to_str(s.orelse, indent + 1))
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    if isinstance(s, While):
        lines = [f"{pad}while ({expr_to_str(s.cond)}) {{"]
        lines.append(stmt_to_str(s.body, indent + 1))
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    raise TypeError(f"not a statement: {s!r}")


def program_to_str(p: Program) -> str:
    params = ", ".join(p.params)
    header = f"program {p.pid}({params}) {{"
    return "\n".join([header, stmt_to_str(p.body, 1), "}"])


def to_str(node: Node) -> str:
    """Render any AST node to concrete syntax."""

    if isinstance(node, Program):
        return program_to_str(node)
    if isinstance(node, Stmt):
        return stmt_to_str(node)
    return expr_to_str(node)  # type: ignore[arg-type]
