"""Traversal and transformation utilities over the IR.

These are the workhorses shared by the analyses and the consolidation
algorithm: variable/call collection, capture-free substitution (the language
has no binders below the lambda, so substitution is structural), local
qualification to enforce the disjoint-locals precondition of consolidation,
and expression typing.

The collectors the calculus keeps asking (``expr_vars``/``expr_args``/``expr_calls``/
``expr_size``, ``stmt_vars``/``assigned_vars``/``stmt_size``) are attributes of the node:
the recursive definition over the children, made a slot read by :func:`repro.nodeslots.derived`.
A node is visited once however often it is asked; the ``frozenset`` is shared by every caller.
"""

from __future__ import annotations

from operator import is_
from typing import Callable, Iterator

from ..nodeslots import derived, union
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
    Not,
    Notify,
    Program,
    QUALIFIER,
    Seq,
    Skip,
    Stmt,
    StrConst,
    Var,
    While,
    operands,
    seq,
    stmt_parts,
)
from .functions import BOOL, INT, STR, FunctionTable, Sort

__all__ = [
    "subexpressions",
    "expr_vars",
    "expr_args",
    "expr_calls",
    "stmt_exprs",
    "stmt_vars",
    "stmt_args",
    "stmt_calls",
    "assigned_vars",
    "notified_pids",
    "contains_stmt",
    "substitute",
    "map_exprs",
    "rename_vars",
    "qualify_locals",
    "requalify_locals",
    "expr_size",
    "stmt_size",
    "TypeError_",
    "type_of",
    "check_program",
]

# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def subexpressions(e: Expr) -> Iterator[Expr]:
    """All subexpressions of ``e``, including ``e`` itself (pre-order)."""

    yield e
    for sub in operands(e):
        yield from subexpressions(sub)


@derived("_vars")
def expr_vars(e: Expr) -> frozenset[str]:
    """Local-variable names read by ``e``."""

    if isinstance(e, Var):
        return frozenset((e.name,))
    return union(map(expr_vars, operands(e)))


@derived("_args")
def expr_args(e: Expr) -> frozenset[str]:
    """Argument names read by ``e``."""

    if isinstance(e, Arg):
        return frozenset((e.name,))
    return union(map(expr_args, operands(e)))


@derived("_calls")
def expr_calls(e: Expr) -> frozenset[str]:
    """Names of library functions called by ``e``."""

    inner = union(map(expr_calls, operands(e)))
    return inner | {e.func} if isinstance(e, Call) else inner


def stmt_exprs(s: Stmt) -> Iterator[Expr]:
    """All expressions occurring in ``s`` in syntactic order."""

    exprs, subs = stmt_parts(s)
    yield from exprs
    for sub in subs:
        yield from stmt_exprs(sub)


@derived("_vars")
def stmt_vars(s: Stmt) -> frozenset[str]:
    """Local-variable names read or written anywhere in ``s``."""

    exprs, subs = stmt_parts(s)
    written = [assigned_vars(s)] if isinstance(s, Assign) else []
    return union([*written, *map(expr_vars, exprs), *map(stmt_vars, subs)])


def stmt_args(s: Stmt) -> frozenset[str]:
    """Argument names read anywhere in ``s``."""

    return union(map(expr_args, stmt_exprs(s)))


def stmt_calls(s: Stmt) -> frozenset[str]:
    """Names of library functions called anywhere in ``s``."""

    return union(map(expr_calls, stmt_exprs(s)))


@derived("_assigned")
def assigned_vars(s: Stmt) -> frozenset[str]:
    """Local-variable names assigned anywhere in ``s``."""

    if isinstance(s, Assign):
        return frozenset((s.var,))
    return union(map(assigned_vars, stmt_parts(s)[1]))


def notified_pids(s: Stmt) -> frozenset[str]:
    """Program identifiers that ``s`` may notify."""

    nested = [s]
    for st in nested:  # a worklist: it grows while it is read
        nested.extend(stmt_parts(st)[1])
    return frozenset(st.pid for st in nested if isinstance(st, Notify))


def contains_stmt(s: Stmt, kinds: type[Stmt] | tuple[type[Stmt], ...]) -> bool:
    """Whether ``s`` is, or nests, a statement of one of ``kinds``."""

    if isinstance(s, kinds):
        return True
    if isinstance(s, Seq):
        return any(contains_stmt(sub, kinds) for sub in s.stmts)
    if isinstance(s, If):
        return contains_stmt(s.then, kinds) or contains_stmt(s.orelse, kinds)
    if isinstance(s, While):
        return contains_stmt(s.body, kinds)
    return False


@derived("_size")
def expr_size(e: Expr) -> int:
    """Number of AST nodes in ``e``."""

    return 1 + sum(map(expr_size, operands(e)))


@derived("_size")
def stmt_size(s: Stmt) -> int:
    """Number of AST nodes in ``s`` (statements and expressions)."""

    exprs, subs = stmt_parts(s)
    return 1 + sum(map(expr_size, exprs)) + sum(map(stmt_size, subs))


# ---------------------------------------------------------------------------
# Transformation
# ---------------------------------------------------------------------------


def _map_operands(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """``e`` with each operand through ``f``; ``e`` itself, not a copy, when none changed."""

    old = operands(e)
    new = tuple(map(f, old))
    if all(map(is_, new, old)):
        return e
    if isinstance(e, Call):
        return Call(e.func, new)
    if isinstance(e, Not):
        return Not(*new)
    assert isinstance(e, (BinOp, Cmp, BoolOp))
    return type(e)(e.op, *new)


def substitute(e: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Replace occurrences of the *keys* of ``mapping`` (whole subtrees).

    Substitution is outside-in: once a subtree matches a key it is replaced
    wholesale and not re-visited, so mappings may safely mention each other.
    Subtrees holding no key are returned by identity.
    """

    def walk(sub: Expr) -> Expr:
        hit = mapping.get(sub)
        return _map_operands(sub, walk) if hit is None else hit

    return walk(e)


def _map_parts(s: Stmt, on_expr: Callable[[Expr], Expr], on_stmt: Callable[[Stmt], Stmt]) -> Stmt:
    """``s`` with its expressions through ``on_expr`` and its sub-statements through ``on_stmt``."""

    if isinstance(s, Skip):
        return s
    if isinstance(s, Assign):
        return Assign(s.var, on_expr(s.expr))
    if isinstance(s, Notify):
        return Notify(s.pid, on_expr(s.expr))
    if isinstance(s, Seq):
        return seq(*map(on_stmt, s.stmts))
    if isinstance(s, If):
        return If(on_expr(s.cond), on_stmt(s.then), on_stmt(s.orelse))
    if isinstance(s, While):
        return While(on_expr(s.cond), on_stmt(s.body))
    raise TypeError(f"not a statement: {s!r}")


def map_exprs(s: Stmt, f: Callable[[Expr], Expr]) -> Stmt:
    """Rebuild ``s`` with every embedded expression passed through ``f``."""

    return _map_parts(s, f, lambda sub: map_exprs(sub, f))


def rename_vars(s: Stmt, renaming: dict[str, str]) -> Stmt:
    """Rename local variables in reads and writes according to ``renaming``.

    Identity-preservation contract (as :func:`repro.smt.terms.rename_syms`):
    only what mentions a renamed variable is rebuilt.  Every other
    sub-statement and subexpression — and ``s`` itself when nothing is
    touched — is returned as the *same object*, slots filled.
    """

    renamed = {old: Var(new) for old, new in renaming.items()}

    def on_expr(e: Expr) -> Expr:
        if isinstance(e, Var):
            return renamed.get(e.name, e)
        if expr_vars(e).isdisjoint(renaming):
            return e
        return _map_operands(e, on_expr)

    def walk(st: Stmt) -> Stmt:
        if stmt_vars(st).isdisjoint(renaming):
            return st
        if isinstance(st, Assign):
            return Assign(renaming.get(st.var, st.var), on_expr(st.expr))
        return _map_parts(st, on_expr, walk)

    return walk(s)


def qualify_locals(p: Program) -> Program:
    """Qualify every local of ``p`` with its pid, e.g. ``x`` -> ``q1/x``.

    Consolidation requires the two programs' locals to be disjoint
    (Figure 1 labels locals with the program index).  A leaf is qualified
    once, when it first enters a merge; a merged program's locals keep
    their leaves' qualifiers, so it is returned as is.  No parsed name
    contains :data:`~repro.lang.ast.QUALIFIER`, so the map is injective.
    """

    tag = p.pid + QUALIFIER
    renaming = {n: tag + n for n in stmt_vars(p.body) if QUALIFIER not in n}
    if not renaming:
        return p
    return Program(p.pid, p.params, rename_vars(p.body, renaming))


def requalify_locals(s: Stmt, pid_map: dict[str, str]) -> Stmt:
    """``s`` with each local qualified by a key of ``pid_map`` qualified by its value.

    The plan cache serves a tree to queries that are alpha-equivalent to
    its leaves but carry other pids; their locals move with the pids.
    """

    renaming: dict[str, str] = {}
    for n in stmt_vars(s):
        pid, sep, local = n.partition(QUALIFIER)
        if sep and pid_map.get(pid, pid) != pid:
            renaming[n] = pid_map[pid] + sep + local
    return rename_vars(s, renaming)


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------


class TypeError_(Exception):
    """A static type error in an IR term."""


def type_of(
    e: Expr,
    functions: FunctionTable | None = None,
    env_sorts: dict[str, Sort] | None = None,
) -> Sort:
    """Infer the sort of ``e`` (``int``, ``bool`` or ``str``).

    ``env_sorts`` gives sorts for arguments and locals; names missing from
    it default to ``int`` (the dominant case in query UDFs).  When
    ``functions`` is provided, call results use the declared result sort and
    argument sorts are checked.
    """

    sorts = env_sorts or {}
    if isinstance(e, IntConst):
        return INT
    if isinstance(e, StrConst):
        return STR
    if isinstance(e, BoolConst):
        return BOOL
    if isinstance(e, (Arg, Var)):
        return sorts.get(e.name, INT)
    if isinstance(e, Call):
        if functions is None or e.func not in functions:
            return INT
        lib = functions[e.func]
        if lib.arg_sorts is not None:
            if len(lib.arg_sorts) != len(e.args):
                raise TypeError_(
                    f"{e.func} expects {len(lib.arg_sorts)} args, got {len(e.args)}"
                )
            for want, actual in zip(lib.arg_sorts, e.args):
                got = type_of(actual, functions, sorts)
                if got != want:
                    raise TypeError_(f"{e.func}: expected {want}, got {got} in {actual}")
        return lib.result_sort
    if isinstance(e, BinOp):
        for side in (e.left, e.right):
            if type_of(side, functions, sorts) != INT:
                raise TypeError_(f"arithmetic on non-int operand in {e}")
        return INT
    if isinstance(e, Cmp):
        lt_ = type_of(e.left, functions, sorts)
        rt = type_of(e.right, functions, sorts)
        if e.op == "=":
            if BOOL in (lt_, rt):
                raise TypeError_(f"equality on booleans in {e}")
        else:
            if lt_ != INT or rt != INT:
                raise TypeError_(f"ordering on non-int operands in {e}")
        return BOOL
    if isinstance(e, Not):
        if type_of(e.operand, functions, sorts) != BOOL:
            raise TypeError_(f"negation of non-bool in {e}")
        return BOOL
    if isinstance(e, BoolOp):
        for side in (e.left, e.right):
            if type_of(side, functions, sorts) != BOOL:
                raise TypeError_(f"connective on non-bool operand in {e}")
        return BOOL
    raise TypeError_(f"not an expression: {e!r}")


def check_program(
    p: Program,
    functions: FunctionTable | None = None,
    env_sorts: dict[str, Sort] | None = None,
) -> None:
    """Type-check every expression in ``p``; raises :class:`TypeError_`.

    Branch and loop conditions and notify payloads must be boolean.
    Assigned variables adopt the sort of their first assignment.
    """

    sorts = dict(env_sorts or {})

    def walk(s: Stmt) -> None:
        if isinstance(s, Assign):
            sorts[s.var] = type_of(s.expr, functions, sorts)
        elif isinstance(s, Notify):
            if type_of(s.expr, functions, sorts) != BOOL:
                raise TypeError_(f"notify of non-bool in {s}")
        elif isinstance(s, Seq):
            for sub in s.stmts:
                walk(sub)
        elif isinstance(s, If):
            if type_of(s.cond, functions, sorts) != BOOL:
                raise TypeError_(f"branch on non-bool in {s}")
            walk(s.then)
            walk(s.orelse)
        elif isinstance(s, While):
            if type_of(s.cond, functions, sorts) != BOOL:
                raise TypeError_(f"loop on non-bool in {s}")
            walk(s.body)

    walk(p.body)
