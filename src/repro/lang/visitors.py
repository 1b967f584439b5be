"""Traversal and transformation utilities over the IR.

These are the workhorses shared by the analyses and the consolidation
algorithm: variable/call collection, capture-free substitution (the language
has no binders below the lambda, so substitution is structural), local
qualification to enforce the disjoint-locals precondition of consolidation,
and expression typing.

The collectors the calculus keeps asking (``expr_vars``/``expr_args``/``expr_calls``/
``expr_size``, ``stmt_vars``/``assigned_vars``/``stmt_size``, and the checkers'
``notify_counts``) are attributes of the node: the recursive definition over the
children, made a slot read by :func:`repro.nodeslots.derived`.  A node is visited
once however often it is asked; the ``frozenset`` is shared by every caller.
"""

from __future__ import annotations

from operator import is_
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

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
    SKIP,
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
    "SATURATE_AT",
    "notify_counts",
    "walk_assigned",
    "contains_stmt",
    "substitute",
    "map_exprs",
    "rename_vars",
    "qualify_locals",
    "requalify_locals",
    "rename_pids",
    "pid_order",
    "canonicalize",
    "strip_notifies",
    "ride_notifies",
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


SATURATE_AT = 2  # counts above 1 all behave alike: the run already clashes

_NO_COUNTS: Mapping[str, tuple[int, int]] = MappingProxyType({})


def _sorted_counts(counts: dict[str, tuple[int, int]]) -> Mapping[str, tuple[int, int]]:
    return MappingProxyType(dict(sorted(counts.items()))) if counts else _NO_COUNTS


@derived("_notifies")
def notify_counts(s: Stmt) -> Mapping[str, tuple[int, int]]:
    """Per pid ``s`` may notify, in sorted order: the fewest and most
    broadcasts over its paths, saturating at :data:`SATURATE_AT`.

    A ``Seq`` adds, an ``If`` takes the min and max over its arms, and a
    ``While`` — any number of iterations — gives ``(0, SATURATE_AT)`` for
    every pid its body may notify.  The mapping is shared and read-only.
    """

    if isinstance(s, Notify):
        return MappingProxyType({s.pid: (1, 1)})
    if isinstance(s, Seq):
        parts = [part for part in map(notify_counts, s.stmts) if part]
        if len(parts) == 1:
            return parts[0]
        total: dict[str, tuple[int, int]] = {}
        for part in parts:
            for pid, (lo, hi) in part.items():
                was_lo, was_hi = total.get(pid, (0, 0))
                total[pid] = (min(was_lo + lo, SATURATE_AT), min(was_hi + hi, SATURATE_AT))
        return _sorted_counts(total)
    if isinstance(s, If):
        then, orelse = notify_counts(s.then), notify_counts(s.orelse)
        arms: dict[str, tuple[int, int]] = {}
        for pid in then.keys() | orelse.keys():
            (lo_t, hi_t), (lo_e, hi_e) = then.get(pid, (0, 0)), orelse.get(pid, (0, 0))
            arms[pid] = (min(lo_t, lo_e), max(hi_t, hi_e))
        return _sorted_counts(arms)
    if isinstance(s, While):
        return _sorted_counts(dict.fromkeys(notify_counts(s.body), (0, SATURATE_AT)))
    return _NO_COUNTS


def walk_assigned(
    s: Stmt,
    visit: Callable[[Stmt, frozenset[str]], None],
    assigned: frozenset[str] = frozenset(),
) -> frozenset[str]:
    """Call ``visit(stmt, assigned)`` on each statement of ``s`` but ``Seq``
    and ``Skip``, in program order, with the locals assigned on every path
    to it; return those assigned on every path through ``s``.

    An ``If`` keeps what both arms assign.  A ``While`` body is visited
    once, from the loop's entry, and adds nothing: it may run zero times.
    """

    if isinstance(s, Seq):
        for sub in s.stmts:
            assigned = walk_assigned(sub, visit, assigned)
        return assigned
    if isinstance(s, Skip):
        return assigned
    visit(s, assigned)
    if isinstance(s, Assign):
        return assigned | {s.var}
    if isinstance(s, If):
        return walk_assigned(s.then, visit, assigned) & walk_assigned(s.orelse, visit, assigned)
    if isinstance(s, While):
        walk_assigned(s.body, visit, assigned)
    return assigned


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


def _map_notifies(s: Stmt, on_notify: Callable[[Notify], Stmt]) -> Stmt:
    """``s`` with every ``notify`` through ``on_notify``; what holds no
    changed ``notify`` is returned by identity."""

    if isinstance(s, Notify):
        return on_notify(s)
    if isinstance(s, Seq):
        stmts = [_map_notifies(sub, on_notify) for sub in s.stmts]
        return s if all(map(is_, stmts, s.stmts)) else seq(*stmts)
    if isinstance(s, If):
        then, orelse = _map_notifies(s.then, on_notify), _map_notifies(s.orelse, on_notify)
        return s if then is s.then and orelse is s.orelse else If(s.cond, then, orelse)
    if isinstance(s, While):
        body = _map_notifies(s.body, on_notify)
        return s if body is s.body else While(s.cond, body)
    return s


def rename_pids(s: Stmt, mapping: dict[str, str]) -> Stmt:
    """Rebuild ``s`` with every ``notify`` target renamed via ``mapping``."""

    def on_notify(n: Notify) -> Stmt:
        pid = mapping.get(n.pid, n.pid)
        return n if pid == n.pid else Notify(pid, n.expr)

    return _map_notifies(s, on_notify)


def strip_notifies(s: Stmt, pids: frozenset[str]) -> Stmt:
    """``s`` without its ``notify`` statements for ``pids``.

    Dropping a broadcast changes nothing but that broadcast: every other
    pid is notified with the same value at no greater cost.
    """

    return _map_notifies(s, lambda n: SKIP if n.pid in pids else n)


def ride_notifies(s: Stmt, mapping: dict[str, list[str]]) -> Stmt:
    """``s`` where each ``notify p e`` with ``p`` in ``mapping`` is followed
    by ``notify r e`` for each ``r`` of ``mapping[p]``, in order: every rider
    broadcasts what ``p`` does, at the same point, for one ``notify`` more."""

    def on_notify(n: Notify) -> Stmt:
        pids = mapping.get(n.pid)
        return n if not pids else seq(n, *(Notify(pid, n.expr) for pid in pids))

    return _map_notifies(s, on_notify)


def _ordered_locals(s: Stmt, out: list[str], seen: set[str]) -> None:
    """Collect local names in order of first appearance (reads first)."""

    def from_expr(e: Expr) -> None:
        for sub in subexpressions(e):
            if isinstance(sub, Var) and sub.name not in seen:
                seen.add(sub.name)
                out.append(sub.name)

    if isinstance(s, Assign):
        from_expr(s.expr)
        if s.var not in seen:
            seen.add(s.var)
            out.append(s.var)
        return
    exprs, subs = stmt_parts(s)
    for e in exprs:
        from_expr(e)
    for sub in subs:
        _ordered_locals(sub, out, seen)


def _ordered_pids(s: Stmt, out: list[str]) -> None:
    """Append the ``notify`` targets of ``s`` not yet in ``out``, in order."""

    if isinstance(s, Notify):
        if s.pid not in out:
            out.append(s.pid)
        return
    for sub in stmt_parts(s)[1]:
        _ordered_pids(sub, out)


def pid_order(p: Program) -> list[str]:
    """``p``'s pid, then its ``notify`` targets in order of first appearance.

    Two alpha-equivalent programs pair their pids position by position.
    """

    out = [p.pid]
    _ordered_pids(p.body, out)
    return out


def canonicalize(program: Program) -> Program:
    """The alpha-renamed normal form: two programs are alpha-equivalent
    exactly when their canonical forms are equal.

    Locals become ``_c0, _c1, …`` in order of first syntactic appearance
    (reads before the write in an assignment, matching evaluation order),
    pids ``_p0, _p1, …`` in :func:`pid_order`.  The renamings are applied
    simultaneously, so canonical names may collide with source names
    without corruption.
    """

    names: list[str] = []
    _ordered_locals(program.body, names, set())
    body = rename_vars(program.body, {n: f"_c{i}" for i, n in enumerate(names)})
    pid_map = {p: f"_p{i}" for i, p in enumerate(pid_order(program))}
    return Program(pid_map[program.pid], program.params, rename_pids(body, pid_map))


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
