"""Abstract syntax of the consolidation language (Figure 1 of the paper).

The language is a small imperative core:

* programs ``lambda a1..ak. S`` with a statement body,
* statements: ``skip``, assignment, sequencing, conditionals
  (``S1 (+)e S2``), while loops, and ``notify_i e`` broadcasts,
* integer expressions: constants, arguments, locals, library calls and
  ``+ - *``,
* boolean expressions: constants, comparisons (``< <= =``) and the boolean
  connectives.

Two pragmatic extensions over the paper's Figure 1, both used by the paper's
own examples:

* **String constants.**  The worked examples compare airline names and words.
  Strings are opaque: the only operations are equality and library calls, so
  the SMT layer treats each distinct string as a distinct integer constant
  (interning), which preserves exactly the reasoning the calculus needs.
* **Notify of expressions.**  Figure 1 restricts ``notify`` to boolean
  constants, but the consolidated program of Example 1 broadcasts a computed
  boolean (``return (c == "southwest", false)``).  We allow ``notify_i e``
  for an arbitrary boolean expression; a constant is just the special case.

All nodes are immutable (frozen dataclasses) and compare structurally, so
they can be used as dictionary keys, memoised, and shared freely.

Because nodes never change, the facts the calculus keeps asking of them are
attributes of the node, not walks beside it.  Every composite node carries
lazily filled slots (:mod:`repro.nodeslots`: not compared, not printed, not
constructor arguments, never pickled) for its structural hash, the names it
mentions, its ``related`` features, its size and (on statements) its
notification counts; the readers are the collectors of
:mod:`repro.lang.visitors` and :func:`repro.analysis.related.expr_features`.
Leaves carry none: their facts are one field away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Union

from ..nodeslots import cached, slot

__all__ = [
    "Expr",
    "IntExpr",
    "BoolExpr",
    "Stmt",
    "IntConst",
    "StrConst",
    "BoolConst",
    "Arg",
    "Var",
    "Call",
    "BinOp",
    "Cmp",
    "Not",
    "BoolOp",
    "Skip",
    "Assign",
    "Notify",
    "Seq",
    "If",
    "While",
    "Program",
    "SKIP",
    "TRUE",
    "FALSE",
    "ARITH_OPS",
    "CMP_OPS",
    "BOOL_OPS",
    "QUALIFIER",
    "display_name",
    "seq",
    "seq_head",
    "seq_tail",
    "statements",
    "operands",
    "stmt_parts",
]

ARITH_OPS = ("+", "-", "*")
CMP_OPS = ("<", "<=", "=")
BOOL_OPS = ("and", "or")


class Node:
    """Base class for all AST nodes."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - convenience only
        from .printer import to_str

        return to_str(self)


class Expr(Node):
    """Base class for expressions."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Integer expressions (IE in Figure 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IntConst(Expr):
    """An integer literal."""

    value: int


@dataclass(frozen=True, slots=True)
class StrConst(Expr):
    """An opaque string literal (see module docstring)."""

    value: str


@dataclass(frozen=True, slots=True)
class Arg(Expr):
    """A program argument ``alpha_j``.

    Arguments are shared between all programs being consolidated: every UDF
    in a batch receives the same input row, so an ``Arg`` with the same name
    denotes the same value in every program.
    """

    name: str


@dataclass(frozen=True, slots=True)
class Var(Expr):
    """A local variable ``x_{i,j}``.

    Local variables of distinct programs are kept disjoint by qualifying
    each name with its program's identifier, once, when the program first
    enters a merge (``qualify_locals`` in :mod:`repro.lang.visitors`):
    ``x`` of ``q1`` becomes ``q1/x`` (see :data:`QUALIFIER`).
    """

    name: str


# Separator between a qualified local's leaf pid and its source name.  The
# parser cannot produce it, so ``QUALIFIER in name`` tells whether a local
# is qualified; the printer shows it as ``.`` (``q1/x`` prints as ``q1.x``).
QUALIFIER = "/"


def display_name(name: str) -> str:
    """A local's name as printed: a qualified ``q1/x`` reads ``q1.x``."""

    return name.replace(QUALIFIER, ".")


@dataclass(frozen=True, slots=True)
class _CompositeExpr(Expr):
    """An expression with operands, and the slots for what is derived from them."""

    _hash: Optional[int] = slot()
    _vars: Optional[frozenset[str]] = slot()  # visitors.expr_vars
    _args: Optional[frozenset[str]] = slot()  # visitors.expr_args
    _calls: Optional[frozenset[str]] = slot()  # visitors.expr_calls
    _features: Optional[Any] = slot()  # analysis.related.expr_features
    _size: Optional[int] = slot()  # visitors.expr_size


@cached
@dataclass(frozen=True, slots=True)
class Call(_CompositeExpr):
    """A call ``f(e1, ..., ek)`` to an externally provided library function.

    Library functions are deterministic and side-effect free (the paper's
    well-behavedness assumption), which is what justifies replacing a call
    with a previously computed value during cross-simplification.
    """

    func: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@cached
@dataclass(frozen=True, slots=True)
class BinOp(_CompositeExpr):
    """An arithmetic operation ``e1 (.) e2`` with ``(.)`` in ``+ - *``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS:
            raise ValueError(f"not an arithmetic operator: {self.op!r}")


# ---------------------------------------------------------------------------
# Boolean expressions (BE in Figure 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoolConst(Expr):
    """A boolean literal (top / bottom in the paper)."""

    value: bool


@cached
@dataclass(frozen=True, slots=True)
class Cmp(_CompositeExpr):
    """A comparison ``e1 (<=|<|=) e2``.

    Only the paper's three comparison operators exist in the core syntax;
    ``>``, ``>=`` and ``!=`` are provided as smart constructors in
    :mod:`repro.lang.builder` that normalise to these.
    """

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise ValueError(f"not a comparison operator: {self.op!r}")


@cached
@dataclass(frozen=True, slots=True)
class Not(_CompositeExpr):
    """Boolean negation."""

    operand: Expr


@cached
@dataclass(frozen=True, slots=True)
class BoolOp(_CompositeExpr):
    """A binary boolean connective (``and`` / ``or``)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BOOL_OPS:
            raise ValueError(f"not a boolean operator: {self.op!r}")


IntExpr = Union[IntConst, StrConst, Arg, Var, Call, BinOp]
BoolExpr = Union[BoolConst, Cmp, Not, BoolOp]


# ---------------------------------------------------------------------------
# Statements (S in Figure 1)
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statements."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Skip(Stmt):
    """The no-op statement."""


@dataclass(frozen=True, slots=True)
class _CompositeStmt(Stmt):
    """A statement with parts, and the slots for what is derived from them."""

    _hash: Optional[int] = slot()
    _vars: Optional[frozenset[str]] = slot()  # visitors.stmt_vars
    _assigned: Optional[frozenset[str]] = slot()  # visitors.assigned_vars
    _notifies: Optional[Mapping[str, tuple[int, int]]] = slot()  # visitors.notify_counts
    _features: Optional[Any] = slot()  # analysis.related.expr_features
    _size: Optional[int] = slot()  # visitors.stmt_size


@cached
@dataclass(frozen=True, slots=True)
class Assign(_CompositeStmt):
    """An assignment ``x := e`` to a local variable."""

    var: str
    expr: Expr


@cached
@dataclass(frozen=True, slots=True)
class Notify(_CompositeStmt):
    """``notify_i e`` — broadcast the value of ``e`` on behalf of program i.

    The paper's semantics collects broadcasts into a notification
    environment ``N`` mapping program identifiers to booleans; a program may
    notify its own identifier at most once per run.
    """

    pid: str
    expr: Expr


@cached
@dataclass(frozen=True, slots=True)
class Seq(_CompositeStmt):
    """A sequence of statements ``S1; ...; Sn``.

    Sequences are kept *flat*: no element of ``stmts`` is itself a ``Seq``,
    and ``Skip`` never appears inside a non-trivial sequence.  Use the
    :func:`seq` smart constructor to build sequences; it enforces both
    invariants, which the consolidation algorithm's ``hd``/``tl`` view
    (:func:`seq_head` / :func:`seq_tail`) relies on.
    """

    stmts: tuple[Stmt, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stmts", tuple(self.stmts))
        for s in self.stmts:
            if isinstance(s, Seq):
                raise ValueError("Seq must be flat; use seq() to construct")


@cached
@dataclass(frozen=True, slots=True)
class If(_CompositeStmt):
    """A conditional ``S1 (+)e S2``: run ``then`` if ``cond`` holds."""

    cond: Expr
    then: Stmt
    orelse: Stmt


@cached
@dataclass(frozen=True, slots=True)
class While(_CompositeStmt):
    """A while loop."""

    cond: Expr
    body: Stmt


SKIP = Skip()
TRUE = BoolConst(True)
FALSE = BoolConst(False)


def seq(*stmts: Stmt) -> Stmt:
    """Build a flat sequence, dropping ``Skip`` and splicing nested ``Seq``.

    Returns ``SKIP`` for the empty sequence and the sole statement for a
    singleton, so the result is always in normal form.
    """

    flat: list[Stmt] = []
    for s in stmts:
        if isinstance(s, Seq):
            flat.extend(s.stmts)
        elif isinstance(s, Skip):
            continue
        else:
            flat.append(s)
    if not flat:
        return SKIP
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def seq_head(s: Stmt) -> Stmt:
    """``hd`` from the paper: the first non-sequence statement of ``s``."""

    if isinstance(s, Seq):
        return s.stmts[0]
    return s


def seq_tail(s: Stmt) -> Stmt:
    """``tl`` from the paper: everything after :func:`seq_head`.

    Yields ``SKIP`` when ``s`` is not a sequence, mirroring the paper's
    convention (and implicitly its Skip 2 rule).
    """

    if isinstance(s, Seq):
        return seq(*s.stmts[1:])
    return SKIP


def statements(s: Stmt) -> Iterator[Stmt]:
    """Iterate the top-level statements of ``s`` in execution order."""

    if isinstance(s, Seq):
        yield from s.stmts
    elif not isinstance(s, Skip):
        yield s


def operands(e: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of ``e``, in syntactic order."""

    if isinstance(e, (BinOp, Cmp, BoolOp)):
        return (e.left, e.right)
    if isinstance(e, Call):
        return e.args
    if isinstance(e, Not):
        return (e.operand,)
    return ()


def stmt_parts(s: Stmt) -> tuple[tuple[Expr, ...], tuple[Stmt, ...]]:
    """The expressions ``s`` evaluates itself, and its direct sub-statements."""

    if isinstance(s, (Assign, Notify)):
        return (s.expr,), ()
    if isinstance(s, Seq):
        return (), s.stmts
    if isinstance(s, If):
        return (s.cond,), (s.then, s.orelse)
    if isinstance(s, While):
        return (s.cond,), (s.body,)
    if isinstance(s, Skip):
        return (), ()
    raise TypeError(f"not a statement: {s!r}")


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@cached
@dataclass(frozen=True, slots=True)
class Program(Node):
    """A program ``Pi_i = lambda a1...ak. S``.

    ``pid`` is the unique program identifier used by ``notify`` statements;
    ``params`` are the argument names (the same tuple for every program in a
    consolidation batch, since they all read the same input).
    """

    pid: str
    params: tuple[str, ...]
    body: Stmt
    _hash: Optional[int] = slot()  # the lowering caches key on whole programs
    # Static cost bounds, filled by repro.analysis.static.validate.
    _bounds: Optional[dict[Any, Optional[int]]] = slot()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
