"""The ``related`` heuristic of the consolidation algorithm (Figure 8).

``related(a, b)`` decides — cheaply and fallibly — whether consolidating
``a`` against ``b`` is likely to expose cross-simplification opportunities.
The paper suggests "checking for similar predicates or calls to the same
function"; we implement exactly that:

* two fragments are related when they call a common library function, or
* when they contain a comparison against the *same non-trivial expression*
  (e.g. both test ``price(row)``/a shared argument accessor against some
  bound).

Because every UDF in a batch reads the same input row, merely sharing an
argument is deliberately *not* enough — that would make everything related
and push the algorithm into the code-size-exploding If 3 rule for unrelated
query families.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple, Union

from ..lang.ast import (
    Arg,
    BoolConst,
    Call,
    Cmp,
    Expr,
    IntConst,
    Stmt,
    StrConst,
    Var,
    While,
    operands,
    stmt_parts,
)
from ..lang.visitors import expr_vars, substitute
from ..nodeslots import derived, union

__all__ = [
    "Features",
    "related",
    "call_features",
    "comparison_subjects",
    "expr_features",
    "is_trivial",
    "loop_tests",
    "shares_work",
]


def is_trivial(e: Expr) -> bool:
    """Constants, bare variables and bare arguments carry no sharing signal."""

    return isinstance(e, (IntConst, StrConst, BoolConst, Var, Arg))


class Features(NamedTuple):
    """What ``related`` compares: the sharing signals of one fragment.

    ``calls`` — a call whose arguments are all ground (arguments/constants)
    contributes its *full* expression: ``has_direct(row, 0, 5)`` and
    ``has_direct(row, 0, 2)`` can share nothing, so a bare name match would
    trigger If 3 embedding (and exponential growth) across a whole batch of
    disjoint routes.  A call with variable arguments contributes only its
    name: whether two such calls coincide is then a semantic question the
    cross-simplifier settles, and loop fusion needs the optimistic signal.

    ``subjects`` — comparison operands that carry a sharing signal.
    Non-trivial operands always qualify; a bare *argument* operand does too
    (two programs comparing the same shared input, as in Figure 6's
    ``x > a`` vs ``x <= a``).  Constants and bare locals do not — locals
    are renamed per program, so a syntactic match is impossible anyway.

    ``compared_vars`` — the bare locals among the comparison operands: they
    can match only semantically, which the algorithm probes separately.
    """

    calls: frozenset[Union[Call, str]]
    subjects: frozenset[Expr]
    compared_vars: frozenset[str]

    def overlap(self, other: "Features") -> bool:
        """Whether the two fragments share a call signature or a comparison subject."""

        return not (self.calls.isdisjoint(other.calls) and self.subjects.isdisjoint(other.subjects))


_GROUND = (Arg, IntConst, StrConst, BoolConst)
_NONE: frozenset[Any] = frozenset()
_NO_FEATURES = Features(_NONE, _NONE, _NONE)


@derived("_features")
def expr_features(x: Expr | Stmt) -> Features:
    """The :class:`Features` of an expression or statement.

    Read off the node: the features of a fragment are its own contribution
    plus its children's, so each node is visited once however many ``If``s
    ask about the program around it.
    """

    if is_trivial(x):
        return _NO_FEATURES
    if isinstance(x, Stmt):
        exprs, subs = stmt_parts(x)
        children: tuple[Expr | Stmt, ...] = (*exprs, *subs)
    else:
        children = operands(x)
    parts = [inner for inner in map(expr_features, children) if inner is not _NO_FEATURES]
    if isinstance(x, Call):
        # An equal twin, not ``x``: the set ends up in ``x``'s own slot, and
        # a node that reaches itself is freed only by the cycle collector.
        ground = all(isinstance(a, _GROUND) for a in x.args)
        signature = frozenset((Call(x.func, x.args) if ground else x.func,))
        parts.append(Features(signature, _NONE, _NONE))
    elif isinstance(x, Cmp):
        sides = (x.left, x.right)
        subjects = frozenset(s for s in sides if isinstance(s, Arg) or not is_trivial(s))
        compared = frozenset(s.name for s in sides if isinstance(s, Var))
        if subjects or compared:
            parts.append(Features(_NONE, subjects, compared))
    if len(parts) > 1:
        return Features(*map(union, zip(*parts)))
    # One contributor: the parent shares its features, sets and tuple.
    return parts[0] if parts else _NO_FEATURES


def call_features(exprs: Iterable[Expr]) -> frozenset[Union[Call, str]]:
    """Sharing signatures of the calls in ``exprs`` (:attr:`Features.calls`)."""

    return union(expr_features(e).calls for e in exprs)


def comparison_subjects(exprs: Iterable[Expr]) -> frozenset[Expr]:
    """Signal-carrying comparison operands in ``exprs`` (:attr:`Features.subjects`)."""

    return union(expr_features(e).subjects for e in exprs)


def related(a: Expr | Stmt, b: Expr | Stmt) -> bool:
    """Heuristic: is cross-simplification between ``a`` and ``b`` plausible?"""

    return expr_features(a).overlap(expr_features(b))


_ANY_LOCAL = Var("_")


def loop_tests(s: Stmt) -> frozenset[Expr]:
    """The test of every ``While`` in ``s``, each local read as one placeholder.

    Two programs name their locals apart (each leaf qualifies its own), so
    only the test's *shape* can match: ``while (m <= 12)`` and ``while
    (k <= 12)`` have one, and the Loop rules fuse such loops even when
    their bodies call different functions.
    """

    tests: set[Expr] = set()

    def walk(st: Stmt) -> None:
        if isinstance(st, While):
            tests.add(substitute(st.cond, {Var(v): _ANY_LOCAL for v in expr_vars(st.cond)}))
        for sub in stmt_parts(st)[1]:
            walk(sub)

    walk(s)
    return frozenset(tests)


def shares_work(a: Stmt, b: Stmt) -> bool:
    """Whether the calculus has anything to share between ``a`` and ``b``:
    a call signature or comparison subject (:func:`related`), or two loops
    with the same test (:func:`loop_tests`).  A pair that shares neither is
    composed sequentially, without running the calculus."""

    return related(a, b) or not loop_tests(a).isdisjoint(loop_tests(b))
