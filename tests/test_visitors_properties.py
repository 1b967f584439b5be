"""Property-based tests for ``lang/visitors`` renaming and substitution.

A leaf's very first step into consolidation is ``qualify_locals`` — if
renaming ever captured a variable or missed an occurrence inside ``Notify``
payloads, nested ``While`` bodies or ``Call`` arguments, every downstream
theorem would be vacuous.  These properties pin the contract:

* renaming with an injective map is invertible and touches exactly the
  mapped names;
* ``qualify_locals`` is semantics-preserving (same notifications, same
  cost), returns a qualified program as is and is injective — also on
  programs whose locals already look prefixed (the parser accepts dotted
  identifiers);
* ``substitute`` replaces outside-in, so mutually-referential mappings
  (a swap) do not cascade.
"""

from hypothesis import given, settings, strategies as st

from repro import api
from repro.lang import (
    FunctionTable,
    LibraryFunction,
    add,
    arg,
    assign,
    block,
    call,
    if_,
    lift,
    lt,
    notify,
    program,
    sub,
    var,
    while_,
)
from repro.lang.ast import BoolOp, Cmp, Not, Var
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.visitors import (
    qualify_locals,
    rename_vars,
    stmt_vars,
    substitute,
)

FT = FunctionTable(
    [
        LibraryFunction("f", lambda x: (x * 5 + 3) % 11 - 5, cost=7),
        LibraryFunction("h", lambda x, y: (x - y) % 9 - 4, cost=9),
    ]
)

NAMES = ("x", "y", "z")


@st.composite
def int_exprs(draw, depth=2):
    base = st.one_of(
        st.integers(-6, 6).map(lift),
        st.sampled_from([arg("a"), var("x"), var("y"), var("z")]),
    )
    if depth <= 0:
        return draw(base)
    kind = draw(st.integers(0, 4))
    if kind <= 1:
        return draw(base)
    if kind == 2:
        return add(draw(int_exprs(depth - 1)), draw(int_exprs(depth - 1)))
    if kind == 3:
        return call("f", draw(int_exprs(depth - 1)))
    return call("h", draw(int_exprs(depth - 1)), draw(int_exprs(depth - 1)))


@st.composite
def stmts(draw, depth=2, allow_notify=True):
    """Statements over locals x/y/z exercising every syntactic position.

    Every loop gets its own dedicated counter (``c<depth>_<index>``) that
    nothing else assigns, so generated programs always terminate: nested
    statement lists only ever write x/y/z and *their own* lower-depth
    counters.  ``allow_notify=False`` inside loop bodies keeps runs
    clash-free (a second iteration re-notifying the same pid raises).
    """

    pieces = [assign(n, lift(i)) for i, n in enumerate(NAMES)]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 3 if depth > 0 else 1))
        if kind == 1 and not allow_notify:
            kind = 0
        if kind == 0:
            pieces.append(assign(draw(st.sampled_from(NAMES)), draw(int_exprs())))
        elif kind == 1:
            pieces.append(notify(f"p{len(pieces)}", lt(draw(int_exprs(1)), 3)))
        elif kind == 2:
            pieces.append(
                if_(
                    lt(draw(int_exprs(1)), 0),
                    draw(stmts(depth - 1, allow_notify)),
                    draw(stmts(depth - 1, allow_notify)),
                )
            )
        else:
            counter = f"c{depth}_{len(pieces)}"
            pieces.append(assign(counter, lift(0)))
            pieces.append(
                while_(
                    lt(var(counter), draw(st.integers(1, 3))),
                    block(
                        draw(stmts(depth - 1, allow_notify=False)),
                        assign(counter, add(var(counter), lift(1))),
                    ),
                )
            )
    return block(*pieces)


def _distinct_pids(s, seen=None):
    """Rebuild with globally unique notify pids so programs run cleanly."""

    from repro.lang.ast import If, Notify, Seq, While, seq

    seen = [] if seen is None else seen
    if isinstance(s, Notify):
        seen.append(s)
        return Notify(f"p{len(seen)}", s.expr)
    if isinstance(s, Seq):
        return seq(*(_distinct_pids(t, seen) for t in s.stmts))
    if isinstance(s, If):
        return If(s.cond, _distinct_pids(s.then, seen), _distinct_pids(s.orelse, seen))
    if isinstance(s, While):
        return While(s.cond, _distinct_pids(s.body, seen))
    return s


@given(stmts(), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_qualify_locals_preserves_semantics(body, a):
    body = _distinct_pids(body)
    p = program("q", ("a",), body)
    renamed = qualify_locals(p)
    interp = Interpreter(FT)
    r1 = interp.run(p, {"a": a})
    r2 = interp.run(renamed, {"a": a})
    assert r1.notifications == r2.notifications
    assert r1.cost == r2.cost


@given(stmts())
@settings(max_examples=60, deadline=None)
def test_rename_vars_injective_roundtrip(body):
    renaming = {n: f"t.{n}" for n in NAMES}
    inverse = {v: k for k, v in renaming.items()}
    forward = rename_vars(body, renaming)
    assert not (stmt_vars(forward) & set(NAMES))
    assert rename_vars(forward, inverse) == body


@given(stmts())
@settings(max_examples=40, deadline=None)
def test_qualify_locals_returns_a_qualified_program_as_is(body):
    body = _distinct_pids(body)
    p = program("q", ("a",), body)
    once = qualify_locals(p)
    assert qualify_locals(once) is once


DOTTED = ("x", "q.x", "q.q.x", "y", "q.y", "r.x")


@given(st.lists(st.sampled_from(DOTTED), min_size=1, unique=True), st.integers(-5, 5))
def test_qualify_locals_is_injective_on_dotted_locals(names, a):
    """Distinct locals stay distinct, whatever prefix they already carry."""

    body = block(
        *(assign(n, add(arg("a"), lift(i))) for i, n in enumerate(names)),
        *(notify(f"p{i}", lt(var(n), lift(2))) for i, n in enumerate(names)),
    )
    p = program("q", ("a",), body)
    renamed = qualify_locals(p)
    assert stmt_vars(renamed.body) == {f"q/{n}" for n in names}
    assert qualify_locals(renamed) is renamed
    interp = Interpreter(FT)
    assert interp.run(renamed, {"a": a}).notifications == interp.run(p, {"a": a}).notifications


def test_consolidation_keeps_a_local_named_like_a_prefixed_one():
    """``x`` and ``q1.x`` both became ``q1.x``: the merged program notified
    ``q1 false``, certified, where the original says ``true``."""

    q1 = parse_program(
        "program q1(row) { x := 1; q1.x := 2;"
        " if (x < q1.x) { notify q1 true; } else { notify q1 false; } }"
    )
    q2 = parse_program("program q2(row) { notify q2 true; }")
    report = api.consolidate([q1, q2], FT)
    interp = Interpreter(FT)
    assert interp.run(q1, {"row": 0}).notifications == {"q1": True}
    assert interp.run(report.program, {"row": 0}).notifications == {"q1": True, "q2": True}
    assert report.all_certified


def test_rename_covers_notify_nested_while_and_call_args():
    body = block(
        assign("x", lift(0)),
        while_(
            lt(var("x"), 3),
            block(
                while_(
                    lt(var("y"), var("x")),
                    assign("y", add(var("y"), lift(1))),
                ),
                assign("x", add(var("x"), lift(1))),
            ),
        ),
        notify("q", lt(call("h", var("x"), sub(var("y"), lift(1))), 5)),
    )
    renamed = rename_vars(body, {"x": "q.x", "y": "q.y"})
    assert stmt_vars(renamed) == {"q.x", "q.y"}
    # The notify payload's Call arguments were rewritten too.
    notify_stmt = renamed.stmts[-1]
    call_expr = notify_stmt.expr.left
    assert call_expr.args[0] == Var("q.x")
    assert call_expr.args[1].left == Var("q.y")


def test_substitute_is_outside_in():
    swap = {Var("x"): Var("y"), Var("y"): Var("x")}
    e = lt(add(var("x"), var("y")), var("x"))
    swapped = substitute(e, swap)
    assert swapped == lt(add(var("y"), var("x")), var("y"))
    # Swapping twice is the identity — replacements are never re-visited.
    assert substitute(swapped, swap) == e


def test_substitute_replaces_whole_subtrees_once():
    key = add(var("x"), lift(1))
    mapping = {key: var("x")}
    e = add(add(var("x"), lift(1)), lift(1))
    # Outer tree is not a key; the inner occurrence is replaced wholesale,
    # and the result (which again matches the key shape) is not re-visited.
    assert substitute(e, mapping) == add(var("x"), lift(1))


def test_substitute_reaches_all_boolean_connectives():
    e = BoolOp(
        "and",
        Not(Cmp("<", var("x"), lift(0))),
        BoolOp("or", Cmp("=", var("x"), lift(1)), Cmp("<=", var("x"), lift(9))),
    )
    expected = BoolOp(
        "and",
        Not(Cmp("<", var("w"), lift(0))),
        BoolOp("or", Cmp("=", var("w"), lift(1)), Cmp("<=", var("w"), lift(9))),
    )
    assert substitute(e, {Var("x"): Var("w")}) == expected
