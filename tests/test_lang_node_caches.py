"""The per-node slots of ``repro.lang.ast`` and what reads them.

* The slots are invisible: not constructor arguments, not compared, not
  printed, not copied by ``dataclasses.replace``.
* Every slot-backed collector equals the full walk it replaced
  (``repro.testing.reference``), on cold, partly filled and full nodes.
* ``rename_vars`` returns what it does not touch as the same object.
* No slot crosses a process boundary: a program pickled under another
  ``PYTHONHASHSEED`` hashes and compares like a locally built twin, and a
  batch merged from unpickled (cold) copies equals the warm batch's merge.
"""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.analysis.related import expr_features
from repro.consolidation import consolidate_all
from repro.datasets import generate_weather
from repro.lang.ast import (
    Arg,
    Assign,
    BinOp,
    BoolOp,
    Call,
    Cmp,
    Expr,
    If,
    IntConst,
    Not,
    Notify,
    Program,
    Seq,
    StrConst,
    Var,
    While,
    seq,
)
from repro.lang.compile import compile_cached
from repro.lang.functions import FunctionTable, LibraryFunction
from repro.lang.parser import parse_program
from repro.lang.visitors import (
    assigned_vars,
    expr_args,
    expr_calls,
    expr_size,
    expr_vars,
    rename_vars,
    stmt_size,
    stmt_vars,
    subexpressions,
)
from repro.queries import DOMAIN_QUERIES
from repro.testing import reference

SLOTS = ("_hash", "_vars", "_args", "_calls", "_assigned", "_features", "_size")

leaves = st.one_of(
    st.integers(-3, 3).map(IntConst),
    st.sampled_from(["a", "b"]).map(StrConst),
    st.sampled_from(["row", "k"]).map(Arg),
    st.sampled_from(["x", "y", "q.z"]).map(Var),
)
int_exprs = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*"]), inner, inner),
        st.builds(
            lambda f, args: Call(f, tuple(args)),
            st.sampled_from(["f", "g"]),
            st.lists(inner, max_size=2),
        ),
    ),
    max_leaves=6,
)
bool_exprs = st.recursive(
    st.builds(Cmp, st.sampled_from(["<", "<=", "="]), int_exprs, int_exprs),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(BoolOp, st.sampled_from(["and", "or"]), inner, inner),
    ),
    max_leaves=4,
)
exprs = st.one_of(int_exprs, bool_exprs)
simple_stmts = st.one_of(
    st.builds(Assign, st.sampled_from(["x", "y", "w"]), int_exprs),
    st.builds(Notify, st.sampled_from(["p", "q"]), bool_exprs),
)
stmts = st.recursive(
    simple_stmts,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda parts: seq(*parts)),
        st.builds(If, bool_exprs, inner, inner),
        st.builds(While, bool_exprs, inner),
    ),
    max_leaves=6,
)


def twin(node):
    """A structurally equal node sharing no object (and no slot) with ``node``."""

    return pickle.loads(pickle.dumps(node))


def filled(node) -> dict:
    return {name: getattr(node, name) for name in SLOTS if getattr(node, name, None) is not None}


def ask_everything(x) -> None:
    hash(x)
    expr_features(x)
    if isinstance(x, Expr):
        expr_vars(x), expr_args(x), expr_calls(x), expr_size(x)
    else:
        stmt_vars(x), assigned_vars(x), stmt_size(x)


def same_as_full_walk(x) -> None:
    features = expr_features(x)
    assert tuple(features) == reference.expr_features_full_walk(x)
    assert all(isinstance(part, frozenset) for part in features)
    if isinstance(x, Expr):
        assert expr_vars(x) == reference.expr_vars_full_walk(x)
        assert expr_args(x) == reference.expr_args_full_walk(x)
        assert expr_calls(x) == reference.expr_calls_full_walk(x)
        assert expr_size(x) == reference.expr_size_full_walk(x)
        collected = (expr_vars(x), expr_args(x), expr_calls(x))
    else:
        assert stmt_vars(x) == reference.stmt_vars_full_walk(x)
        assert assigned_vars(x) == reference.assigned_vars_full_walk(x)
        assert stmt_size(x) == reference.stmt_size_full_walk(x)
        collected = (stmt_vars(x), assigned_vars(x))
    assert all(isinstance(names, frozenset) for names in collected)


@settings(max_examples=300)
@given(st.one_of(exprs, stmts), st.data())
def test_slot_backed_collectors_equal_the_full_walk(x, data):
    same_as_full_walk(x)  # cold: every slot empty
    same_as_full_walk(x)  # full: every answer is a slot read
    # Partly filled: some inner node answered before its parent is asked.
    cold = twin(x)
    if isinstance(cold, Expr):
        ask_everything(data.draw(st.sampled_from(list(subexpressions(cold)))))
    same_as_full_walk(cold)


@given(st.one_of(exprs, stmts))
def test_slots_are_invisible(x):
    cold = twin(x)
    ask_everything(x)
    assert filled(cold) == {}
    assert cold == x and hash(cold) == hash(x)
    assert repr(cold) == repr(x)
    assert {x: "hit"}[cold] == "hit" and cold in {x}
    if dataclasses.is_dataclass(x) and filled(x):
        # ``replace`` goes through the constructor: no slot is copied ...
        assert filled(dataclasses.replace(x)) == {}
        # ... and none is a constructor argument.
        with pytest.raises(TypeError):
            type(x)(*(getattr(x, f.name) for f in dataclasses.fields(x)))
        with pytest.raises((TypeError, ValueError)):
            dataclasses.replace(x, _hash=0)


def test_leaves_carry_no_slot():
    for leaf in (IntConst(1), StrConst("a"), Arg("row"), Var("x"), seq()):
        assert not any(hasattr(leaf, name) for name in SLOTS)
    assert expr_vars(Var("x")) == {"x"} and expr_args(Arg("row")) == {"row"}
    assert expr_size(IntConst(1)) == 1 and stmt_size(seq()) == 1


@given(stmts, st.dictionaries(st.sampled_from(["x", "y", "w", "q.z", "unused"]), st.just("r"), max_size=2))
def test_rename_vars_returns_what_it_does_not_touch(s, picked):
    renaming = {old: f"{new}.{old}" for old, new in picked.items()}
    renamed = rename_vars(s, renaming)
    assert stmt_vars(renamed) == {renaming.get(n, n) for n in reference.stmt_vars_full_walk(s)}
    if stmt_vars(s).isdisjoint(renaming):
        assert renamed is s
    if isinstance(s, Seq) and isinstance(renamed, Seq):
        for before, after in zip(s.stmts, renamed.stmts):
            assert (after is before) == stmt_vars(before).isdisjoint(renaming)


def test_rename_vars_shares_untouched_subtrees():
    untouched_call = Call("f", (Arg("row"), Var("y")))
    touched = Cmp("<", BinOp("+", Var("x"), untouched_call), IntConst(3))
    aside = Notify("p", Cmp("=", Var("y"), IntConst(0)))
    body = seq(Assign("x", untouched_call), aside, If(touched, aside, seq()))
    renamed = rename_vars(body, {"x": "q.x"})
    assign, kept, branch = renamed.stmts
    assert assign == Assign("q.x", untouched_call) and assign.expr is untouched_call
    assert kept is aside and branch.then is aside
    assert branch.cond.left.right is untouched_call
    assert branch.cond.left.left == Var("q.x")
    assert rename_vars(body, {"unused": "q.unused"}) is body
    assert rename_vars(body, {}) is body


SOURCE = (
    "program q1(row) { x := f(@row, 3) + 1; s := 0;"
    " while (s < x) { s := s + g(@row); }"
    " if (x < 10 and s != 4) { notify q1 true; } else { notify q1 f(@row, 3) <= s; } }"
)


def test_caches_do_not_survive_pickling():
    program = parse_program(SOURCE)
    hash(program)
    ask_everything(program.body)
    assert program._hash is not None and filled(program.body)
    clone = twin(program)
    assert clone == program and clone is not program
    assert clone._hash is None and filled(clone.body) == {}
    assert all(filled(part) == {} for part in clone.body.stmts)


def test_cached_facts_do_not_cross_a_process():
    """``str`` hashes are salted per interpreter: a hash — or a ``frozenset``
    laid out by such hashes — cached in one process must not arrive with
    the program in another."""

    child_seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=child_seed)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import pickle, sys\n"
        "from repro.lang.parser import parse_program\n"
        "from repro.lang.visitors import stmt_vars, stmt_size\n"
        "from repro.analysis.related import expr_features\n"
        f"p = parse_program({SOURCE!r})\n"
        "h = hash(p); stmt_vars(p.body); stmt_size(p.body); expr_features(p.body); {p: 1}\n"
        "assert p._hash == h and p.body._hash is not None and p.body._vars\n"
        "sys.stdout.buffer.write(h.to_bytes(8, 'big', signed=True) + pickle.dumps(p))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
    ).stdout
    child_hash = int.from_bytes(out[:8], "big", signed=True)
    shipped = pickle.loads(out[8:])

    local = parse_program(SOURCE)
    assert hash(local) != child_hash, "the two interpreters must salt differently"
    assert shipped == local
    assert hash(shipped) == hash(local)
    assert shipped in {local} and {shipped: "hit"}[local] == "hit"
    assert stmt_vars(shipped.body) == stmt_vars(local.body)
    assert expr_features(shipped.body) == expr_features(local.body)


def test_merged_batch_is_equal_from_unpickled_programs():
    """A batch merged from cold copies (no slot filled) comes out equal to
    the same batch merged from programs whose every cache is warm."""

    weather = generate_weather(cities=6, years=1)
    batch = DOMAIN_QUERIES["weather"].make_batch(weather, "Q1", 6, 0)
    for program in batch:
        hash(program)
        ask_everything(program.body)
    warm = consolidate_all(batch, weather.functions)
    cold_batch = [twin(program) for program in batch]
    assert cold_batch == batch
    assert all(p._hash is None and filled(p.body) == {} for p in cold_batch)
    cold = consolidate_all(cold_batch, weather.functions)
    assert cold.program == warm.program
    assert cold.pair_consolidations == warm.pair_consolidations
    assert [(r.left, r.right) for r in cold.pairs] == [(r.left, r.right) for r in warm.pairs]
    assert hash(cold.program) == hash(warm.program)
    assert {warm.program: "hit"}[cold.program] == "hit"
    assert stmt_vars(cold.program.body) == stmt_vars(warm.program.body)
    assert stmt_size(cold.program.body) == stmt_size(warm.program.body)


def test_lowering_cache_is_keyed_by_the_hash_slot():
    functions = FunctionTable(
        [LibraryFunction("f", lambda row, k: row + k), LibraryFunction("g", lambda row: 1)]
    )
    program = parse_program(SOURCE)
    assert isinstance(program, Program) and program._hash is None
    compiled = compile_cached(program, functions)
    assert program._hash == hash(program)
    cold = twin(program)
    assert compile_cached(cold, functions) is compiled
    assert cold._hash == program._hash
