"""Coverage for the function table, static typing, and assorted lang utilities."""

import pytest

from repro.lang import (
    BOOL,
    FunctionTable,
    INT,
    LibraryFunction,
    STR,
    add,
    and_,
    arg,
    assign,
    block,
    call,
    check_program,
    eq,
    if_,
    ite_notify,
    lt,
    notify,
    program,
    type_of,
    var,
    while_,
)
from repro.lang.printer import program_to_str
from repro.lang.visitors import TypeError_, expr_size, notified_pids, qualify_locals, stmt_size


class TestFunctionTable:
    def test_register_and_lookup(self):
        ft = FunctionTable([LibraryFunction("f", lambda x: x, cost=5)])
        assert "f" in ft
        assert ft["f"].cost == 5
        assert len(ft) == 1

    def test_duplicate_rejected(self):
        ft = FunctionTable([LibraryFunction("f", lambda x: x)])
        with pytest.raises(ValueError):
            ft.register(LibraryFunction("f", lambda x: x + 1))

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            FunctionTable()["ghost"]

    def test_merged_union(self):
        a = FunctionTable([LibraryFunction("f", lambda x: x)])
        b = FunctionTable([LibraryFunction("g", lambda x: x)])
        merged = a.merged(b)
        assert merged.names() == ["f", "g"]

    def test_merged_conflict_rejected(self):
        a = FunctionTable([LibraryFunction("f", lambda x: x, cost=1)])
        b = FunctionTable([LibraryFunction("f", lambda x: x, cost=2)])
        with pytest.raises(ValueError):
            a.merged(b)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            LibraryFunction("f", lambda x: x, cost=-1)

    def test_bad_sort_rejected(self):
        with pytest.raises(ValueError):
            LibraryFunction("f", lambda x: x, result_sort="float")


FT = FunctionTable(
    [
        LibraryFunction("price", lambda r: r, cost=10),
        LibraryFunction("name", lambda r: "x", cost=10, result_sort=STR),
        LibraryFunction("is_hub", lambda r: True, cost=10, result_sort=BOOL),
        LibraryFunction("dist", lambda a, b: 1, cost=10, arg_sorts=(INT, INT)),
    ]
)


class TestTyping:
    def test_call_result_sorts(self):
        assert type_of(call("price", arg("r")), FT) == INT
        assert type_of(call("name", arg("r")), FT) == STR
        assert type_of(call("is_hub", arg("r")), FT) == BOOL

    def test_arity_checked(self):
        with pytest.raises(TypeError_):
            type_of(call("dist", arg("r")), FT)

    def test_arg_sorts_checked(self):
        with pytest.raises(TypeError_):
            type_of(call("dist", arg("r"), call("name", arg("r"))), FT)

    def test_string_ordering_rejected(self):
        with pytest.raises(TypeError_):
            type_of(lt(call("name", arg("r")), "abc"), FT)

    def test_string_equality_allowed(self):
        assert type_of(eq(call("name", arg("r")), "abc"), FT) == BOOL

    def test_bool_equality_rejected(self):
        with pytest.raises(TypeError_):
            type_of(eq(call("is_hub", arg("r")), True), FT)

    def test_arith_on_bool_rejected(self):
        with pytest.raises(TypeError_):
            type_of(add(call("is_hub", arg("r")), 1), FT)

    def test_check_program_accepts_valid(self):
        p = program(
            "q",
            ("r",),
            assign("p", call("price", arg("r"))),
            ite_notify("q", lt(var("p"), 100)),
        )
        check_program(p, FT)  # must not raise

    def test_check_program_rejects_int_notify(self):
        p = program("q", ("r",), notify("q", add(1, 2)))
        with pytest.raises(TypeError_):
            check_program(p, FT)

    def test_check_program_rejects_int_guard(self):
        p = program("q", ("r",), if_(add(1, 2), notify("q", True), notify("q", False)))
        with pytest.raises(TypeError_):
            check_program(p, FT)

    def test_var_sort_follows_assignment(self):
        p = program(
            "q",
            ("r",),
            assign("s", call("name", arg("r"))),
            ite_notify("q", eq(var("s"), "hub")),
        )
        check_program(p, FT)


class TestUtilities:
    def test_sizes(self):
        e = and_(lt(arg("a"), 3), eq(var("x"), 1))
        assert expr_size(e) == 7
        s = block(assign("x", add(1, 2)), notify("q", True))
        assert stmt_size(s) > expr_size(e) - 3

    def test_qualify_locals_prefixes_everything(self):
        p = program(
            "q7",
            ("r",),
            assign("x", call("price", arg("r"))),
            while_(lt(var("x"), 10), assign("x", add(var("x"), 1))),
            ite_notify("q7", lt(var("x"), 99)),
        )
        qualified = qualify_locals(p)
        from repro.lang.visitors import stmt_vars

        assert stmt_vars(qualified.body) == {"q7/x"}
        assert "q7.x := price(@r);" in program_to_str(qualified)

    def test_qualify_locals_returns_a_qualified_program_as_is(self):
        p = program("q", ("r",), assign("x", 1), notify("q", True))
        once = qualify_locals(p)
        assert qualify_locals(once) is once

    def test_notified_pids_through_control_flow(self):
        p = program(
            "a",
            ("r",),
            if_(
                lt(arg("r"), 0),
                notify("a", True),
                block(notify("a", False), notify("b", True)),
            ),
        )
        assert notified_pids(p.body) == {"a", "b"}
