"""The delta-debugging minimiser: shrinks hard, never changes the failure."""

import pytest

from repro.lang.ast import (
    Assign, BinOp, BoolConst, Call, Cmp, If, IntConst, Notify, Program, Var, seq,
)
from repro.lang.visitors import notified_pids, stmt_size
from repro.testing import (
    case_inputs,
    generate_case,
    miscompile,
    run_battery,
    schema_dataset,
    shrink_batch,
)
from repro.testing.shrinker import batch_size

WEATHER = schema_dataset("weather")
INPUTS = case_inputs("weather")


def test_non_failing_batch_returned_unchanged():
    programs = generate_case(0, "weather", 2)
    out = shrink_batch(programs, lambda c: False)
    assert out == list(programs)


def test_shrinks_to_the_failing_program():
    """Only q1's body matters to this predicate; everything else must go."""

    programs = generate_case(4, "weather", 3, n_programs=3)

    def is_failing(candidate):
        return any(p.pid == "q1" for p in candidate)

    out = shrink_batch(programs, is_failing)
    assert [p.pid for p in out] == ["q1"]
    assert batch_size(out) <= stmt_size(programs[1].body)


def test_interface_is_preserved():
    """A shrink may not drop a surviving program's notify statements."""

    programs = generate_case(4, "weather", 3, n_programs=2)
    seen = []

    def is_failing(candidate):
        seen.append(candidate)
        return True

    out = shrink_batch(programs, is_failing, max_checks=100)
    for candidate in seen:
        for p in candidate:
            assert notified_pids(p.body) == {p.pid}
    for p in out:
        assert notified_pids(p.body) == {p.pid}


def test_max_checks_bounds_predicate_calls():
    programs = generate_case(4, "weather", 3, n_programs=3)
    calls = [0]

    def is_failing(candidate):
        calls[0] += 1
        return True

    shrink_batch(programs, is_failing, max_checks=10)
    assert calls[0] <= 11  # the initial confirmation + max_checks


def test_miscompile_shrinks_to_minimal_program():
    """Acceptance: a deliberately injected miscompile is caught and the
    delta-debugger reduces the failing batch to ≤ 10 AST nodes."""

    programs = generate_case(1, "weather", 3)
    with miscompile():
        result = run_battery(
            programs, WEATHER, inputs=INPUTS,
            check_validator=False,
        )
        assert not result.ok, "the battery must catch the miscompile"
        oracles = {d.oracle for d in result.discrepancies}

        def still_fails(candidate):
            if not candidate:
                return False
            rerun = run_battery(
                candidate, WEATHER, inputs=INPUTS,
                check_validator=False,
            )
            return any(d.oracle in oracles for d in rerun.discrepancies)

        minimized = shrink_batch(programs, still_fails, max_checks=300)
    assert batch_size(minimized) <= 10, minimized
    # The known floor: a single program whose one notification gets flipped.
    assert len(minimized) == 1
    assert notified_pids(minimized[0].body) == {minimized[0].pid}


def test_structural_reductions_reach_expressions():
    """An irrelevant arithmetic subtree inside the predicate shrinks away."""

    big = Program("q0", ("row",), seq(
        Assign("x", BinOp("+", BinOp("*", IntConst(3), IntConst(4)),
                          Call("yearly_rainfall", (Var("row"),)))),
        If(Cmp("<", Var("x"), IntConst(10_000)),
           Notify("q0", BoolConst(True)),
           Notify("q0", BoolConst(False))),
    ))

    def is_failing(candidate):
        return bool(candidate) and candidate[0].pid == "q0"

    out = shrink_batch([big], is_failing)
    assert stmt_size(out[0].body) < stmt_size(big.body)
    assert notified_pids(out[0].body) == {"q0"}
