"""One emitter, two frames: what the shared lowering must hold in both.

``repro.lang.compile._Emitter`` is the only translator from Figure-1 to
Python; the per-record closure and the batch kernel are two frames around
its body.  These tests pin the hazards that sharing introduces — a row
loop keeps Python locals alive from one row to the next — and the two
optimisations that live in the shared emitter, counted in the generated
source rather than timed:

* (B) dominated-check elimination: a sort check on a parameter or local is
  emitted once per dominating point until the name is assigned again, in
  both frames;
* (C) constant cost columns: a control-flow-free kernel keeps no ``_cost``
  books at all.
"""

import pytest

from repro.lang import parse_program
from repro.lang.compile import compile_program
from repro.lang.functions import FunctionTable
from repro.lang.interp import Interpreter, InterpError
from repro.lang.vectorize import vectorize_program
from repro.telemetry import Telemetry

FT = FunctionTable({})


def _sources(program):
    kernel = vectorize_program(program, FT)
    assert kernel.vectorized, kernel.degraded_reason
    return compile_program(program, FT).source, kernel.source


def _interp_rows(program, rows):
    interp = Interpreter(FT)
    out = []
    for row in rows:
        r = interp.run(program, {"row": row})
        out.append((r.cost, r.notifications))
    return out


def _batch_rows(program, rows, telemetry=None):
    batch = vectorize_program(program, FT, telemetry=telemetry).run_batch(
        {"row": rows}, len(rows)
    )
    per_record = [(batch.costs[i], batch.notifications_at(i)) for i in range(len(rows))]
    return batch, per_record


# -- the row loop's own hazard: stale locals ---------------------------------

STALE_SRC = """
program p(row) {
  if (@row < 0) { v := 1; } else { skip; }
  notify p (v == 1);
}
"""


class TestStaleLocalAcrossRows:
    def test_second_row_does_not_see_the_first_rows_local(self):
        """Row -5 assigns ``v``; row 3 must not read it.  The kernel raises
        (nothing is committed), the batch degrades, and the per-row rung
        reports the interpreter's error."""

        program = parse_program(STALE_SRC)
        kernel = vectorize_program(program, FT)
        assert kernel.vectorized
        with pytest.raises(InterpError, match="unbound variable 'v'"):
            kernel.plan(2, kernel.max_steps, [-5, 3])
        telemetry = Telemetry.capture()
        with pytest.raises(InterpError, match="unbound variable 'v'"):
            _batch_rows(program, [-5, 3], telemetry)
        assert telemetry.counter("vectorized_fallbacks_total").value == 1
        with pytest.raises(InterpError, match="unbound variable 'v'"):
            Interpreter(FT).run(program, {"row": 3})

    def test_rows_that_all_assign_stay_on_the_kernel(self):
        program = parse_program(STALE_SRC)
        batch, per_record = _batch_rows(program, [-5, -1])
        assert not batch.fallback
        assert per_record == _interp_rows(program, [-5, -1])

    def test_definitely_assigned_locals_pay_no_reset(self):
        program = parse_program(
            "program p(row) { v := 1; if (@row < 0) { v := 2; } else { skip; }"
            " notify p (v == 1); }"
        )
        assert "_UNDEF" not in vectorize_program(program, FT).source


# -- (B) dominated-check elimination -----------------------------------------


def _row_checks(source):
    return sum("isinstance(_u0, int)" in line for line in source.splitlines())


def _checks(source):
    return sum("isinstance(" in line for line in source.splitlines())


class TestDominatedChecks:
    def test_one_check_per_parameter_in_both_frames(self):
        program = parse_program(
            "program p(row) { x0 := @row * 2; x1 := @row - x0; notify p (x1 < 3); }"
        )
        compiled, kernel = _sources(program)
        assert _row_checks(compiled) == 1
        assert _row_checks(kernel) == 1
        batch, per_record = _batch_rows(program, [1, 2, 3])
        assert not batch.fallback
        assert per_record == _interp_rows(program, [1, 2, 3])

    def test_check_inside_an_arm_does_not_cover_the_join(self):
        """Row 1 takes the arm (and its check); row "s" does not, and its
        use after the join must still be checked."""

        program = parse_program(
            "program p(row) { if (@row == 1) { x := @row + 1; } else { x := 0; }"
            " y := @row * 2; notify p (y < x); }"
        )
        compiled, kernel = _sources(program)
        assert _row_checks(compiled) == 2
        assert _row_checks(kernel) == 2
        with pytest.raises(InterpError, match="arithmetic on non-integers"):
            Interpreter(FT).run(program, {"row": "s"})
        with pytest.raises(InterpError, match="arithmetic on non-integers"):
            compile_program(program, FT).run({"row": "s"})
        telemetry = Telemetry.capture()
        with pytest.raises(InterpError, match="arithmetic on non-integers"):
            _batch_rows(program, [1, "s"], telemetry)
        assert telemetry.counter("vectorized_fallbacks_total").value == 1

    def test_check_in_a_condition_covers_what_follows(self):
        program = parse_program(
            "program p(row) { if (@row * 2 < 9) { x := @row + 1; } else { x := 0; }"
            " y := @row * 3; notify p (y < x); }"
        )
        compiled, kernel = _sources(program)
        assert _row_checks(compiled) == 1
        assert _row_checks(kernel) == 1
        batch, per_record = _batch_rows(program, [1, 7])
        assert not batch.fallback
        assert per_record == _interp_rows(program, [1, 7])

    def test_reassigned_parameter_keeps_every_check(self):
        """``row := "s"`` makes ``@row`` mutable: a check made before the
        assignment says nothing about the value read after it."""

        program = parse_program(
            'program p(row) { x := @row + 1; row := "s"; y := @row + 1;'
            " notify p (x < y); }"
        )
        compiled, kernel = _sources(program)
        assert _row_checks(compiled) == 2
        assert _row_checks(kernel) == 2
        with pytest.raises(InterpError, match="arithmetic on non-integers"):
            Interpreter(FT).run(program, {"row": 1})
        with pytest.raises(InterpError, match="arithmetic on non-integers"):
            compile_program(program, FT).run({"row": 1})
        with pytest.raises(InterpError, match="arithmetic on non-integers"):
            _batch_rows(program, [1, 2])


    def test_a_local_read_three_times_is_checked_once(self):
        program = parse_program(
            "program p(row) { x := @row; a := x + 1; b := x * 2; c := x - 3;"
            " notify p (a + b < c); }"
        )
        compiled, kernel = _sources(program)
        assert _checks(compiled) == _checks(kernel) == 1
        batch, per_record = _batch_rows(program, [1, 5])
        assert not batch.fallback
        assert per_record == _interp_rows(program, [1, 5])

    @pytest.mark.parametrize(
        "reassign, checks",
        [
            ("x := (@row == 1);", 2),
            ('if (a < 5) { x := "s"; } else { skip; }', 2),
            ('i := 0; while (i < 2) { a := x + 1; x := "s"; i := i + 1; }', 3),
        ],
        ids=["unknown-sort", "if-arm", "loop-body"],
    )
    def test_a_reassignment_is_checked_again(self, reassign, checks):
        """A check before ``x := e`` says nothing about ``x`` after it, nor
        after an arm, or in a later iteration, that assigned it."""

        program = parse_program(
            f"program p(row) {{ x := @row; a := x + 1; {reassign} b := x + 2;"
            " notify p (a < b); }"
        )
        compiled, kernel = _sources(program)
        assert _checks(compiled) == _checks(kernel) == checks
        with pytest.raises(InterpError, match="arithmetic on non-integers"):
            Interpreter(FT).run(program, {"row": 1})
        with pytest.raises(InterpError, match="arithmetic on non-integers"):
            compile_program(program, FT).run({"row": 1})
        with pytest.raises(InterpError, match="arithmetic on non-integers"):
            _batch_rows(program, [1])


# -- (C) constant cost columns -----------------------------------------------


class TestConstantCostColumns:
    def test_control_flow_free_kernel_keeps_no_cost_books(self):
        program = parse_program(
            "program p(row) { x := @row * 2; notify a (x < 3); y := x + @row;"
            " notify b (y < 9); }"
        )
        source = vectorize_program(program, FT).source
        assert "_cost" not in source.replace("_costs", "")
        batch, per_record = _batch_rows(program, [0, 1, 5])
        assert not batch.fallback
        assert per_record == _interp_rows(program, [0, 1, 5])
        assert batch.partial == {}
        assert batch.hits == {"a": [0, 1], "b": [0, 1]}

    def test_costs_differ_by_arm_and_still_match(self):
        program = parse_program(
            "program p(row) { if (@row < 2) { x := @row * @row + 1; notify p (x < 2); }"
            " else { notify p false; } }"
        )
        assert "_cost = 0" in vectorize_program(program, FT).source
        rows = [0, 1, 5]
        batch, per_record = _batch_rows(program, rows)
        assert not batch.fallback
        assert per_record == _interp_rows(program, rows)
        assert len(set(batch.costs)) == 2
        # Every path broadcasts exactly once, so even a pid notified under
        # an ``if`` keeps no presence mask; the literal ``false`` arm leaves
        # no trace in the kernel at all.
        assert batch.partial == {}
        assert batch.hits == {"p": [0]}
        assert "_h0a" not in vectorize_program(program, FT).source.split("else:")[1]

    def test_a_pid_some_path_skips_gets_its_own_mask(self):
        program = parse_program(
            "program p(row) { if (@row < 2) { notify p true; } else { skip; } }"
        )
        batch, per_record = _batch_rows(program, [0, 5])
        assert not batch.fallback
        assert batch.partial == {"p": [True, False]}
        assert batch.hits == {"p": [0]}
        assert per_record == _interp_rows(program, [0, 5])
