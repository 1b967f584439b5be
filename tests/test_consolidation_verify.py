"""Tests for the dynamic Theorem 1 checker itself."""

from repro.consolidation import check_soundness
from repro.lang import (
    FunctionTable,
    LibraryFunction,
    arg,
    assign,
    call,
    ite_notify,
    lt,
    notify,
    program,
    var,
)

FT = FunctionTable([LibraryFunction("val", lambda r: (r * 13) % 50, cost=15)])


def filt(pid, bound):
    return program(
        pid,
        ("row",),
        assign("x", call("val", arg("row"))),
        ite_notify(pid, lt(var("x"), bound)),
    )


class TestDetection:
    def test_accepts_genuinely_equivalent(self):
        p1, p2 = filt("a", 10), filt("b", 30)
        # A hand-built correct consolidation: run p1's body then p2's.
        from repro.lang import block, Program
        from repro.lang.visitors import qualify_locals

        q1, q2 = qualify_locals(p1), qualify_locals(p2)
        merged = Program("m", ("row",), block(q1.body, q2.body))
        report = check_soundness([p1, p2], merged, FT, [{"row": r} for r in range(20)])
        assert report.ok
        assert report.speedup == 1.0  # no optimisation, identical cost

    def test_detects_wrong_notification(self):
        p1 = filt("a", 10)
        # "Consolidation" that inverts the answer.
        wrong = program(
            "m",
            ("row",),
            assign("x", call("val", arg("row"))),
            ite_notify("a", lt(var("x"), 9999)),
        )
        report = check_soundness([p1], wrong, FT, [{"row": r} for r in range(20)])
        assert not report.ok
        assert any(v.kind == "notifications" for v in report.violations)

    def test_detects_cost_regression(self):
        p1 = filt("a", 10)
        # Same answers but the call is made twice: costlier than sequential.
        from repro.lang import block

        costly = program(
            "m",
            ("row",),
            assign("x", call("val", arg("row"))),
            assign("y", call("val", arg("row"))),
            ite_notify("a", lt(var("x"), 10)),
        )
        report = check_soundness([p1], costly, FT, [{"row": r} for r in range(5)])
        assert not report.ok
        assert any(v.kind == "cost" for v in report.violations)

    def test_detects_missing_notification(self):
        p1, p2 = filt("a", 10), filt("b", 30)
        only_a = filt("a", 10)
        report = check_soundness([p1, p2], only_a, FT, [{"row": 1}])
        assert not report.ok

    def test_runtime_error_reported_not_raised(self):
        p1 = filt("a", 10)
        broken = program("m", ("row",), notify("a", lt(var("never_assigned"), 1)))
        report = check_soundness([p1], broken, FT, [{"row": 1}])
        assert not report.ok
        assert report.violations[0].kind == "error"

    def test_violation_cap(self):
        p1 = filt("a", 10)
        wrong = program(
            "m",
            ("row",),
            assign("x", call("val", arg("row"))),
            ite_notify("a", lt(var("x"), 9999)),
        )
        report = check_soundness(
            [p1], wrong, FT, [{"row": r} for r in range(50)], max_violations=3
        )
        assert len(report.violations) == 3

    def test_speedup_property(self):
        from repro.consolidation import Consolidator

        p1, p2 = filt("a", 10), filt("b", 30)
        merged = Consolidator(FT).consolidate(p1, p2)
        report = check_soundness([p1, p2], merged, FT, [{"row": r} for r in range(20)])
        assert report.ok
        assert report.speedup > 1.0
        assert report.consolidated_cost < report.sequential_cost


class TestSpeedupEdgeCases:
    """Regression: ``speedup`` must be finite and well-defined at zero cost."""

    def test_zero_cost_both_sides_is_unity(self):
        from repro.consolidation.verify import SoundnessReport

        report = SoundnessReport(inputs_checked=3, sequential_cost=0, consolidated_cost=0)
        assert report.speedup == 1.0

    def test_zero_consolidated_cost_stays_finite(self):
        from repro.consolidation.verify import SoundnessReport

        report = SoundnessReport(inputs_checked=3, sequential_cost=120, consolidated_cost=0)
        assert report.speedup == 120.0
        assert report.speedup != float("inf")

    def test_zero_cost_consolidation_end_to_end(self):
        # Programs with empty bodies cost nothing on either side; the
        # checker must report a clean run with speedup exactly 1.
        empty = program("z", ("row",), notify("z", lt(arg("row"), arg("row"))))
        report = check_soundness([empty], empty, FT, [{"row": r} for r in range(3)])
        assert report.ok
        assert report.speedup == 1.0
