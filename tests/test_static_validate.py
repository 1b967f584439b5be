"""The consolidation translation validator, end to end.

Three layers:

* unit — :func:`validate_consolidation` proves correct merges, leaves
  unprovable ones ``unknown`` and refutes definite notify violations;
* integration — ``consolidate_all(static_validate=True)`` certifies every
  pair the real engine produces on the paper domains (the "no false
  alarms" acceptance criterion), and the entailment pre-check skips SMT
  queries on a Figure-9-style run;
* CLI — ``repro lint`` exit codes and JSON output.
"""

import json

import pytest

from repro.analysis.static import validate_consolidation
from repro.analysis.static.validate import PROVED, REFUTED, UNKNOWN
from repro.cli import main
from repro.consolidation import ConsolidationOptions, Consolidator, consolidate_all
from repro.lang import (
    FunctionTable,
    LibraryFunction,
    Program,
    add,
    arg,
    assign,
    block,
    call,
    if_,
    ite_notify,
    lt,
    notify,
    program,
    var,
)
from repro.lang.visitors import qualify_locals

FT = FunctionTable([LibraryFunction("val", lambda r: (r * 13) % 50, cost=15)])


def filt(pid, bound):
    return program(
        pid,
        ("row",),
        assign("x", call("val", arg("row"))),
        ite_notify(pid, lt(var("x"), bound)),
    )


class TestUnit:
    def test_certifies_a_correct_hand_merge(self):
        p1, p2 = filt("a", 10), filt("b", 30)
        q1, q2 = qualify_locals(p1), qualify_locals(p2)
        merged = Program("m", ("row",), block(q1.body, q2.body))
        v = validate_consolidation([p1, p2], merged, FT)
        assert v.notify_verdict == PROVED
        assert v.cost_verdict == PROVED
        assert v.certified
        assert v.merged_cost_upper <= v.originals_cost_upper

    def test_certifies_the_real_consolidator(self):
        p1, p2 = filt("a", 10), filt("b", 30)
        merged = Consolidator(FT).consolidate(p1, p2)
        v = validate_consolidation([p1, p2], merged, FT)
        assert v.certified, v.to_dict()

    def test_refutes_a_dropped_notification(self):
        p1, p2 = filt("a", 10), filt("b", 30)
        only_a = qualify_locals(p1)
        v = validate_consolidation([p1, p2], Program("m", ("row",), only_a.body), FT)
        assert v.notify_verdict == REFUTED
        assert v.refuted
        assert not v.certified

    def test_refutes_a_duplicated_notification(self):
        p1 = filt("a", 10)
        q1 = qualify_locals(p1)
        doubled = Program("m", ("row",), block(q1.body, q1.body))
        v = validate_consolidation([p1], doubled, FT)
        assert v.notify_verdict == REFUTED

    def test_refutes_a_foreign_pid(self):
        p1 = filt("a", 10)
        stray = Program(
            "m",
            ("row",),
            block(qualify_locals(p1).body, notify("intruder", lt(arg("row"), arg("row")))),
        )
        v = validate_consolidation([p1], stray, FT)
        assert v.notify_verdict == REFUTED

    def test_conditional_notify_is_unknown_not_refuted(self):
        p1 = filt("a", 10)
        q1 = qualify_locals(p1)
        from repro.lang import lift

        maybe = Program(
            "m",
            ("row",),
            if_(lt(arg("row"), lift(5)), q1.body, block()),
        )
        v = validate_consolidation([p1], maybe, FT)
        assert v.notify_verdict == UNKNOWN
        assert not v.refuted

    def test_costlier_merge_is_unknown_never_refuted(self):
        p1 = filt("a", 10)
        q1 = qualify_locals(p1)
        padded = Program(
            "m",
            ("row",),
            block(assign("w", call("val", arg("row"))), q1.body),
        )
        v = validate_consolidation([p1], padded, FT)
        assert v.notify_verdict == PROVED
        assert v.cost_verdict == UNKNOWN  # upper bounds cannot *disprove*
        assert not v.refuted

    def test_loop_program_certifies_via_trip_count(self):
        from repro.lang import le, lift, while_

        def summing(pid, bound):
            return program(
                pid,
                ("row",),
                block(
                    assign("i", lift(1)),
                    assign("s", lift(0)),
                    while_(
                        le(var("i"), lift(bound)),
                        block(
                            assign("s", add(var("s"), call("val", var("i")))),
                            assign("i", add(var("i"), lift(1))),
                        ),
                    ),
                ),
                ite_notify(pid, lt(var("s"), 100)),
            )

        p1, p2 = summing("a", 12), summing("b", 12)
        merged = Consolidator(FT).consolidate(p1, p2)
        v = validate_consolidation([p1, p2], merged, FT)
        assert v.certified, v.to_dict()


class TestIntegration:
    @pytest.fixture(scope="class")
    def datasets(self):
        from repro.experiments.figure9 import make_datasets

        return make_datasets(scale=0.01)

    def test_all_domain_consolidations_certify(self, datasets):
        """Acceptance: no false alarms on any of the five paper domains."""

        from repro.queries import DOMAIN_QUERIES

        options = ConsolidationOptions(static_validate=True)
        for domain, module in DOMAIN_QUERIES.items():
            ds = datasets[domain]
            for family in module.FAMILY_NAMES:
                batch = module.make_batch(ds, family, n=4, seed=1)
                report = consolidate_all(batch, ds.functions, options=options)
                assert report.validations, (domain, family)
                assert report.all_certified, (
                    domain,
                    family,
                    [v.to_dict() for v in report.validations if not v.certified],
                )

    def test_precheck_skips_smt_queries(self, datasets):
        """Acceptance: the entailment pre-check demonstrably skips solver calls."""

        from repro.queries import DOMAIN_QUERIES

        ds = datasets["weather"]
        module = DOMAIN_QUERIES["weather"]
        batch = module.make_batch(ds, "Mix", n=8, seed=1)
        report = consolidate_all(batch, ds.functions)
        stats = report.simplify_stats
        assert stats["precheck_skips"] > 0, stats
        assert stats["entail_queries"] >= stats["smt_queries"] + stats["precheck_skips"]

    def test_memoization_reports_hits(self, datasets):
        from repro.queries import DOMAIN_QUERIES

        ds = datasets["weather"]
        module = DOMAIN_QUERIES["weather"]
        batch = module.make_batch(ds, "Q1", n=8, seed=1)
        report = consolidate_all(batch, ds.functions)
        stats = report.simplify_stats
        assert stats["memo_hits"] > 0, stats
        assert 0.0 <= stats["memo_hit_rate"] <= 1.0

    def test_validation_surfaces_in_experiment_result(self, datasets):
        from repro.experiments import run_experiment
        from repro.queries import DOMAIN_QUERIES

        ds = datasets["weather"]
        module = DOMAIN_QUERIES["weather"]
        batch = module.make_batch(ds, "Q1", n=4, seed=1)
        options = ConsolidationOptions(static_validate=True)
        result = run_experiment(ds, batch, family="Q1", options=options, row_limit=10)
        assert result.validations_total == 3
        assert result.validations_certified == 3
        row = result.row()
        assert row["validated"] == "3/3"
        assert row["smt_skips"] == result.smt_skips


class TestLintCLI:
    def test_clean_files_exit_zero(self, tmp_path, capsys):
        f = tmp_path / "p.prog"
        f.write_text(
            "program hot(row) {\n"
            "  t := monthly_avg_temp(@row, 7);\n"
            "  if (t > 50) { notify hot true; } else { notify hot false; }\n"
            "}\n"
        )
        rc = main(["lint", str(f), "--domain", "weather"])
        assert rc == 0
        assert "0 errors" in capsys.readouterr().err

    def test_error_findings_exit_nonzero(self, tmp_path, capsys):
        f = tmp_path / "bad.prog"
        f.write_text(
            "program q(row) {\n"
            "  if (u > 0) { notify q true; } else { notify q false; }\n"
            "}\n"
        )
        rc = main(["lint", str(f)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "use-before-def" in out

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        f = tmp_path / "bad.prog"
        f.write_text(
            "program q(row) {\n"
            "  x := 1;\n"
            "  x := 2;\n"
            "  if (x > 0) { notify q true; } else { notify q false; }\n"
            "}\n"
        )
        rc = main(["lint", str(f), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["programs"] == 1
        assert doc["warnings"] >= 1
        assert rc == 1  # warnings only
        assert doc["reports"][0]["findings"][0]["rule"]

    def test_sarif_output(self, tmp_path, capsys):
        f = tmp_path / "bad.prog"
        f.write_text(
            "program q(row) {\n"
            "  x := 1;\n"
            "  x := 2;\n"
            "  if (x > 0) { notify q true; } else { notify q false; }\n"
            "}\n"
        )
        rc = main(["lint", str(f), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1  # warnings only
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert {r["level"] for r in run["results"]} == {"warning"}

    def test_generated_family_with_validation(self, capsys):
        rc = main(
            ["lint", "--domain", "weather", "--family", "Q1", "--n", "4", "--validate"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "3/3 pair consolidations certified" in err

    def test_nothing_to_lint_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["lint"])
