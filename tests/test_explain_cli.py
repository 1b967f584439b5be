"""``repro explain``: the report builder, renderers, and CLI front end."""

import json
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.cli import main
from repro.datasets import generate_weather
from repro.provenance import explain_batch, render_html, render_json, render_text
from repro.smt import combine

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def report():
    dataset = generate_weather(cities=12)
    # ``literals_asserted``/``literals_reused`` count theory-memo misses only,
    # and the memo is process-wide: the golden is that of a cold one.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combine, "_CHECK_CACHE", OrderedDict())
        # The default pair is the first that shares work: q2 and q5 both
        # read monthly_rainfall(@row, 12).
        return explain_batch("weather", dataset=dataset, rows=60, n=6, seed=1)


class TestExplainBatch:
    def test_report_shape(self, report):
        assert report.pair_pids == ("q2", "q5")
        assert report.merged_pid == "q2&q5"
        assert report.declined == []
        assert len(report.derivations) == 1
        assert report.derivations[0].merged == "q2&q5"
        assert report.rule_counts and all(v > 0 for v in report.rule_counts.values())
        assert report.validation["merged"] == "q2&q5"
        operators = {a.operator for a in report.attributions}
        assert operators == {"whereMany[2]", "whereConsolidated[2]"}
        assert report.udf_cost_consolidated <= report.udf_cost_many

    @pytest.mark.parametrize("by_time", [True, False])
    def test_hotspots_are_solver_entailments_only(self, report, by_time):
        sources = {e.source for tree in report.derivations for e in tree.entailments()}
        assert sources - {"smt"}, "the batch answers no entailment without the solver"
        hotspots = report.slowest_entailments(by_time=by_time)
        assert hotspots and {e.source for e in hotspots} == {"smt"}

    def test_a_pair_sharing_no_work_is_declined_and_named(self):
        # q0 reads monthly_avg_temp(@row, 1) and q1 (@row, 12): nothing to
        # share, so no calculus runs and every rendering says so.
        dataset = generate_weather(cities=12)
        declined = explain_batch(
            "weather", pair=(0, 1), dataset=dataset, rows=20, n=6, seed=1
        )
        assert declined.declined == [("q0", "q1")]
        assert declined.derivations == [] and declined.rule_counts == {}
        assert declined.validation["merged"] == "q0&q1"
        assert declined.udf_cost_consolidated == declined.udf_cost_many
        assert "declined (nothing shared; composed with no calculus run):\n  q0 ⊗ q1" in (
            render_text(declined)
        )
        assert json.loads(render_json(declined))["declined"] == [["q0", "q1"]]
        assert "q0 ⊗ q1 declined" in render_html(declined)
        assert "declined" not in render_json(
            explain_batch("weather", dataset=dataset, rows=20, n=6, seed=1)
        )

    def test_bad_arguments_raise_value_error(self):
        dataset = generate_weather(cities=12)
        with pytest.raises(ValueError, match="unknown domain"):
            explain_batch("nope")
        with pytest.raises(ValueError, match="unknown weather family"):
            explain_batch("weather", family="nope", dataset=dataset)
        with pytest.raises(ValueError, match="out of range"):
            explain_batch("weather", pair=(0, 99), dataset=dataset)
        with pytest.raises(ValueError, match="out of range"):
            explain_batch("weather", pair=(1, 1), dataset=dataset)


class TestGoldenRenderings:
    def test_text_golden(self, report):
        want = (DATA / "explain_golden.txt").read_text()
        assert render_text(report, include_timings=False) + "\n" == want

    def test_json_golden(self, report):
        want = (DATA / "explain_golden.json").read_text()
        got = render_json(report, include_timings=False) + "\n"
        assert got == want
        doc = json.loads(got)
        assert doc["rule_counts"]
        assert all(e["seconds"] == 0.0 for e in doc["smt_hotspots"])

    def test_timed_text_names_rules_and_contexts(self, report):
        text = render_text(report)
        for rule in report.rule_counts:
            assert rule in text
        assert "ms]" in text  # per-entailment timings present
        assert "Ψ = " in text

    def test_html_is_self_contained(self, report):
        html = render_html(report)
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html and "src=" not in html and "href=" not in html
        for rule in report.rule_counts:
            assert f'<span class="rule">{rule}</span>' in html
        assert "Slowest SMT entailments" in html
        assert "Cost attribution" in html
        assert "whereConsolidated[2]" in html


class TestExplainCli:
    def test_html_smoke_and_artifact(self, tmp_path, capsys):
        out = tmp_path / "explain.html"
        artifact = tmp_path / "explain.json"
        rc = main(
            [
                "explain", "--domain", "weather", "--pair", "2,5",
                "--format", "html", "--rows", "50",
                "--out", str(out), "--metrics-out", str(artifact),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Cost attribution" in html
        doc = json.loads(artifact.read_text())
        (row,) = doc["rows"]
        assert row["pair"] == ["q2", "q5"]
        assert row["merged"] == "q2&q5"
        assert row["rule_counts"]

    def test_prometheus_artifact_carries_provenance_series(self, tmp_path, capsys):
        out = tmp_path / "explain.prom"
        rc = main(
            ["explain", "--domain", "weather", "--rows", "30",
             "--metrics-out", str(out)]
        )
        assert rc == 0
        capsys.readouterr()
        text = out.read_text()
        assert "# HELP provenance_operator_cost_ratio " in text
        assert 'provenance_operator_cost_ratio{operator="whereMany[2]"}' in text
        assert "# TYPE consolidation_pairs_total counter" in text

    def test_text_to_stdout(self, capsys):
        rc = main(["explain", "--domain", "weather", "--rows", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        # The default pair is the first that shares work, so the report
        # shows the calculus at work rather than a decline.
        assert "explain weather/Mix pair q2+q5" in out
        assert "derivation q2 ⊗ q5 → q2&q5" in out
        assert "rule applications:" in out and "declined" not in out
        assert "cost attribution" in out
        rc = main(["explain", "--domain", "weather", "--rows", "30", "--pair", "0,1"])
        assert rc == 0
        out = capsys.readouterr().out
        # q0 and q1 read two different months: nothing to share.
        assert "declined (nothing shared; composed with no calculus run):\n  q0 ⊗ q1" in out

    def test_bad_pair_exits(self, capsys):
        with pytest.raises(SystemExit, match="bad --pair"):
            main(["explain", "--domain", "weather", "--pair", "zero,one"])
        with pytest.raises(SystemExit, match="out of range"):
            main(["explain", "--domain", "weather", "--pair", "0,99"])
