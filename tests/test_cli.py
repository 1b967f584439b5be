"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_args_option, build_parser, main


@pytest.fixture
def progs(tmp_path):
    a = tmp_path / "a.prog"
    a.write_text(
        "program hot(row) {\n"
        "  t := monthly_avg_temp(@row, 7);\n"
        "  if (t > 50) { notify hot true; } else { notify hot false; }\n"
        "}\n"
    )
    b = tmp_path / "b.prog"
    b.write_text(
        "program cold(row) {\n"
        "  u := monthly_avg_temp(@row, 7);\n"
        "  if (u < 0) { notify cold true; } else { notify cold false; }\n"
        "}\n"
    )
    return str(a), str(b)


class TestConsolidateCommand:
    def test_merges_and_prints(self, progs, capsys):
        rc = main(["consolidate", *progs, "--domain", "weather"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "notify hot" in out and "notify cold" in out
        assert out.count("monthly_avg_temp") == 1  # call shared

    def test_verification_flag(self, progs, capsys):
        rc = main(["consolidate", *progs, "--domain", "weather", "--verify", "20"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "verification on 20 rows: OK" in err

    def test_if_rule_mode_flag(self, progs, capsys):
        rc = main(["consolidate", *progs, "--domain", "weather", "--if-rule-mode", "always_if5"])
        assert rc == 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["consolidate", str(tmp_path / "nope.prog")])

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.prog"
        bad.write_text("program { oops")
        with pytest.raises(SystemExit):
            main(["consolidate", str(bad)])

    def test_unknown_domain(self, progs):
        with pytest.raises(SystemExit):
            main(["consolidate", *progs, "--domain", "mars"])


class TestRunCommand:
    def test_runs_and_prints_notification(self, progs, capsys):
        rc = main(["run", progs[0], "--domain", "weather", "--args", "row=3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("hot: ")
        assert "latency" in out

    def test_bad_args_syntax(self, progs):
        with pytest.raises(SystemExit):
            main(["run", progs[0], "--domain", "weather", "--args", "rowX3"])


class TestOptionParsing:
    def test_parse_args_option(self):
        assert _parse_args_option("a=1,b=hello") == {"a": 1, "b": "hello"}
        assert _parse_args_option("") == {}

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExperimentCommands:
    def test_latency_command(self, capsys):
        rc = main(["latency", "--n-udfs", "4", "--priority-index", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sequential_mean" in out

    def test_latency_defaults_are_pinned(self, capsys):
        """Latency is observed only in the per-record frame (the batch
        kernel keeps none); the paper artefact it feeds must not move."""

        assert main(["latency"]) == 0
        assert capsys.readouterr().out == (
            "sequential_mean          753.5\n"
            "consolidated_mean        150.8\n"
            "prioritized_mean         146.0\n"
            "q7_sequential            1096.0\n"
            "q7_consolidated          159.9\n"
            "q7_prioritized           137.0\n"
        )

    def test_figure10_command(self, capsys):
        rc = main(["figure10", "--sweep", "2,4", "--articles", "40"])
        assert rc == 0
        assert "whereMany_total" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_figure9_domain_and_metrics_out(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        rc = main(
            [
                "figure9",
                "--domain",
                "weather",
                "--n-udfs",
                "4",
                "--scale",
                "0.02",
                "--metrics-out",
                str(out),
            ]
        )
        assert rc == 0
        assert "metrics written" in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["command"] == "figure9"
        assert {r["domain"] for r in doc["rows"]} == {"weather"}
        names = {c["name"] for c in doc["metrics"]["counters"]}
        assert "dataflow_records_total" in names
        assert "smt_checks" in names
        assert "consolidation_pairs_total" in names
        assert any(n.startswith("dataflow_operator_records_in") for n in names)
        assert any(n.startswith("vectorized_plan_cache") for n in names)
        hists = {h["name"] for h in doc["metrics"]["histograms"]}
        assert "smt_check_seconds" in hists
        # Every figure row carries its own per-experiment snapshot.
        assert all("metrics" in r for r in doc["rows"])

    def test_trace_adds_spans(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        rc = main(
            [
                "--trace",
                "figure9",
                "--domain",
                "weather",
                "--n-udfs",
                "2",
                "--scale",
                "0.02",
                "--metrics-out",
                str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        span_names = {s["name"] for s in doc["spans"]}
        assert "dataflow.run" in span_names
        assert "consolidate.batch" in span_names

    def test_prometheus_artifact(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        rc = main(
            ["consolidate", "--domain", "weather", "--metrics-out", str(out)]
            + _two_progs(tmp_path)
        )
        assert rc == 0
        capsys.readouterr()
        text = out.read_text()
        assert "# TYPE consolidation_pairs_total counter" in text
        assert "consolidation_pair_seconds_bucket" in text

    def test_profile_then_calibrate_round_trip(self, tmp_path, capsys):
        """Every backend samples into one trace, the fit loads back as a model."""

        import json

        from repro.profiling import CalibratedCostModel

        trace, model_path = tmp_path / "trace.jsonl", tmp_path / "calibration.json"
        for backend in ("interp", "compiled", "vectorized"):
            rc = main(
                ["--backend", backend, "profile", "--domain", "weather", "--family", "Q1"]
                + ["--n", "2", "--rows", "40", "--sample-every", "4", "--trace-out", str(trace)]
            )
            assert rc == 0
            assert f"on backend {backend}" in capsys.readouterr().err
        rc = main(["calibrate", "--trace-in", str(trace), "--out", str(model_path), "--json"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        model = CalibratedCostModel.load(model_path)
        assert model.to_dict() == printed
        assert model.source == "fit" and model.samples > 0
        assert set(model.backends) == {"interp", "compiled", "vectorized"}

    @pytest.mark.parametrize(
        "flag", [["--planner", "calibrated"], ["--calibration", "model.json"]],
        ids=["planner", "calibration"],
    )
    @pytest.mark.parametrize("command", ["consolidate", "explain", "serve"])
    def test_the_planner_flags_are_gone(self, tmp_path, capsys, command, flag):
        # 12.0.0: one pairing planner, so there is nothing to choose.
        argv = {
            "consolidate": ["consolidate"] + _two_progs(tmp_path),
            "explain": ["explain", "--domain", "weather"],
            "serve": ["serve", "--port", "0"],
        }[command]
        with pytest.raises(SystemExit) as exited:
            main(argv + flag)
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    # Per-record unit vector of a weather Q1 program (n=2, seed=1).
    _Q1_UNITS = {
        "arg": 1.0, "assign": 1.0, "branch": 1.0, "call": 40.0, "cmp": 1.0,
        "const": 3.0, "notify": 1.0, "record": 1.0, "var": 1.0,
    }

    @pytest.mark.parametrize(
        "backend, grain",
        [
            # Every 4th of 2 × 40 records.
            ("interp", [("q0", 1)] * 10 + [("q1", 1)] * 10),
            # Every 4th of 2 × 4 partitions of 10 rows.
            ("compiled", [("q0", 10), ("q1", 10)]),
            ("vectorized", [("q0", 10), ("q1", 10)]),
        ],
    )
    def test_profile_sampling_grain_is_pinned(self, tmp_path, capsys, backend, grain):
        from repro.profiling import read_trace

        trace = tmp_path / "trace.jsonl"
        rc = main(
            ["--backend", backend, "profile", "--domain", "weather", "--family", "Q1"]
            + ["--n", "2", "--rows", "40", "--sample-every", "4", "--trace-out", str(trace)]
        )
        assert rc == 0
        assert f"{len(grain)} samples appended" in capsys.readouterr().err
        samples, skipped = read_trace(trace)
        assert skipped == 0
        assert [(s.pid, s.records) for s in samples] == grain
        for sample in samples:
            assert sample.backend == backend
            assert sample.cost_units == 47 * sample.records
            assert sample.units == {k: v * sample.records for k, v in self._Q1_UNITS.items()}

    def test_calibrate_refuses_an_empty_trace(self, tmp_path):
        with pytest.raises(SystemExit, match="no usable samples"):
            main(["calibrate", "--trace-in", str(tmp_path / "missing.jsonl")])

    # The thread executor, --max-workers and --smt-budget went in 5.0.0,
    # the executor flag itself in 8.0.0.
    @pytest.mark.parametrize(
        "flag", ["executor=thread", "executor=serial", "max-workers=2", "smt-budget=5"]
    )
    def test_removed_consolidate_flags_exit_2(self, tmp_path, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["consolidate", f"--{flag}", *_two_progs(tmp_path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", ["executor=thread", "executor=serial", "max-workers=2"])
    def test_removed_serve_flags_exit_2(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", f"--{flag}"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["prefilter", "--domain", "weather", "--family", "Q1", "--n", "2"],
            ["lint", "--domain", "weather", "--family", "Q1", "--n", "2", "--prefilter"],
        ],
        ids=["prefilter-command", "lint-prefilter-flag"],
    )
    def test_removed_prefilter_surface_exits_2(self, argv):
        # 7.0.0: the `prefilter` subcommand and `lint --prefilter` are gone.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("domain", ["flight", "news", "stock", "twitter", "weather"])
    def test_lint_sarif_of_a_generated_domain(self, capsys, domain):
        # The command CI uploads as an artifact: findings may be warnings
        # (exit 1), never errors, and no rule is the prefilter's.
        import json

        rc = main(["lint", "--domain", domain, "--n", "2", "--format", "sarif"])
        assert rc in (0, 1)
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        levels = {r["level"] for r in run["results"]}
        assert levels <= {"note", "warning"}
        assert (rc == 1) == ("warning" in levels)
        assert all(r["ruleId"] != "prefilter" for r in run["results"])

    @pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
    def test_lint_validate_reports_a_refuted_merge(self, capsys, monkeypatch, fmt):
        # A refuted merge is kept unmerged and has no certificate; lint
        # still reports it, as an error.  Weather Q4's loops share their
        # test, so both pair steps of a batch of three run Ω.
        import json

        from .helpers import unsound_merges

        argv = ["lint", "--domain", "weather", "--family", "Q4", "--n", "3", "--validate"]
        with unsound_merges(monkeypatch):
            rc = main([*argv, "--format", fmt])
        assert rc == 2
        out = capsys.readouterr().out
        if fmt == "text":
            refuted = [line for line in out.splitlines() if "validation-refuted" in line]
            messages = refuted
        elif fmt == "json":
            doc = json.loads(out)
            assert (doc["programs"], doc["errors"], doc["validations"]) == (3, 2, [])
            refuted = [
                f for r in doc["reports"] for f in r["findings"]
                if f["rule"] == "validation-refuted"
            ]
            messages = [f["message"] for f in refuted]
        else:
            results = json.loads(out)["runs"][0]["results"]
            refuted = [r for r in results if r["ruleId"] == "validation-refuted"]
            assert all(r["level"] == "error" for r in refuted)
            messages = [r["message"]["text"] for r in refuted]
        assert len(refuted) == 2
        assert all("static validation refuted" in m for m in messages)

    @pytest.mark.parametrize("flag", ["executors=serial", "executors=serial,process"])
    def test_removed_fuzz_executors_flag_exits_2(self, flag):
        # 8.0.0: the executor-parity oracle and its flag are gone.
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--seed", "0", "--cases", "2", f"--{flag}"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["figure10", "--sweep", "10,x"], "invalid sweep '10,x'"),
            (["figure10", "--sweep", "0,10"], "invalid sweep '0,10'"),
            (["figure10", "--sweep", ""], "invalid sweep ''"),
            (["profile", "--sample-every", "0"], "invalid count '0'"),
            (["profile", "--rows", "-5"], "invalid count '-5'"),
            (["profile", "--rows", "x"], "invalid count 'x'"),
            (["latency", "--n-udfs", "0"], "invalid count '0'"),
            (["figure9", "--n-udfs", "0"], "invalid count '0'"),
            (["lint", "--n", "0"], "invalid count '0'"),
            (["lint", "--n", "-1"], "invalid count '-1'"),
            (["fuzz", "--cases", "-2"], "invalid count '-2'"),
            (["fuzz", "--size", "-5"], "invalid count '-5'"),
            (["fuzz", "--size", "0"], "invalid count '0'"),
            (["figure9", "--scale", "0"], "invalid scale '0'"),
            (["figure9", "--scale", "-1"], "invalid scale '-1'"),
            (["figure9", "--scale", "inf"], "invalid scale 'inf'"),
            (["figure9", "--scale", "nan"], "invalid scale 'nan'"),
            (["figure10", "--articles", "0"], "invalid count '0'"),
            (["figure10", "--articles", "-3"], "invalid count '-3'"),
            (["explain", "--n", "0"], "invalid count '0'"),
            (["explain", "--rows", "0"], "invalid count '0'"),
            (["explain", "--rows", "-1"], "invalid count '-1'"),
            (["consolidate", "--verify", "-1", "q0.prog", "q1.prog"], "invalid count '-1'"),
            (["consolidate", "--verify", "x", "q0.prog"], "invalid count 'x'"),
        ],
    )
    def test_bad_values_are_usage_errors(self, capsys, argv, message):
        # Parse only: a value that got through would start a server.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[0]}: error: argument {argv[1]}" in err
        assert message in err

    @pytest.mark.parametrize("argv", [["--priority-index", "99"], ["--n-udfs", "4"], ["--priority-index", "-1"]])
    def test_latency_priority_index_outside_the_batch_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["latency", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "latency: error: argument --priority-index: must be in 0.." in err

    @pytest.mark.parametrize(
        "flag", [["--rebalance-factor", "2"], ["--plan-cache-size", "128"]]
    )
    def test_removed_serve_flags_are_unknown_arguments(self, capsys, flag):
        # 9.0.0: the rebalance factor and the plan-cache size are constants.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_good_values_parse(self):
        assert build_parser().parse_args(["figure10"]).sweep == (10, 25, 50, 100)
        assert build_parser().parse_args(["figure10", "--sweep", "2,4"]).sweep == (2, 4)
        assert build_parser().parse_args(["consolidate", "--verify", "0", "a"]).verify == 0
        assert build_parser().parse_args(["figure9", "--scale", "0.5"]).scale == 0.5


def _two_progs(tmp_path):
    a = tmp_path / "x.prog"
    a.write_text(
        "program hot(row) {\n"
        "  t := monthly_avg_temp(@row, 7);\n"
        "  if (t > 50) { notify hot true; } else { notify hot false; }\n"
        "}\n"
    )
    b = tmp_path / "y.prog"
    b.write_text(
        "program cold(row) {\n"
        "  u := monthly_avg_temp(@row, 7);\n"
        "  if (u < 0) { notify cold true; } else { notify cold false; }\n"
        "}\n"
    )
    return [str(a), str(b)]
