"""The fuzzing driver and its CLI front end."""

import pytest

from repro.cli import main
from repro.testing import run_fuzz
from repro.testing.corpus import corpus_files, read_case

pytestmark = pytest.mark.fuzz


def test_fuzz_smoke_all_schemas():
    report = run_fuzz(seed=0, cases=10, shrink=False)
    assert report.cases_run == 10
    assert report.ok, [f.spec for f in report.failures]
    assert set(report.per_schema) == {"weather", "flight", "news", "twitter", "stock"}
    assert sum(report.per_schema.values()) == 10


def test_fuzz_respects_time_budget():
    report = run_fuzz(seed=0, cases=10_000, time_budget=3.0)
    assert report.cases_run < 10_000
    assert report.ok


def test_battery_deadline_checked_between_stages():
    """An already-expired deadline stops the battery before any stage runs,
    and a mid-battery expiry returns only the stages that finished."""

    import time

    from repro.testing.generator import case_inputs, generate_case, schema_dataset
    from repro.testing.oracles import run_battery

    programs = generate_case(0, "weather", 2)
    dataset = schema_dataset("weather")
    inputs = case_inputs("weather")

    expired = run_battery(
        programs, dataset, inputs=inputs,
        deadline=time.perf_counter() - 1.0,
    )
    assert expired.timed_out
    assert expired.report is None  # no stage ran, so no consolidation report
    assert expired.ok

    complete = run_battery(
        programs, dataset, inputs=inputs,
        deadline=time.perf_counter() + 3600.0,
    )
    assert not complete.timed_out
    assert complete.report is not None


def test_fuzz_timed_out_case_not_counted():
    """A case whose battery is cut off mid-way does not count as run."""

    report = run_fuzz(seed=0, cases=5, time_budget=1e-9)
    assert report.cases_run == 0
    assert report.ok


def test_fuzz_single_schema():
    report = run_fuzz(seed=5, cases=4, schemas=["news"])
    assert report.per_schema == {"news": 4}


def test_fuzz_rejects_unknown_schema():
    with pytest.raises(ValueError, match="unknown schema"):
        run_fuzz(cases=1, schemas=["nope"])


def test_fuzz_emits_corpus_for_failures(tmp_path):
    """A (simulated) miscompile failure is caught, shrunk, and lands in
    the corpus directory as a replayable case."""

    from repro.testing import miscompile

    with miscompile():
        report = run_fuzz(
            seed=0,
            cases=1,
            schemas=["weather"],
            emit_corpus=str(tmp_path),
        )
    assert not report.ok
    files = corpus_files(tmp_path)
    assert files, "the failure must be written to the corpus directory"
    case = read_case(files[0])
    assert case.expect == "discrepancy"
    assert case.schema == "weather"
    assert report.failures[0].shrunk_size <= 10


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    assert main(["fuzz", "--seed", "0", "--cases", "3", "--no-shrink"]) == 0
    out = capsys.readouterr()
    assert "0 failure(s)" in out.err
