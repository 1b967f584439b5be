"""Self-tests of the benchmark harness (not of the program it measures).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths``; nothing here is collected by the repo's own
suite.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for _path in (str(REPO / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from layers import PATCH_POINTS  # noqa: E402
import measure  # noqa: E402
from measure import (  # noqa: E402
    REFERENCE_KERNEL_S,
    Clock,
    highest_supported_percentile,
    percentile,
    samples_beyond,
    with_fresh_ids,
)
from trace import BUSY, CALLS, NAME, PARENT, Summary, Tracer, roots, self_times  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- span arithmetic ------------------------------------------------------------


def _span(name, start, end, parent, calls=1, busy=None):
    return [name, start, end, parent, calls, end - start if busy is None else busy]


def test_self_time_is_busy_minus_direct_children():
    spans = [
        _span("bench.phase", 0.0, 10.0, -1),
        _span("a", 1.0, 7.0, 0),
        _span("b", 2.0, 4.0, 1),
        _span("b", 5.0, 6.0, 1),
        _span("c", 8.0, 9.5, 0),
    ]
    assert self_times(spans) == [10.0 - 6.0 - 1.5, 6.0 - 2.0 - 1.0, 2.0, 1.0, 1.5]
    assert roots(spans) == [0, 0, 0, 0, 0]


def test_reentrant_spans_of_one_name_sum_to_the_outer_span():
    # simplifier -> simplifier -> solver: the layer's self time must not
    # count the inner call twice.
    spans = [
        _span("bench.consolidate", 0.0, 8.0, -1),
        _span("simplifier", 0.0, 8.0, 0),
        _span("simplifier", 1.0, 5.0, 1),
        _span("solver", 2.0, 3.0, 2),
    ]
    summary = Summary()
    summary.add(spans)
    assert summary.self_s["simplifier"] == pytest.approx(7.0)
    assert summary.self_s["solver"] == pytest.approx(1.0)
    # Inclusive time counts the inner call twice; self time does not.
    assert summary.phase_busy_s[("consolidate", "simplifier")] == pytest.approx(12.0)
    assert summary.self_s["bench.consolidate"] == pytest.approx(0.0)
    assert sum(summary.self_s.values()) == pytest.approx(summary.wall_s()) == pytest.approx(8.0)
    assert summary.unattributed_share() == pytest.approx(0.0)
    assert summary.phase_shares("consolidate")[0] == ("simplifier", pytest.approx(7 / 8))


def test_aggregate_span_uses_busy_not_its_extent():
    # 1000 runner calls inside one engine run: extent 0..9, busy only 4 s.
    spans = [
        _span("bench.run", 0.0, 10.0, -1),
        _span("naiad.run", 0.0, 10.0, 0),
        _span("udf", 0.5, 9.5, 1, calls=1000, busy=4.0),
    ]
    summary = Summary()
    summary.add(spans)
    assert summary.self_s["naiad.run"] == pytest.approx(6.0)
    assert summary.calls["udf"] == 1000
    assert summary.unattributed_share() == pytest.approx(0.0)


def test_unattributed_share_is_the_roots_self_time():
    spans = [_span("bench.x", 0.0, 10.0, -1), _span("layer", 2.0, 9.0, 0)]
    summary = Summary()
    summary.add(spans)
    assert summary.unattributed_share() == pytest.approx(0.3)


def test_tracer_records_nesting_recursion_and_aggregates():
    tracer = Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap(leaf, "leaf", aggregate=True)

    def fact(n):
        traced_leaf()
        return 1 if n <= 1 else n * traced_fact(n - 1)

    traced_fact = tracer.wrap(fact, "fact")
    with tracer.span("bench.root"):
        assert traced_fact(3) == 6
    spans = tracer.spans
    names = [s[NAME] for s in spans]
    assert names == ["bench.root", "fact", "leaf", "fact", "leaf", "fact", "leaf"]
    assert [s[PARENT] for s in spans] == [-1, 0, 1, 1, 3, 3, 5]
    assert all(s[CALLS] == 1 for s in spans)
    own = self_times(spans)
    assert all(x >= 0.0 for x in own)
    assert sum(own) == pytest.approx(spans[0][BUSY])

    # One aggregate span per parent, however many calls.
    tracer.reset()
    with tracer.span("bench.root"):
        for _ in range(5):
            traced_leaf()
    assert [(s[NAME], s[CALLS]) for s in tracer.spans] == [("bench.root", 1), ("leaf", 5)]
    assert tracer.spans[1][BUSY] <= tracer.spans[0][BUSY]


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        with tracer.span("bench.root"):
            tracer.wrap(boom, "layer")()
    assert [s[NAME] for s in tracer.spans] == ["bench.root", "layer"]
    assert all(s[BUSY] > 0.0 for s in tracer.spans)
    tracer.reset()  # no span left open


# -- percentiles ----------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert samples_beyond(72, 80) == 14
    assert samples_beyond(49, 80) == 9
    assert samples_beyond(50, 80) == 10
    assert highest_supported_percentile(12) == 50
    assert highest_supported_percentile(49) == 50
    assert highest_supported_percentile(50) == 80
    assert highest_supported_percentile(72) == 80  # the issue's 24 x 3 registrations
    assert highest_supported_percentile(100) == 90
    assert highest_supported_percentile(200) == 95
    assert highest_supported_percentile(1000) == 99


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 80) == pytest.approx(4.2)
    assert percentile([7.0], 80) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- the clock -------------------------------------------------------------------


def test_clock_scales_by_the_kernel_readings_around_the_call(monkeypatch):
    readings = iter([2 * REFERENCE_KERNEL_S, 4 * REFERENCE_KERNEL_S, REFERENCE_KERNEL_S])
    monkeypatch.setattr(measure, "calibration_kernel", lambda: next(readings))
    clock = Clock()
    scaled, wall, result = clock.time(lambda: "done")
    assert result == "done" and wall > 0.0
    # Kernel read 2x before and 4x after: the machine ran at a third of the
    # reference speed, so the call would have taken a third of the time.
    assert scaled == pytest.approx(wall / 3.0)
    assert clock.factor() == pytest.approx(1 / 3.0)
    # The reading after one call serves as the reading before the next.
    scaled, wall, _ = clock.time(lambda: None)
    assert scaled == pytest.approx(wall / 2.5)
    assert len(clock.kernel_s) == 3


def test_clock_takes_a_new_reading_when_the_last_one_is_stale(monkeypatch):
    monkeypatch.setattr(measure, "calibration_kernel", lambda: REFERENCE_KERNEL_S)
    clock = Clock()
    clock.time(lambda: None)
    time.sleep(Clock.STALE_S * 1.5)
    clock.time(lambda: None)
    assert len(clock.kernel_s) == 4


# -- wrappers are removed again -------------------------------------------------


def _resolve(point):
    import importlib

    owner = importlib.import_module(point[1])
    *path, leaf = point[2].split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_every_patch_point_is_restored_to_the_identical_object():
    import repro.api
    import repro.smt.solver
    import repro.smt.combine

    originals = []
    for point in PATCH_POINTS:
        owner, leaf = _resolve(point)
        originals.append((owner, leaf, vars(owner)[leaf]))
    alias_before = repro.smt.solver.check_literals
    api_before = repro.api.consolidate_all

    tracer = Tracer()
    with tracer.installed(PATCH_POINTS):
        for owner, leaf, original in originals:
            assert vars(owner)[leaf] is not original, (owner, leaf)
        # ``from .combine import check_literals`` was rebound where it is used.
        assert repro.smt.solver.check_literals is repro.smt.combine.check_literals
        assert repro.smt.solver.check_literals is not alias_before
        assert repro.api.consolidate_all is not api_before

    for owner, leaf, original in originals:
        assert vars(owner)[leaf] is original, (owner, leaf)
    assert repro.smt.solver.check_literals is alias_before
    assert repro.api.consolidate_all is api_before


def test_wrappers_are_removed_when_the_traced_pass_raises():
    from repro.smt.solver import Solver

    original = vars(Solver)["is_sat"]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(PATCH_POINTS):
            assert vars(Solver)["is_sat"] is not original
            raise RuntimeError("round failed")
    assert vars(Solver)["is_sat"] is original


def test_a_point_that_does_not_resolve_leaves_nothing_installed():
    from repro.smt.solver import Solver

    original = vars(Solver)["is_sat"]
    tracer = Tracer()
    with pytest.raises(KeyError):
        tracer.install(
            [("smt.solver", "repro.smt.solver", "Solver.is_sat"),
             ("nowhere", "repro.smt.solver", "Solver.no_such_method")]
        )
    assert vars(Solver)["is_sat"] is original


def test_static_methods_stay_static():
    from repro.service.events import EventLog

    tracer = Tracer()
    with tracer.installed([("service.events", "repro.service.events", "EventLog.read")]):
        assert isinstance(vars(EventLog)["read"], staticmethod)
        assert EventLog.read(HERE / "no-such-log.jsonl") == []
    assert [s[NAME] for s in tracer.spans] == ["service.events"]


# -- inputs ---------------------------------------------------------------------


def test_inputs_are_a_function_of_the_seeds():
    workload = WORKLOADS["service_churn"].quick()
    a, b = make_inputs(workload, 3), make_inputs(workload, 3)
    other = make_inputs(workload, 4)
    assert a.rows == b.rows and a.reference_rows == b.reference_rows
    assert a.programs == b.programs
    assert a.rows != other.rows and a.programs == other.programs
    assert make_inputs(workload, 3, family_seed=1).programs != a.programs


def test_fresh_ids_rename_the_query_and_its_notifications():
    from repro.lang.visitors import notified_pids

    programs = make_inputs(WORKLOADS["scan"].quick(), 0).programs
    fresh = with_fresh_ids(programs, "r9")
    assert [p.pid for p in fresh] == ["r9" + p.pid for p in programs]
    assert all(notified_pids(p.body) == {p.pid} for p in fresh)


# -- BENCHMARK.json -------------------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert _UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert isinstance(SPEC["run_seconds"], int) and runs * (SPEC["run_seconds"] + 9) < 3420


# -- the whole command, small ---------------------------------------------------


def test_quick_mode_runs_every_workload_and_both_passes_within_a_minute(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:]
    assert elapsed < 60.0
    results = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
    assert list(results) == list(WORKLOADS)
    for name, passes in results.items():
        assert passes["end_to_end"]["correct"] and passes["trace"]["correct"]
        assert passes["end_to_end"]["failed"] == 0 and passes["end_to_end"]["attempted"] > 0
        assert list(passes["end_to_end"]["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert list(passes["trace"]["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
        assert all(m["value"] > 0 for m in passes["end_to_end"]["metrics"].values())
        spans = json.loads((tmp_path / f"trace-{name}.json").read_text(encoding="utf-8"))
        assert spans["workload"] == name and spans["spans"]
        # Event logs live in temporary directories that are gone afterwards.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["results.json"] + [f"trace-{name}.json" for name in WORKLOADS]
    )
