"""The profiling → calibration pipeline (repro.profiling).

Covers the trace store's schema discipline, golden weight recovery and
byte-identical determinism of the fitter, and the profiler driving every
rung of the execution ladder.
"""

import json
import random

import pytest

from repro.datasets import generate_weather
from repro.lang.builder import (
    add,
    arg,
    assign,
    block,
    call,
    gt,
    ite_notify,
    le,
    program,
    var,
    while_,
)
from repro.lang.compile import make_runner
from repro.lang.cost import cost_model_from_weights
from repro.profiling import (
    RECORD_KIND,
    TRACE_SCHEMA_VERSION,
    CalibratedCostModel,
    Profiler,
    TraceSample,
    TraceStore,
    fit_calibration,
    program_units,
    read_trace,
    trace_fingerprint,
)


@pytest.fixture(scope="module")
def weather():
    return generate_weather(cities=30)


def _loop_program(pid, accessor, threshold):
    """A Q3/Q4-shaped yearly loop (the fusion-candidate shape)."""

    return program(
        pid,
        ("row",),
        assign("s", 0),
        assign("m", 1),
        while_(
            le(var("m"), 12),
            block(
                assign("s", add(var("s"), call(accessor, arg("row"), var("m")))),
                assign("m", add(var("m"), 1)),
            ),
        ),
        ite_notify(pid, gt(var("s"), 12 * threshold)),
    )


def _cmp_program(pid, accessor, month, threshold):
    return program(
        pid,
        ("row",),
        ite_notify(pid, gt(call(accessor, arg("row"), month), threshold)),
    )


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


class TestFeatures:
    def test_program_units_counts_call_cost_and_record(self, weather):
        p = _cmp_program("q", "monthly_avg_temp", 6, 50)
        units = program_units(p, weather.functions)
        assert units[RECORD_KIND] == 1.0
        assert units["call"] == float(weather.functions["monthly_avg_temp"].cost)
        assert units["cmp"] == 1.0
        assert units["branch"] == 1.0

    def test_loop_unrolls_deterministically(self, weather):
        from repro.profiling.features import LOOP_UNROLL

        p = _loop_program("q", "monthly_avg_temp", 40)
        units = program_units(p, weather.functions)
        # One call per iteration, LOOP_UNROLL iterations.
        assert units["call"] == float(
            LOOP_UNROLL * weather.functions["monthly_avg_temp"].cost
        )
        # Loop test: 1 + LOOP_UNROLL evaluations, plus the notify's cmp.
        assert units["cmp"] == float(1 + LOOP_UNROLL) + 1.0


# ---------------------------------------------------------------------------
# trace store
# ---------------------------------------------------------------------------


class TestTraceStore:
    def _sample(self, pid="q0", seconds=0.5, ts=1.0):
        return TraceSample(
            pid=pid,
            backend="compiled",
            domain="weather",
            units={"cmp": 2.0, "call": 40.0, RECORD_KIND: 1.0},
            cost_units=42,
            seconds=seconds,
            ts=ts,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceStore(path) as store:
            store.append(self._sample("q0"))
            store.append(self._sample("q1", seconds=0.25, ts=2.0))
        samples, skipped = read_trace(path)
        assert skipped == 0
        assert [s.pid for s in samples] == ["q0", "q1"]
        assert samples[0].units == {"cmp": 2.0, "call": 40.0, RECORD_KIND: 1.0}
        assert samples[1].seconds == 0.25

    def test_incompatible_lines_are_skipped_not_misfit(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps(self._sample().to_dict())
        future = json.dumps(
            dict(self._sample().to_dict(), schema=TRACE_SCHEMA_VERSION + 1)
        )
        path.write_text(f"{good}\nnot json at all\n{future}\n[1,2,3]\n")
        samples, skipped = read_trace(path)
        assert len(samples) == 1
        assert skipped == 3

    @pytest.mark.parametrize(
        "corrupt",
        [
            {"seconds": "nan"},
            {"seconds": "inf"},
            {"seconds": float("nan")},  # json writes the bare NaN literal
            {"units": {"call": "nan", "arith": 1.0}},
            {"ts": "-inf"},
            {"seconds": [0.5]},
        ],
        ids=["nan-str", "inf-str", "nan-literal", "nan-unit", "inf-ts", "list"],
    )
    def test_non_finite_numbers_are_skipped_not_misfit(self, tmp_path, corrupt):
        """One corrupt line costs one sample; it once zeroed every weight."""

        clean = [
            TraceSample(
                pid=f"q{i}",
                backend="compiled",
                domain="synthetic",
                units={"call": float(i % 7 + 1), "arith": float(i % 5 + 2)},
                cost_units=0,
                seconds=5e-7 * (i % 7 + 1) + 1e-7 * (i % 5 + 2),
                ts=float(i),
            )
            for i in range(40)
        ]
        lines = [json.dumps(s.to_dict()) for s in clean]
        lines.append(json.dumps(dict(clean[0].to_dict(), **corrupt)))
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        samples, skipped = read_trace(path)
        assert (len(samples), skipped) == (40, 1)
        model = fit_calibration(samples)
        assert model.weights["call"] == pytest.approx(5e-7, rel=1e-3)
        assert model.weights["arith"] == pytest.approx(1e-7, rel=1e-3)

    def test_missing_file_is_empty(self, tmp_path):
        samples, skipped = read_trace(tmp_path / "nope.jsonl")
        assert samples == [] and skipped == 0

    def test_fingerprint_is_content_addressed(self):
        a = [self._sample("q0"), self._sample("q1")]
        b = [self._sample("q0"), self._sample("q1")]
        assert trace_fingerprint(a) == trace_fingerprint(b)
        assert trace_fingerprint(a) != trace_fingerprint(list(reversed(a)))


# ---------------------------------------------------------------------------
# calibration fitter
# ---------------------------------------------------------------------------


PLANTED = {"cmp": 2e-7, "call": 1e-8, "arith": 1e-7, RECORD_KIND: 5e-7}


def _synthetic_trace(n=200, seed=42):
    rng = random.Random(seed)
    samples = []
    for i in range(n):
        units = {
            "cmp": float(rng.randint(0, 20)),
            "call": float(rng.randint(0, 400)),
            "arith": float(rng.randint(0, 30)),
            RECORD_KIND: float(rng.randint(1, 64)),
        }
        seconds = sum(PLANTED[k] * v for k, v in units.items())
        samples.append(
            TraceSample(
                pid=f"q{i % 7}",
                backend=("compiled", "interp", "vectorized")[i % 3],
                domain="synthetic",
                units=units,
                cost_units=int(units["call"]),
                seconds=seconds,
                records=int(units[RECORD_KIND]),
                ts=float(i),
            )
        )
    return samples


class TestCalibration:
    def test_golden_weight_recovery(self):
        model = fit_calibration(_synthetic_trace())
        for kind, want in PLANTED.items():
            got = model.weights[kind]
            assert got == pytest.approx(want, rel=0.05), (kind, got, want)
        assert model.r2 > 0.99
        assert model.residual_abs_mean < 1e-7
        assert model.samples == 200
        assert model.backends == {"compiled": 67, "interp": 67, "vectorized": 66}
        assert model.fitted_at == 199.0  # newest sample ts, not wall clock
        assert model.source == "fit"
        # Unsupported kinds clamp to zero with zero support.
        assert model.weights["logic"] == 0.0
        assert model.support["logic"] == 0

    def test_same_trace_fits_byte_identical(self):
        a = fit_calibration(_synthetic_trace()).to_json()
        b = fit_calibration(_synthetic_trace()).to_json()
        assert a == b

    def test_model_json_round_trip(self, tmp_path):
        model = fit_calibration(_synthetic_trace())
        path = tmp_path / "model.json"
        model.save(path)
        loaded = CalibratedCostModel.load(path)
        assert loaded.to_json() == model.to_json()
        assert loaded.weights == dict(model.weights)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("weights", "call"), "nan"),
            (("weights", "cmp"), "inf"),
            (("diagnostics", "r2"), "nan"),
            (("fitted_at",), "inf"),
        ],
    )
    def test_non_finite_model_numbers_are_refused(self, path, value):
        doc = json.loads(fit_calibration(_synthetic_trace()).to_json())
        *parents, leaf = path
        target = doc
        for key in parents:
            target = target[key]
        target[leaf] = value
        with pytest.raises(ValueError, match="not finite"):
            CalibratedCostModel.from_dict(doc)

    def test_an_infinite_stderr_still_loads(self):
        """``stderr`` is the one field where infinity means something: no
        estimate for that kind."""

        doc = json.loads(fit_calibration(_synthetic_trace()).to_json())
        doc["diagnostics"]["stderr"]["logic"] = float("inf")
        model = CalibratedCostModel.from_dict(doc)
        assert model.stderr["logic"] == float("inf")

    def test_empty_trace_is_rejected(self):
        with pytest.raises(ValueError):
            fit_calibration([])

    def test_confidence_tiers(self):
        model = fit_calibration(_synthetic_trace())
        assert model.confidence("cmp") == "high"
        assert model.confidence("logic") == "low"  # no support at all

    def test_cost_model_seam(self):
        # Planted weights normalized to the reference kind give back an
        # integer Figure-2 model through the repro.lang.cost seam.
        cm = cost_model_from_weights({"var": 1e-8, "cmp": 2e-8, "arith": 1e-8})
        assert cm.cmp == 2 * cm.var
        model = fit_calibration(_synthetic_trace())
        assert model.to_cost_model() is not None


# ---------------------------------------------------------------------------
# the profiler drives the ladder
# ---------------------------------------------------------------------------


def _profile(tmp_path, program, rows, functions, *, sample_every=1, **kwargs):
    store = TraceStore(tmp_path / "t.jsonl")
    profiler = Profiler(store, domain="weather", sample_every=sample_every)
    profiler.profile(program, functions, rows, **kwargs)
    store.close()
    samples, _ = read_trace(store.path)
    assert profiler.samples_taken == len(samples)
    return samples


class TestProfiler:
    def test_records_sample_at_the_stride(self, tmp_path, weather):
        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        samples = _profile(
            tmp_path, p, weather.rows[:6], weather.functions, sample_every=2, backend="interp"
        )
        assert len(samples) == 3  # every 2nd of 6
        assert {s.backend for s in samples} == {"interp"}
        assert all(s.domain == "weather" for s in samples)
        assert all(s.units[RECORD_KIND] == 1.0 for s in samples)
        assert all(s.cost_units > 0 for s in samples)

    def test_a_kernel_batch_scales_units_by_records(self, tmp_path, weather):
        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        rows = weather.rows[:25]
        (sample,) = _profile(tmp_path, p, rows, weather.functions, backend="compiled")
        per_record = program_units(p, weather.functions)
        runner = make_runner(p, weather.functions)
        assert sample.backend == "compiled"
        assert sample.records == 25
        assert sample.units[RECORD_KIND] == 25.0
        assert sample.units["call"] == per_record["call"] * 25
        assert sample.cost_units == sum(runner({"row": row}).cost for row in rows)

    @pytest.mark.parametrize("backend", ["interp", "compiled", "vectorized"])
    def test_samples_are_tagged_with_the_backend_asked_for(self, tmp_path, weather, backend):
        """One ladder, one tag per run: a kernel-served partition is one
        batch sample under the caller's backend, the interpreter rung
        samples record by record."""

        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        samples = _profile(tmp_path, p, weather.rows, weather.functions, backend=backend)
        assert {s.backend for s in samples} == {backend}
        per_sample = 1 if backend == "interp" else len(weather.rows)
        assert [s.records for s in samples] == [per_sample] * (len(weather.rows) // per_sample)

    def test_rows_are_dealt_round_robin_into_partitions(self, tmp_path, weather):
        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        samples = _profile(tmp_path, p, weather.rows[:10], weather.functions, workers=3)
        assert [s.records for s in samples] == [4, 3, 3]
        # An empty partition is no sampling candidate.
        (tmp_path / "empty").mkdir()
        samples = _profile(tmp_path / "empty", p, weather.rows[:2], weather.functions, workers=4)
        assert [s.records for s in samples] == [1, 1]

    def test_one_tick_spans_profile_calls(self, tmp_path, weather):
        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        store = TraceStore(tmp_path / "t.jsonl")
        profiler = Profiler(store, sample_every=2)
        profiler.profile(p, weather.functions, weather.rows)
        assert profiler.samples_taken == 0
        profiler.profile(p, weather.functions, weather.rows)
        assert profiler.samples_taken == 1

    def test_a_program_without_kernel_is_tagged_with_the_rung_that_served_it(
        self, tmp_path, weather
    ):
        from repro.lang import parse_program

        unbounded = parse_program(
            "program ub(row) { s := 0; while (s < yearly_rainfall(@row)) { s := s + 7; }"
            " notify ub (s > 20); }"
        )
        samples = _profile(
            tmp_path, unbounded, weather.rows, weather.functions, backend="vectorized"
        )
        assert [(s.backend, s.records) for s in samples] == [("compiled", 1)] * len(weather.rows)

    def test_a_degraded_batch_is_sampled_record_by_record(self, tmp_path, weather, monkeypatch):
        from repro.lang.vectorize import clear_vectorize_cache, vectorize_cached

        def broken_kernel(*args):
            raise RuntimeError("kernel bug")

        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        clear_vectorize_cache()
        monkeypatch.setattr(vectorize_cached(p, weather.functions), "plan", broken_kernel)
        try:
            samples = _profile(tmp_path, p, weather.rows[:5], weather.functions)
        finally:
            clear_vectorize_cache()
        assert [(s.backend, s.records) for s in samples] == [("compiled", 1)] * 5

    def test_validation(self, tmp_path, weather):
        store = TraceStore(tmp_path / "t.jsonl")
        with pytest.raises(ValueError, match="sample_every"):
            Profiler(store, sample_every=0)
        p = _cmp_program("q0", "monthly_avg_temp", 6, 50)
        with pytest.raises(ValueError, match="workers"):
            Profiler(store).profile(p, weather.functions, weather.rows, workers=0)
