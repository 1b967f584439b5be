"""Unit tests for the telemetry subsystem (spans, metrics, sinks, no-op)."""

import json
from pathlib import Path

import pytest

from repro.config import ExecutionConfig
from repro.datasets import generate_weather
from repro.lang.compile import compile_cached, make_runner
from repro.naiad import dataflow, run_where_many
from repro.queries import DOMAIN_QUERIES
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    InMemorySink,
    JsonlFileSink,
    MetricsRegistry,
    NULL_TELEMETRY,
    PrometheusTextSink,
    Telemetry,
    TelemetrySink,
    Tracer,
    prometheus_text,
)

GOLDEN = Path(__file__).parent / "data" / "telemetry_golden.prom"


class TestSpans:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", task="t") as outer:
            with tracer.span("inner") as inner:
                inner.set("k", 1)
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner"]
        assert inner.attributes == {"k": 1}
        assert outer.attributes == {"task": "t"}

    def test_times_recorded(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            sum(range(10_000))
        assert span.wall_seconds > 0
        assert span.cpu_seconds >= 0
        d = span.to_dict()
        assert d["name"] == "timed"
        assert d["wall_s"] >= 0

    def test_error_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.roots[0].attributes["error"] == "ValueError"

    def test_to_dicts_children(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        (root,) = tracer.to_dicts()
        assert [c["name"] for c in root["children"]] == ["b"]


class TestMetrics:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(2)
        reg.counter("hits", shard="a").inc(5)
        assert reg.counter("hits").value == 3
        assert reg.counter("hits", shard="a").value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("hits").inc(-1)

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(4)
        g.inc(-1)
        assert g.value == 3

    def test_histogram_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            h.observe(v)
        snap = h.snapshot()
        # Cumulative: le=0.1 -> 1, le=1.0 -> 3, +Inf -> 4.
        assert snap["buckets"] == [[0.1, 1], [1.0, 3], ["+Inf", 4]]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.25)

    def test_histogram_boundary_value_goes_in_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        h.observe(1.0)  # le is inclusive
        assert h.snapshot()["buckets"][0] == [1.0, 1]

    def test_default_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        assert tuple(h.boundaries) == DEFAULT_LATENCY_BUCKETS

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.counter("only_b").inc(7)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        a.merge(b)
        assert a.counter("c").value == 3
        assert a.counter("only_b").value == 7
        assert a.gauge("g").value == 9  # gauges overwrite
        assert a.histogram("h", buckets=(1.0,)).snapshot()["count"] == 2

    def test_merge_counts_bridge(self):
        reg = MetricsRegistry()
        reg.merge_counts({"checks": 3, "cache_hits": 1}, prefix="smt_")
        assert reg.counter("smt_checks").value == 3
        assert reg.counter("smt_cache_hits").value == 1

    def test_snapshot_sorted_and_grouped(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert [c["name"] for c in snap["counters"]] == ["a", "b"]
        assert set(snap) == {"counters", "gauges", "histograms"}


class TestPrometheus:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("requests_total", method="get").inc(3)
        reg.counter("requests_total", method="post").inc(1)
        reg.gauge("queue_depth").set(2)
        h = reg.histogram("latency_seconds", buckets=(0.1, 0.5))
        for v in (0.05, 0.3, 0.9):
            h.observe(v)
        return reg

    def test_golden_file(self):
        text = prometheus_text(self._registry().snapshot())
        assert text == GOLDEN.read_text()

    def test_every_family_has_help_and_type(self):
        text = prometheus_text(self._registry().snapshot())
        for name, kind in (
            ("requests_total", "counter"),
            ("queue_depth", "gauge"),
            ("latency_seconds", "histogram"),
        ):
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} {kind}" in text
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# TYPE "):
                assert lines[i - 1].startswith("# HELP "), line

    def test_known_family_gets_curated_help(self):
        reg = MetricsRegistry()
        reg.counter("smt_checks").inc()
        text = prometheus_text(reg.snapshot())
        assert "# HELP smt_checks SMT validity checks issued.\n" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c').inc()
        text = prometheus_text(reg.snapshot())
        assert 'path="a\\"b\\\\c"' in text

    def test_label_newline_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", path="a\nb").inc()
        text = prometheus_text(reg.snapshot())
        assert 'path="a\\nb"' in text
        assert "\n\n" not in text  # no literal newline leaked into a label

    def test_help_escaping_differs_from_label_escaping(self):
        # HELP text escapes backslash and newline but NOT double quotes.
        from repro.telemetry.sinks import HELP_TEXTS

        HELP_TEXTS['weird_metric'] = 'say "hi"\nback\\slash'
        try:
            reg = MetricsRegistry()
            reg.counter("weird_metric").inc()
            text = prometheus_text(reg.snapshot())
            assert '# HELP weird_metric say "hi"\\nback\\\\slash\n' in text
        finally:
            del HELP_TEXTS["weird_metric"]


class TestSinks:
    def test_in_memory(self):
        sink = InMemorySink()
        t = Telemetry.capture()
        t.counter("c").inc()
        t.export(sink)
        assert len(sink.exports) == 1
        assert sink.exports[0]["metrics"]["counters"][0]["name"] == "c"
        assert isinstance(sink, TelemetrySink)

    def test_jsonl_appends(self, tmp_path):
        path = tmp_path / "m.jsonl"
        sink = JsonlFileSink(path)
        t = Telemetry.capture()
        t.counter("c").inc()
        t.export(sink)
        t.export(sink)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["metrics"]["counters"][0]["value"] == 1

    def test_prometheus_sink_overwrites(self, tmp_path):
        path = tmp_path / "m.prom"
        sink = PrometheusTextSink(path)
        t = Telemetry.capture()
        t.counter("c").inc()
        t.export(sink)
        t.export(sink)
        assert path.read_text().count("# TYPE c counter") == 1


class TestNoop:
    def test_null_telemetry_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        assert Telemetry.disabled() is NULL_TELEMETRY

    def test_null_span_is_context_manager(self):
        with NULL_TELEMETRY.span("x", a=1) as span:
            span.set("k", 2)  # all no-ops

    def test_null_metrics_accept_everything(self):
        NULL_TELEMETRY.counter("c", l="v").inc(5)
        NULL_TELEMETRY.gauge("g").set(1)
        NULL_TELEMETRY.histogram("h").observe(0.5)
        snap = NULL_TELEMETRY.snapshot()
        assert snap["metrics"] == {"counters": [], "gauges": [], "histograms": []}

    def test_child_of_disabled_is_self(self):
        assert NULL_TELEMETRY.child() is NULL_TELEMETRY
        NULL_TELEMETRY.absorb(NULL_TELEMETRY)  # must not raise

    def test_a_run_with_nothing_switched_on_takes_the_bare_path(self, monkeypatch):
        """Off means not installed: the plain ``Worker``, no per-operator
        stats, the compiled closure itself out of ``make_runner`` — and the
        buckets of the traced run."""

        weather = generate_weather(cities=15)
        programs = DOMAIN_QUERIES["weather"].make_batch(weather, "Mix", n=10, seed=1)
        ft = weather.functions
        traced = run_where_many(
            weather.rows, programs, ft, ExecutionConfig(telemetry=Telemetry.capture(trace=True))
        )
        assert traced.metrics.per_operator

        def no_traced_worker(*args):
            raise AssertionError("a disabled run built the instrumented worker")

        monkeypatch.setattr(dataflow, "_TracedWorker", no_traced_worker)
        config = ExecutionConfig()
        assert config.telemetry is NULL_TELEMETRY
        bare = run_where_many(weather.rows, programs, ft, config)
        assert bare.metrics.per_operator == {}
        assert bare.buckets == traced.buckets
        assert make_runner(programs[0], ft) == compile_cached(programs[0], ft).run


class TestChildAbsorb:
    def test_child_metrics_fold_back(self):
        parent = Telemetry.capture()
        parent.counter("c").inc(1)
        child = parent.child()
        child.counter("c").inc(2)
        assert parent.counter("c").value == 1  # isolated until absorbed
        parent.absorb(child)
        assert parent.counter("c").value == 3
        assert child.counter("c").value == 2

    def test_child_shares_tracer(self):
        parent = Telemetry.capture(trace=True)
        child = parent.child()
        with child.span("from-child"):
            pass
        assert [s.name for s in parent.tracer.roots] == ["from-child"]
