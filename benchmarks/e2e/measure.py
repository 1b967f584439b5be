"""One workload's script: the calls that are timed, and the checks on them.

The script drives ``repro`` only through its public entry points, under the
default :class:`~repro.config.ExecutionConfig` with ``workers=1`` (and the
same with ``backend="vectorized"``).  One *round* makes one sample of every
timed call, so samples of different calls are interleaved:

1. ``api.consolidate(programs)``;
2. ``whereMany`` and ``whereConsolidated`` over all rows on the compiled and
   the vectorized backend, lowering cached, each looped a fixed count;
3. the service cycle on a fresh :class:`~repro.service.QueryRegistry` with
   an fsync'd event log: register the first *m* queries one at a time as
   Figure-1 source text, unregister the first *k*, register those again,
   ``registry.run(rows)`` three times, then build a second registry on the
   same log (replay).

Steps 1 and 3 see the same queries under *fresh query ids* in every round
(``q7`` becomes ``r3q7``).  Consolidation prefixes each query's locals with
its id, and the solver memoises theory checks process-wide by literal set, so
re-consolidating identical ids would measure a cache no user ever has warm:
new queries always arrive under new ids.  Step 2 runs the original ids, whose
lowering is cached after the warm-up.

The first round of a run is an untimed warm-up that also carries the
correctness checks.

Every time is reported *at reference machine speed* (see :class:`Clock`).
"""

from __future__ import annotations

import copy
import gc
import os
import statistics
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro import api
from repro.config import ExecutionConfig
from repro.lang.ast import Program
from repro.lang.compile import clear_compile_cache
from repro.lang.printer import program_to_str
from repro.lang.vectorize import clear_vectorize_cache
from repro.lang.visitors import stmt_size
from repro.naiad.linq import from_collection, run_where_many
from repro.service import QueryRegistry
from repro.service.fingerprint import rename_pids

from trace import Tracer
from workloads import Inputs, Workload

BACKENDS = ("compiled", "vectorized")
CONFIGS = tuple(f"{kind}_{backend}" for backend in BACKENDS for kind in ("many", "cons"))
REGISTRY_RUNS = 3

# What the calibration kernel takes in the sandbox's fast regime.
REFERENCE_KERNEL_S = 0.0100


def calibration_kernel() -> float:
    """Wall seconds of a fixed amount of interpreter work (tuples hashed,
    dict entries read and written, integers added)."""

    started = perf_counter()
    table: dict = {}
    total = 0
    for i in range(40000):
        key = (i & 511, i % 7)
        total += table.setdefault(key, i) & 15
        table[key] = total
    return perf_counter() - started


class Clock:
    """Wall time of a call, also scaled to reference machine speed.

    The sandbox this benchmark is gated in switches every few seconds
    between a fast and a slow regime about 1.5x apart (a fixed kernel reads
    10 ms or 15 ms), and drifts between runs.  A median over the handful of
    samples a run has time for then lands in either regime, and medians of
    ten runs spread by 15-30 %.  So a fixed kernel is timed immediately
    before and after every timed call, and the call's wall time is
    multiplied by ``REFERENCE_KERNEL_S / mean(kernel before, kernel after)``.
    The kernel is the benchmark's own code: no change to the program under
    test moves it.  README.md ("Noise") has the spreads with and without.
    """

    STALE_S = 0.05

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._probed_at = float("-inf")

    def probe(self, reuse: bool = False) -> float:
        """Time the kernel now (or reuse a reading less than 50 ms old)."""

        if not (reuse and perf_counter() - self._probed_at < self.STALE_S):
            self.kernel_s.append(calibration_kernel())
            self._probed_at = perf_counter()
        return self.kernel_s[-1]

    def time(self, fn: Callable[[], object]) -> tuple[float, float, object]:
        """``(scaled seconds, wall seconds, fn())``."""

        before = self.probe(reuse=True)
        started = perf_counter()
        result = fn()
        wall = perf_counter() - started
        scaled = wall * REFERENCE_KERNEL_S / ((before + self.probe()) / 2.0)
        self.wall_s += wall
        self.scaled_s += scaled
        return scaled, wall, result

    def factor(self) -> float:
        """Scaled over measured seconds of everything timed so far: below 1
        when the machine was slower than the reference."""

        return self.scaled_s / self.wall_s if self.wall_s else 1.0


def percentile(samples: list[float], p: float) -> float:
    """The ``p``-th percentile (0..100), linear between closest ranks."""

    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""

    return int(n * (100.0 - p) / 100.0 + 1e-9)


def highest_supported_percentile(n: int) -> int:
    """The highest of the usual percentiles with at least ten samples beyond
    it (50 when even the median has fewer)."""

    supported = [p for p in (50, 80, 90, 95, 99) if samples_beyond(n, p) >= 10]
    return max(supported, default=50)


@dataclass
class Ops:
    """Operations attempted and failed: public calls made and checks run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def call(self) -> None:
        self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)


def with_fresh_ids(programs: list, tag: str) -> list:
    """The same queries under new ids: ``q7`` becomes ``<tag>q7``."""

    return [
        Program(tag + p.pid, p.params, rename_pids(p.body, {p.pid: tag + p.pid}))
        for p in programs
    ]


def _nonempty(buckets: dict) -> dict:
    """Buckets exist only for pids that notified at least once."""

    return {pid: rows for pid, rows in buckets.items() if rows}


class Script:
    """The timed calls of one workload over one set of inputs."""

    def __init__(self, workload: Workload, inputs: Inputs, scratch_dir: str, ops: Ops) -> None:
        self.workload = workload
        self.inputs = inputs
        self.scratch_dir = scratch_dir
        self.ops = ops
        self.tracer: Optional[Tracer] = None
        self.clock = Clock()
        self.configs = {b: ExecutionConfig(backend=b, workers=1) for b in BACKENDS}
        self.pids = [p.pid for p in inputs.programs]
        self.merged = None  # the original ids consolidated once, for the run phase
        self.rounds = 0
        self.samples: dict[str, list[float]] = {}  # at reference speed
        self.wall_samples: dict[str, list[float]] = {}  # as measured
        self.facts: dict[str, float] = {}
        self.verify_s = 0.0

    def traced_twin(self, tracer: Tracer) -> "Script":
        """The same script with spans on and its samples kept apart; inputs,
        merged program, counts and operation totals are shared."""

        twin = copy.copy(self)
        twin.tracer = tracer
        twin.clock = Clock()
        twin.samples, twin.wall_samples = {}, {}
        return twin

    # -- plumbing ------------------------------------------------------------

    def _timed(self, phase: str, fn: Callable[[], object], collect: bool = True):
        """``(scaled seconds, wall seconds, fn())`` under one root span named
        after the phase, the collector run first and then held off."""

        span = nullcontext() if self.tracer is None else self.tracer.span(f"bench.{phase}")

        def body():
            with span:
                return fn()

        if not collect:
            return self.clock.time(body)
        gc.collect()
        gc.disable()
        try:
            return self.clock.time(body)
        finally:
            gc.enable()

    def _keep(self, name: str, scaled: float, wall: float, scale: float = 1.0) -> None:
        self.samples.setdefault(name, []).append(scaled * scale)
        self.wall_samples.setdefault(name, []).append(wall * scale)

    def _run_many(self, backend: str, rows: list, programs: Optional[list] = None):
        self.ops.call()
        return run_where_many(
            rows,
            self.inputs.programs if programs is None else programs,
            self.inputs.functions,
            config=self.configs[backend],
        )

    def _run_cons(self, backend: str, rows: list, merged):
        self.ops.call()
        config = self.configs[backend]
        query = from_collection(rows, config=config).where_consolidated(
            merged, self.pids, self.inputs.functions
        )
        return query.run(config)

    def _run(self, config_name: str, rows: list, merged):
        kind, backend = config_name.split("_")
        if kind == "many":
            return self._run_many(backend, rows)
        return self._run_cons(backend, rows, merged)

    # -- one round -----------------------------------------------------------

    def round(self, record: bool = True, verify: bool = False, cold: bool = False) -> None:
        """One sample of every timed call.

        ``record=False`` is the warm-up; ``verify`` adds the correctness
        checks; ``cold`` adds, before the steady-state runs, one run of each
        configuration with the lowering caches cleared (traced pass only).
        """

        keep = self._keep if record else (lambda *sample, **scale: None)
        inputs, workload = self.inputs, self.workload
        self.rounds += 1
        fresh = with_fresh_ids(inputs.programs, f"r{self.rounds}")

        self.ops.call()
        scaled, wall, report = self._timed(
            "consolidate",
            lambda: api.consolidate(fresh, inputs.functions, config=self.configs["compiled"]),
        )
        keep("consolidate_s", scaled, wall)
        self._check_report(report)
        if self.merged is None:
            self.merged = self.batch_facts()

        if cold:
            for name in CONFIGS:
                clear_compile_cache()
                clear_vectorize_cache()
                with self.tracer.span(f"bench.cold.{name}"):
                    self._run(name, inputs.rows, self.merged)

        results = {}
        for name in CONFIGS:
            loops = workload.run_loops.get(name, 1)

            def looped(name=name, loops=loops):
                result = None
                for _ in range(loops):
                    result = self._run(name, inputs.rows, self.merged)
                return result

            scaled, wall, results[name] = self._timed(f"run.{name}", looped)
            keep(f"run_{name}_s", scaled, wall, scale=1.0 / loops)
        self._note_runs(results)

        if verify:
            started = perf_counter()
            self._verify_runs(results)
            self.verify_s += perf_counter() - started

        self._service_cycle(fresh[: workload.service_queries], keep, verify)

    def batch_facts(self):
        """Consolidate the original ids and run the pair once on the compiled
        backend, noting the counts; returns the merged program."""

        inputs = self.inputs
        self.ops.call()
        report = api.consolidate(
            inputs.programs, inputs.functions, config=self.configs["compiled"]
        )
        self._check_report(report)
        self._note_runs(
            {
                name: self._run(name, inputs.rows, report.program)
                for name in ("many_compiled", "cons_compiled")
            }
        )
        return report.program

    def _check_report(self, report) -> None:
        ops = self.ops
        ops.check(not report.skipped_pairs, f"skipped pairs: {report.skipped_pairs}")
        ops.check(not report.degradations, f"degradations: {report.degradations}")
        stats, simplify = report.solver_stats, report.simplify_stats
        self.facts.update(
            {
                "smt.checks": stats["checks"],
                "smt.cache_hits": stats["cache_hits"],
                "smt.cache_hit_ratio": stats["cache_hits"] / max(1, stats["checks"]),
                "smt.sat_calls": stats["sat_calls"],
                "smt.theory_rounds": stats["theory_rounds"],
                "smt.unknowns": stats["unknowns"],
                "consolidation.simplifier.entail_queries": simplify["entail_queries"],
                "consolidation.simplifier.smt_queries": simplify["smt_queries"],
                "consolidation.simplifier.precheck_skips": simplify["precheck_skips"],
                "consolidation.simplifier.memo_hits": simplify["memo_hits"],
                "consolidation.simplifier.memo_hit_ratio": simplify["memo_hit_rate"],
                "consolidation.divide_conquer.pair_merges": report.pair_consolidations,
                "consolidation.divide_conquer.tree_depth": report.tree_depth,
                "consolidation.divide_conquer.skipped_pairs": len(report.skipped_pairs),
                "consolidation.divide_conquer.degradations": len(report.degradations),
                "consolidation.merged_ir_nodes": stmt_size(report.program.body),
            }
        )

    def _note_runs(self, results: dict) -> None:
        many, cons = results["many_compiled"].metrics, results["cons_compiled"].metrics
        self.facts.update(
            {
                "udf_cost_ratio": many.udf_cost / max(1, cons.udf_cost),
                "naiad.records": many.records,
                "naiad.udf_cost_many": many.udf_cost,
                "naiad.udf_cost_cons": cons.udf_cost,
                "naiad.total_cost_many": many.total_cost,
                "naiad.total_cost_cons": cons.total_cost,
                "naiad.notifications": sum(
                    len(rows) for rows in results["many_compiled"].buckets.values()
                ),
            }
        )

    # -- correctness ---------------------------------------------------------

    def _verify_runs(self, results: dict) -> None:
        """Checks (a)-(c): reference, many == cons on all rows, cost never worse."""

        ops, inputs = self.ops, self.inputs
        for backend in BACKENDS:
            many, cons = results[f"many_{backend}"], results[f"cons_{backend}"]
            ops.check(
                _nonempty(many.buckets) == _nonempty(cons.buckets),
                f"{backend}: whereMany and whereConsolidated buckets differ on all rows",
            )
            ops.check(
                cons.metrics.udf_cost <= many.metrics.udf_cost,
                f"{backend}: consolidated UDF cost {cons.metrics.udf_cost} exceeds "
                f"whereMany's {many.metrics.udf_cost}",
            )
        ops.check(
            results["many_compiled"].metrics.udf_cost
            == results["many_vectorized"].metrics.udf_cost
            and results["cons_compiled"].metrics.udf_cost
            == results["cons_vectorized"].metrics.udf_cost,
            "UDF cost differs between the compiled and the vectorized backend",
        )

        # The reference is independent of everything measured: each original
        # UDF alone, on the interpreter.
        interp = ExecutionConfig(backend="interp", workers=1)
        reference: dict = {}
        for program in inputs.programs:
            ops.call()
            alone = run_where_many(
                inputs.reference_rows, [program], inputs.functions, config=interp
            )
            reference.update(_nonempty(alone.buckets))
        for name in CONFIGS:
            result = self._run(name, inputs.reference_rows, self.merged)
            ops.check(
                _nonempty(result.buckets) == reference,
                f"{name}: buckets differ from the interpreter reference on "
                f"{len(inputs.reference_rows)} sampled rows",
            )

    def _verify_registry(self, registry: QueryRegistry, when: str) -> None:
        """Check (d): the live plan answers as whereMany over the live set."""

        live = [q.program for q in registry.queries()]
        self.ops.call()
        served = registry.run(self.inputs.rows)
        expected = self._run_many("compiled", self.inputs.rows, live)
        self.ops.check(
            _nonempty(served.buckets) == _nonempty(expected.buckets),
            f"registry.run differs from whereMany over the live set {when}",
        )

    # -- the service cycle ---------------------------------------------------

    def _service_cycle(self, queries: list, keep: Callable, verify: bool) -> None:
        """One cycle; its calls are timed one by one, each under its own
        root span, and ``churn_total_s`` is their sum."""

        ops, inputs = self.ops, self.inputs
        config = self.configs["compiled"]
        texts = [program_to_str(p) for p in queries]
        churned = queries[: self.workload.service_churned]
        totals = [0.0, 0.0]  # scaled, wall

        def call(phase: str, name: str, scale: float, fn: Callable[[], object]):
            ops.call()
            scaled, wall, result = self._timed(f"churn.{phase}", fn, collect=False)
            totals[0] += scaled
            totals[1] += wall
            if name:
                keep(name, scaled, wall, scale=scale)
            return scaled, result

        def checked(when: str) -> None:
            if verify:
                started = perf_counter()
                self._verify_registry(registry, when)
                self.verify_s += perf_counter() - started

        with tempfile.TemporaryDirectory(dir=self.scratch_dir) as directory:
            log = os.path.join(directory, "events.jsonl")
            # One sample is the whole cycle, so the collector is held off
            # around the cycle, not around each call inside it.
            gc.collect()
            gc.disable()
            try:
                _, registry = call(
                    "open", "", 1.0,
                    lambda: QueryRegistry(inputs.functions, config=config, event_log=log),
                )
                first = 0.0
                for text in texts:
                    first += call(
                        "register", "register_ms", 1e3, lambda: api.register(registry, text)
                    )[0]
                checked("after the registrations")
                for query in churned:
                    call(
                        "unregister", "unregister_ms", 1e3,
                        lambda: api.unregister(registry, query.pid),
                    )
                checked("after the unregistrations")
                for text in texts[: len(churned)]:
                    call("register", "register_ms", 1e3, lambda: api.register(registry, text))
                checked("after the re-registrations")
                for _ in range(REGISTRY_RUNS):
                    call("run", "registry_run_s", 1.0, lambda: registry.run(inputs.rows))
                _, replayed = call(
                    "replay", "replay_s", 1.0,
                    lambda: QueryRegistry(inputs.functions, config=config, event_log=log),
                )
            finally:
                gc.enable()
            keep("churn_total_s", *totals)
            keep("first_registrations_s", first, first)

            ops.check(
                registry.stats["admission_rejects_total"] == 0,
                "a generated query was rejected by admission",
            )
            if verify:
                started = perf_counter()
                ops.check(replayed.pids() == registry.pids(), "replayed pids differ")
                ops.check(
                    replayed.plan().fingerprint == registry.plan().fingerprint
                    and replayed.plan().program_text == registry.plan().program_text,
                    "replayed plan differs from the live plan",
                )
                self.verify_s += perf_counter() - started
            stats = registry.stats
            self.facts.update(
                {
                    "service.admission.rejects": stats["admission_rejects_total"],
                    "service.registry.plan_cache_hits": stats["plan_cache_hits"],
                    "service.registry.plan_cache_misses": stats["plan_cache_misses"],
                    "service.registry.incremental_patches": stats["incremental_patches"],
                    "service.registry.full_rebuilds": stats["full_rebuilds"],
                    "service.registry.patch_fallbacks": stats["patch_fallbacks"],
                    "service.registry.pair_merges_total": stats["pair_merges_total"],
                }
            )

    # -- summaries -----------------------------------------------------------

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def end_to_end(self, samples: Optional[dict] = None) -> dict[str, float]:
        """The end-to-end metrics this script measures itself (everything
        but ``setup_s`` and ``peak_rss_mb``), from the scaled samples unless
        others are given."""

        samples = self.samples if samples is None else samples
        out = {"consolidate_s": statistics.median(samples["consolidate_s"])}
        for name in CONFIGS:
            out[f"run_{name}_s"] = statistics.median(samples[f"run_{name}_s"])
        out["udf_cost_ratio"] = self.facts["udf_cost_ratio"]
        out["churn_total_s"] = statistics.median(samples["churn_total_s"])
        out["register_p50_ms"] = percentile(samples["register_ms"], 50)
        out["register_p80_ms"] = percentile(samples["register_ms"], 80)
        out["unregister_p50_ms"] = percentile(samples["unregister_ms"], 50)
        out["replay_s"] = statistics.median(samples["replay_s"])
        return out

    def timed_wall_s(self) -> float:
        """Median seconds of the calls a traced round repeats."""

        total = self.median("consolidate_s") + self.median("churn_total_s")
        for name in CONFIGS:
            total += self.median(f"run_{name}_s") * self.workload.run_loops.get(name, 1)
        return total

    def batch_of_service_s(self, repeats: int = 3) -> float:
        """One batch ``consolidate`` of the queries the service registers,
        for ``derived.incremental_vs_batch_ratio``."""

        programs = self.inputs.programs[: self.workload.service_queries]
        times = []
        for index in range(repeats):
            self.ops.call()
            fresh = with_fresh_ids(programs, f"b{index}")
            scaled, _, _ = self._timed(
                "batch_of_service",
                lambda: api.consolidate(
                    fresh, self.inputs.functions, config=self.configs["compiled"]
                ),
            )
            times.append(scaled)
        return statistics.median(times)
