#!/usr/bin/env python3
"""bench-e2e: wall-clock benchmark of the whole pipeline, layer by layer.

    python3 benchmarks/e2e/run.py                      # every workload, both passes
    python3 benchmarks/e2e/run.py --workload scan --seed 3 --seconds 22 --trace 0
    python3 benchmarks/e2e/run.py --workload scan --trace 1      # per-layer pass
    python3 benchmarks/e2e/run.py --quick                        # smoke sizes
    python3 benchmarks/e2e/run.py --check-determinism

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the ``end_to_end`` metrics
of ``BENCHMARK.json`` under ``--trace 0``, its ``per_layer`` metrics under
``--trace 1``.  Every metric is also printed by name with its unit.  The exit
code is non-zero when any operation failed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for _path in (str(REPO / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from workloads import WORKLOADS, Workload, make_inputs  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# Counts that must repeat exactly under any PYTHONHASHSEED; later issues may
# rest claims on these (choosing-metrics, section 8).
EXACT_COUNTS = (
    "smt.checks",
    "consolidation.simplifier.entail_queries",
    "consolidation.divide_conquer.pair_merges",
    "consolidation.merged_ir_nodes",
    "naiad.udf_cost_many",
    "naiad.udf_cost_cons",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="draws the rows (default 0)")
    parser.add_argument(
        "--family-seed", type=int, default=0,
        help="draws the queries; 1 is reserved for validating claims (default 0)",
    )
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics (default: both "
        "passes when no --workload is given, else 0)",
    )
    parser.add_argument("--out", default=str(HERE / "out"), help="span files, event logs")
    parser.add_argument("--quick", action="store_true", help="smoke sizes, one sample")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--only", choices=("setup", "counts"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def sized(args: argparse.Namespace) -> Workload:
    workload = WORKLOADS[args.workload]
    return workload.quick() if args.quick else workload


def child_command(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--family-seed", str(args.family_seed),
        "--seconds", str(args.seconds),
        "--out", args.out,
    ]
    if args.quick:
        command.append("--quick")
    return command + list(extra)


# -- one workload ---------------------------------------------------------------


def measure_rounds(one_round, seconds: float, min_rounds: int) -> int:
    """Call ``one_round`` until the next call would no longer fit into
    ``seconds``; how many were made."""

    started = time.perf_counter()
    done, longest = 0, 0.0
    while True:
        round_started = time.perf_counter()
        one_round()
        done += 1
        now = time.perf_counter()
        longest = max(longest, now - round_started)
        if done >= min_rounds and now - started + longest > seconds:
            return done


def setup_seconds(args: argparse.Namespace, clock) -> tuple[float, float]:
    """Median ``(scaled, wall)`` seconds of fresh interpreters that import the
    program and make the inputs: what a user pays before the first call."""

    samples = []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        command = child_command(args, args.workload, "--only", "setup")
        samples.append(clock.time(lambda: subprocess.run(command, check=True))[:2])
    return tuple(statistics.median(column) for column in zip(*samples))


def run_workload(args: argparse.Namespace) -> int:
    from measure import Ops

    workload = sized(args)
    ops = Ops()
    notes: list[str] = []
    try:
        values = measure_workload(args, workload, ops, notes)
    except Exception:  # the boundary: report the failure, exit non-zero
        traceback.print_exc()
        ops.fail("exception: " + traceback.format_exc().strip().splitlines()[-1])
        values = {}

    metrics = {}
    for spec in SPEC["per_layer" if args.trace else "end_to_end"]:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        elif not ops.failed:
            ops.fail(f"metric {spec['name']} was not measured")

    for note in notes:
        print(f"# {workload.name}: {note}")
    for name, metric in metrics.items():
        print(f"{workload.name:14s} {name:48s} {metric['value']:.6g} {metric['unit']}")
    for failure in ops.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"# {workload.name}: failed_ops_ratio {ops.failed}/{max(1, ops.attempted)}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": max(1, ops.attempted),
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 1 if ops.failed else 0


def measure_workload(args, workload: Workload, ops, notes: list[str]) -> dict[str, float]:
    """Set up, warm up and check, measure for ``--seconds``; every metric of
    the requested pass by name."""

    from layers import PATCH_POINTS
    from measure import Script, highest_supported_percentile
    from trace import Summary, Tracer, write_spans

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # --quick: one round of each pass, whatever --seconds says.
    min_rounds = 1 if args.quick else MIN_ROUNDS
    seconds = 0.0 if args.quick else args.seconds
    window = seconds / 2 if args.trace else seconds

    inputs = make_inputs(workload, args.seed, args.family_seed)
    script = Script(workload, inputs, str(out), ops)
    setup_s, setup_wall_s = setup_seconds(args, script.clock)
    script.round(record=False, verify=True)
    rounds = measure_rounds(script.round, window, min_rounds)

    # Times are at reference machine speed (measure.Clock); the wall-clock
    # medians are printed beside them.
    values = script.end_to_end()
    values["setup_s"] = setup_s
    measured = script.end_to_end(script.wall_samples)
    measured["setup_s"] = setup_wall_s
    factor = script.clock.factor()
    registers = len(script.samples["register_ms"])
    notes.append(
        f"seed {args.seed}, family seed {args.family_seed}, {workload.n_udfs} UDFs, "
        f"{len(inputs.rows)} rows, {rounds} untraced rounds, {registers} register samples "
        f"(highest percentile with 10 samples beyond: "
        f"p{highest_supported_percentile(registers)}), "
        f"{len(script.samples['unregister_ms'])} unregister samples"
    )
    notes.append(
        f"machine speed factor {factor:.4f} (calibration kernel median "
        f"{statistics.median(script.clock.kernel_s) * 1e3:.3f} ms over "
        f"{len(script.clock.kernel_s)} readings)"
    )
    notes.append("as measured, before scaling: " + json.dumps(measured))
    if not args.trace:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return values

    batch_of_service_s = script.batch_of_service_s()
    tracer = Tracer()
    traced = script.traced_twin(tracer)
    summary, kept_spans = Summary(), []

    def traced_round() -> None:
        traced.round(cold=True)
        summary.add(tracer.spans)
        if not kept_spans:  # the span file holds one round, the totals hold all
            kept_spans.extend(tracer.spans)
        tracer.reset()

    with tracer.installed(PATCH_POINTS):
        measure_rounds(traced_round, window, 1)
    write_spans(out / f"trace-{workload.name}.json", workload.name, kept_spans, summary)
    notes.append(f"{summary.rounds} traced rounds, {len(kept_spans)} spans in the first")
    for phase in sorted(summary.phase_wall_s):
        shares = ", ".join(
            f"{name} {share:.0%}" for name, share in summary.phase_shares(phase)[:6]
        )
        notes.append(f"{phase}: {shares}")
    values.update(
        per_layer_values(
            script, inputs, values, summary, factor, traced.clock.factor(),
            traced.timed_wall_s() / script.timed_wall_s(), batch_of_service_s,
        )
    )
    return values


def per_layer_values(
    script, inputs, end_to_end: dict, summary,
    factor: float, traced_factor: float, trace_overhead_ratio: float,
    batch_of_service_s: float,
) -> dict[str, float]:
    """Every per-layer metric: seconds are per traced round at reference
    machine speed, outside the cold-lowering runs unless the name says so."""

    from measure import CONFIGS

    workload, rounds = script.workload, summary.rounds

    def steady(table: dict, name: str) -> float:
        return sum(
            seconds for (phase, span), seconds in table.items()
            if span == name and not phase.startswith("cold.")
        ) * traced_factor / rounds

    def self_s(name: str) -> float:
        return steady(summary.phase_self_s, name)

    def busy_s(name: str) -> float:
        return steady(summary.phase_busy_s, name)

    def calls(name: str) -> float:
        return summary.calls.get(name, 0) / rounds

    def cold(config: str, *names: str) -> float:
        return sum(
            summary.phase_self_s.get((f"cold.{config}", n), 0.0) for n in names
        ) * traced_factor / rounds

    out = dict(script.facts)
    out.pop("udf_cost_ratio")
    out.update({
        "datasets.generate_s": inputs.generate_s * factor,
        "queries.make_batch_s": inputs.make_batch_s * factor,
        "queries.ir_nodes": inputs.ir_nodes,
        "lang.parser.parse_s": busy_s("lang.parser"),
        "lang.parser.calls": calls("lang.parser"),
        "service.events.append_s": busy_s("service.events"),
        "service.events.appends": calls("service.events"),
        "service.registry.run_s": busy_s("service.registry.run"),
        "consolidation.incremental.add_s": busy_s("consolidation.incremental.add"),
        "consolidation.incremental.remove_s": busy_s("consolidation.incremental.remove"),
        "consolidation.incremental.rebuild_s": busy_s("consolidation.incremental.rebuild"),
        "consolidation.incremental.adds": calls("consolidation.incremental.add"),
        "consolidation.incremental.removes": calls("consolidation.incremental.remove"),
        "analysis.invariants.busy_s": busy_s("analysis.invariants"),
        "analysis.invariants.calls": calls("analysis.invariants"),
        "consolidation.algorithm.pair_calls": calls("consolidation.algorithm"),
        "lang.compile.udf_self_s": self_s("lang.compile.udf"),
        "lang.vectorize.batch_self_s": self_s("lang.vectorize.batch"),
        "lang.compile.lower_many_s": cold("many_compiled", "lang.compile"),
        "lang.compile.lower_cons_s": cold("cons_compiled", "lang.compile"),
        "lang.vectorize.lower_many_s": cold("many_vectorized", "lang.vectorize", "lang.compile"),
        "lang.vectorize.lower_cons_s": cold("cons_vectorized", "lang.vectorize", "lang.compile"),
        "naiad.run.self_s": self_s("naiad.run"),
        "bench.unattributed_share": summary.unattributed_share(),
        "bench.trace_overhead_ratio": trace_overhead_ratio,
        "bench.machine_speed_factor": factor,
        "bench.verify_s": script.verify_s * factor,
    })
    for layer in (
        "analysis.lint", "service.admission", "service.fingerprint", "service.registry",
        "analysis.validate", "analysis.invariants", "analysis.sp",
        "smt.solver", "smt.cnf", "smt.sat", "smt.combine", "smt.euf", "smt.lia",
        "consolidation.simplifier", "consolidation.algorithm", "consolidation.divide_conquer",
    ):
        out[f"{layer}.self_s"] = self_s(layer)
    for config in CONFIGS:
        loops = workload.run_loops.get(config, 1)
        out[f"naiad.run.{config}_self_s"] = (
            summary.phase_self_s.get((f"run.{config}", "naiad.run"), 0.0)
            * traced_factor / rounds / loops
        )

    # Derived from this run's untraced medians; reported, never gated.
    many, cons = end_to_end["run_many_compiled_s"], end_to_end["run_cons_compiled_s"]
    consolidate = end_to_end["consolidate_s"]
    oneshot = consolidate + out["lang.compile.lower_cons_s"] + cons
    saving_per_row = (many - cons) / max(1, len(inputs.rows))
    out.update({
        "derived.wall_speedup_compiled": many / cons,
        "derived.wall_speedup_vectorized":
            end_to_end["run_many_vectorized_s"] / end_to_end["run_cons_vectorized_s"],
        "derived.wall_vs_cost_ratio": many / cons / end_to_end["udf_cost_ratio"],
        "derived.oneshot_cons_s": oneshot,
        "derived.consolidation_share": consolidate / oneshot,
        # -1 stands for "never": the merged run is not faster than whereMany.
        "derived.break_even_rows":
            consolidate / saving_per_row if saving_per_row > 0 else -1.0,
        "derived.incremental_vs_batch_ratio":
            script.median("first_registrations_s") / batch_of_service_s,
    })
    return out


# -- the exact counts -----------------------------------------------------------


def print_counts(args: argparse.Namespace) -> int:
    from measure import Ops, Script

    workload = sized(args)
    inputs = make_inputs(workload, args.seed, args.family_seed)
    script = Script(workload, inputs, args.out, Ops())
    script.batch_facts()
    facts = script.facts
    print(json.dumps({name: facts[name] for name in EXACT_COUNTS}))
    return 0


def check_determinism(args: argparse.Namespace) -> int:
    """The exact counts must not depend on the interpreter's hash seed."""

    failed = 0
    for name in ([args.workload] if args.workload else list(WORKLOADS)):
        seen = []
        for hash_seed in ("1", "2"):
            done = subprocess.run(
                child_command(args, name, "--only", "counts"),
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                stdout=subprocess.PIPE, text=True, check=True,
            )
            seen.append(json.loads(done.stdout.strip().splitlines()[-1]))
        same = seen[0] == seen[1]
        failed += not same
        print(f"{name:14s} {'exact' if same else 'DIFFERS'} {json.dumps(seen[0])}"
              + ("" if same else f" vs {json.dumps(seen[1])}"))
    return 1 if failed else 0


# -- every workload -------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, so caches and peak memory of one
    do not leak into the next; untraced pass first, then the traced pass."""

    passes = (0, 1) if args.trace is None else (args.trace,)
    results, status = {}, 0
    for name in WORKLOADS:
        for trace_flag in passes:
            done = subprocess.run(
                child_command(args, name, "--trace", str(trace_flag)),
                stdout=subprocess.PIPE, text=True,
            )
            lines = done.stdout.rstrip().splitlines()
            print("\n".join(lines[:-1]))
            status |= done.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name}: no result (exit code {done.returncode})", file=sys.stderr)
                status = 1
                continue
            results.setdefault(name, {})["trace" if trace_flag else "end_to_end"] = result
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    attempted = sum(r["attempted"] for w in results.values() for r in w.values())
    failed = sum(r["failed"] for w in results.values() for r in w.values())
    print(f"# failed_ops_ratio {failed}/{attempted} = {failed / max(1, attempted):.6f}")
    print(f"# results written to {out / 'results.json'}")
    return 1 if status or failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        # No result line: there is nothing to measure without the program.
        sys.exit(f"the program under test is not importable from {REPO / 'src'}: {exc}")
    if args.check_determinism:
        return check_determinism(args)
    if args.workload is None:
        return run_all(args)
    if args.only == "setup":
        import measure  # noqa: F401 - the imports are part of the set-up cost

        make_inputs(sized(args), args.seed, args.family_seed)
        return 0
    if args.only == "counts":
        return print_counts(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
