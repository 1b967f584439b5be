"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``consolidate FILE [FILE ...]``
    Parse programs in the concrete syntax (see ``repro.lang.parser``),
    consolidate them, and print the merged program.  ``--domain`` supplies
    one of the five evaluation domains' function tables so that UDFs may
    call its accessors; ``--verify N`` re-checks Theorem 1 on the first N
    dataset rows.

``run FILE --args name=value[,name=value...]``
    Run a single program on the given arguments and print its
    notifications, cost and per-query latencies.

``lint [FILE ...]``
    Run the static UDF linter (:mod:`repro.analysis.static.lint`) over
    programs from files, or — with ``--domain`` and no files — over that
    domain's generated query families.  ``--format {text,json,sarif}``
    selects the rendering (``--json`` is kept as an alias for
    ``--format json``; ``sarif`` emits a SARIF 2.1.0 document for
    code-scanning UIs); ``--validate`` additionally consolidates each
    batch and reads every merged pair's translation-validation
    certificate; a merge the validator refutes is never taken, and is
    reported as a ``validation-refuted`` error.  Exit status: 0 clean,
    1 warnings only, 2 errors.

``figure9`` / ``figure10``
    Regenerate the paper's evaluation figures (textual rendering).
    ``figure9 --domain NAME`` (repeatable) restricts to chosen domains.

``latency`` — run the Section 8 latency experiment on a stock batch.

``explain``
    Derivation explain-plan (:mod:`repro.provenance`): consolidate one
    pair from a domain's generated batch, replay its derivation, execute
    it instrumented, and render every calculus-rule application,
    SMT entailment (with its Ψ context), cross-simplification rewrite and
    predicted-vs-actual operator cost as a text tree, JSON document or a
    self-contained HTML report (``--format``, ``--out``).

``serve``
    Run the consolidation service (:mod:`repro.service`): a stdlib HTTP
    server where tenants register/unregister Figure-1 UDF queries
    dynamically.  Admission runs the linter and rejects with SARIF
    diagnostics; equivalent re-registrations hit a plan cache keyed by
    canonical fingerprints; single add/remove patches the merge tree
    incrementally (rebuilding the balanced tree when grafts make it too
    deep); an optional ``--event-log`` journal makes state replayable on restart.
    ``--port 0`` binds an ephemeral port, printed as ``serving on
    http://…`` at startup.

``profile``
    Run a domain's generated query families under the sampling
    micro-profiler (:mod:`repro.profiling`) and append schema-versioned
    samples — static per-operation units against observed wall seconds,
    tagged with backend and domain — to a JSONL trace
    (``--trace-out``).  ``--sample-every`` sets the sampling stride;
    the chosen ``--backend`` decides the rung observed and the tag: whole
    kernel batches under ``compiled`` / ``vectorized``, single records
    under ``interp`` (and for any batch that degraded).

``calibrate``
    Fit a :class:`~repro.profiling.model.CalibratedCostModel` from a
    profiling trace by least squares and print its diagnostics (R²,
    residuals, per-operation weight/stderr/support/confidence).
    ``--out`` writes the model JSON (:meth:`CalibratedCostModel.load`
    reads it back); fitting the same trace twice yields byte-identical
    files.

``fuzz``
    Differential fuzzing (:mod:`repro.testing`): generate random typed UDF
    batches and run the oracle battery (interpreter vs compiled backend,
    ``whereMany`` vs ``whereConsolidated``, cost bounds,
    static validation) on each.  Failures are delta-debugged to minimal
    reproducers; ``--emit-corpus DIR`` writes them as replayable corpus
    files.  Exit status: 0 when every case passes, 1 otherwise.

Observability
-------------

Two top-level flags work on every command:

``--metrics-out PATH``
    Capture metrics for the whole invocation and write one JSON artifact:
    ``{"command", "rows", "metrics", "spans"}`` — per-operator dataflow
    counters, consolidation rule counts, SMT query counts and latency
    histogram, compiled-backend cache stats.  ``PATH`` ending in ``.prom``
    writes Prometheus text exposition instead.

``--trace``
    Additionally record nested spans (dataflow runs, consolidation
    batches/pairs) into the artifact.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable

from .config import ExecutionConfig, ServiceConfig
from .consolidation import ConsolidationOptions, check_soundness, consolidate_all
from .lang import FunctionTable, parse_program, program_to_str
from .lang.compile import BACKENDS, DEFAULT_BACKEND, make_runner
from .lang.parser import ParseError
from .telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["main"]


def _config_from_args(args) -> ExecutionConfig:
    """One ExecutionConfig for the whole CLI invocation."""

    telemetry = getattr(args, "_telemetry", NULL_TELEMETRY)
    return ExecutionConfig(backend=args.backend, telemetry=telemetry)


def _int_at_least(minimum: int, expected: str) -> Callable[[str], int]:
    """A count flag's ``type=``: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"invalid count {text!r} ({expected})")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_count = _int_at_least(0, "an integer >= 0")


def _positive_float(text: str) -> float:
    """A scale flag's ``type=``: a finite number > 0."""

    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"invalid scale {text!r} (a finite number > 0)"
        )
    return value


def _sweep(text: str) -> tuple[int, ...]:
    """``--sweep``: comma-separated positive batch sizes."""

    try:
        points = tuple(int(x) for x in text.split(","))
    except ValueError:
        points = ()
    if not points or min(points) < 1:
        raise argparse.ArgumentTypeError(
            f"invalid sweep {text!r} (comma-separated positive integers)"
        )
    return points


def _domain_dataset(name: str | None):
    if name is None:
        return None
    from . import datasets as ds

    makers = {
        "weather": lambda: ds.generate_weather(cities=100),
        "flight": lambda: ds.generate_flights(airlines=100),
        "news": lambda: ds.generate_news(articles=500),
        "twitter": lambda: ds.generate_twitter(tweets=500),
        "stock": lambda: ds.generate_stocks(companies=40, total_daily_rows=20_000),
    }
    if name not in makers:
        raise SystemExit(f"unknown domain {name!r}; choose from {sorted(makers)}")
    return makers[name]()


def _parse_args_option(text: str) -> dict:
    out: dict = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise SystemExit(f"bad --args entry {part!r}; expected name=value")
        name, value = part.split("=", 1)
        try:
            out[name.strip()] = int(value)
        except ValueError:
            out[name.strip()] = value
    return out


def _load_programs(paths):
    programs = []
    for path in paths:
        try:
            with open(path) as handle:
                programs.append(parse_program(handle.read()))
        except OSError as exc:
            raise SystemExit(f"cannot read {path}: {exc}")
        except ParseError as exc:
            raise SystemExit(f"{path}: {exc}")
    return programs


def cmd_consolidate(args) -> int:
    from . import api

    programs = _load_programs(args.files)
    dataset = _domain_dataset(args.domain)
    functions = dataset.functions if dataset else FunctionTable()
    options = ConsolidationOptions(
        if_rule_mode=args.if_rule_mode,
        enable_loop_rules=not args.no_loops,
        use_smt=not args.no_smt,
    )
    report = api.consolidate(
        programs, functions, options=options, config=_config_from_args(args)
    )
    print(program_to_str(report.program))
    print(
        f"\n# consolidated {report.num_inputs} programs in {report.duration:.3f}s "
        f"({report.pair_consolidations} pair merges, {len(report.declined)} declined, "
        f"{len(report.rides)} rides, "
        f"depth {report.tree_depth})",
        file=sys.stderr,
    )
    if args.verify and dataset:
        inputs = [{programs[0].params[0]: r} for r in dataset.rows[: args.verify]]
        sound = check_soundness(programs, report.program, functions, inputs)
        status = "OK" if sound.ok else f"FAILED: {sound.violations[:2]}"
        print(
            f"# verification on {sound.inputs_checked} rows: {status} "
            f"(speedup {sound.speedup:.2f}x)",
            file=sys.stderr,
        )
        if not sound.ok:
            return 1
    return 0


def cmd_lint(args) -> int:
    import json

    from .analysis.static import Finding, LintReport, lint_programs
    from .consolidation.algorithm import REFUTED_NOTE

    dataset = _domain_dataset(args.domain)
    functions = dataset.functions if dataset else FunctionTable()
    fmt = "json" if args.json and args.format == "text" else args.format

    # Batches are linted together but consolidated separately: families
    # reuse pids, and consolidation requires disjoint notification ids.
    batches: list[list] = []
    if args.files:
        batches.append(_load_programs(args.files))
    elif dataset:
        from .queries import DOMAIN_QUERIES

        module = DOMAIN_QUERIES[args.domain]
        families = [args.family] if args.family else list(module.FAMILY_NAMES)
        for family in families:
            batches.append(module.make_batch(dataset, family, n=args.n, seed=args.seed))
    else:
        raise SystemExit("nothing to lint: pass FILES or --domain")

    reports = [report for batch in batches for report in lint_programs(batch, functions)]
    linted = len(reports)

    # A refuted merge is kept unmerged, so it has no certificate: its
    # skip reason is reported as an error of the pair's program.
    validations = []
    if args.validate:
        cfg = _config_from_args(args)
        for batch in batches:
            if len(batch) < 2:
                continue
            report = consolidate_all(batch, functions, config=cfg)
            validations.extend(report.validations)
            for skip in report.skipped_pairs:
                if REFUTED_NOTE in skip["reason"]:
                    pid = f"{skip['left']}&{skip['right']}"
                    finding = Finding("validation-refuted", "error", skip["reason"], pid)
                    reports.append(LintReport(pid, (finding,)))

    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    certified = sum(1 for v in validations if v.certified)

    if fmt == "sarif":
        from .analysis.static import render_sarif

        print(render_sarif(reports))
    elif fmt == "json":
        doc = {
            "programs": linted,
            "errors": errors,
            "warnings": warnings,
            "reports": [r.to_dict() for r in reports if r.findings],
            "validations": [v.to_dict() for v in validations],
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in reports:
            for f in r.findings:
                where = f" [{f.snippet}]" if f.snippet else ""
                print(f"{r.program}: {f.severity}: {f.rule}: {f.message}{where}")
        summary = f"# linted {linted} programs: {errors} errors, {warnings} warnings"
        if args.validate:
            summary += (
                f"; {certified}/{len(validations)} pair consolidations certified, "
                f"{len(reports) - linted} refuted"
            )
        print(summary, file=sys.stderr)

    if errors:
        return 2
    if warnings:
        return 1
    return 0


def cmd_run(args) -> int:
    (program,) = _load_programs([args.file])
    dataset = _domain_dataset(args.domain)
    functions = dataset.functions if dataset else FunctionTable()
    bindings = _parse_args_option(args.args)
    cfg = _config_from_args(args)
    runner = make_runner(
        program, functions, backend=cfg.backend, telemetry=cfg.telemetry
    )
    result = runner(bindings)
    for pid in sorted(result.notifications):
        print(
            f"{pid}: {str(result.notifications[pid]).lower()} "
            f"(latency {result.notification_costs.get(pid, '?')})"
        )
    print(f"cost: {result.cost}", file=sys.stderr)
    return 0


def cmd_figure9(args) -> int:
    from .experiments import render_figure9, run_figure9
    from .experiments.figure9 import DOMAIN_ORDER

    domains = args.domain or DOMAIN_ORDER
    report = run_figure9(
        n_udfs=args.n_udfs,
        scale=args.scale,
        seed=args.seed,
        domains=domains,
        config=_config_from_args(args),
    )
    print(render_figure9(report))
    args._artifact["rows"] = [
        dict(r.row(), metrics=r.metrics) for r in report.results
    ]
    return 0


def cmd_figure10(args) -> int:
    from dataclasses import asdict

    from .experiments import render_figure10, run_figure10

    report = run_figure10(
        sweep=args.sweep,
        articles=args.articles,
        seed=args.seed,
        config=_config_from_args(args),
    )
    print(render_figure10(report))
    args._artifact["rows"] = [asdict(p) for p in report.points]
    return 0


def cmd_latency(args) -> int:
    from .datasets import generate_stocks
    from .experiments import run_latency_experiment
    from .queries import DOMAIN_QUERIES

    if not 0 <= args.priority_index < args.n_udfs:
        args.usage_error(
            f"argument --priority-index: must be in 0..{args.n_udfs - 1}, "
            f"got {args.priority_index}"
        )
    dataset = generate_stocks(companies=30, total_daily_rows=5000)
    programs = DOMAIN_QUERIES["stock"].make_batch(dataset, "Q1", n=args.n_udfs, seed=args.seed)
    priority = (programs[args.priority_index].pid,)
    report = run_latency_experiment(
        dataset, programs, priority=priority, row_limit=30, config=_config_from_args(args)
    )
    for key, value in report.summary().items():
        print(f"{key:24s} {value}")
    args._artifact["rows"] = [report.summary()]
    return 0


def cmd_explain(args) -> int:
    from .provenance import explain_batch, render_html, render_json, render_text

    pair = None
    if args.pair is not None:
        try:
            i, j = (int(x) for x in args.pair.split(","))
        except ValueError:
            raise SystemExit(f"bad --pair {args.pair!r}; expected two indices like 0,1")
        pair = (i, j)
    try:
        report = explain_batch(
            args.domain,
            pair=pair,
            family=args.family,
            n=args.n,
            seed=args.seed,
            rows=args.rows,
            telemetry=args._telemetry,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    renderers = {"text": render_text, "json": render_json, "html": render_html}
    rendered = renderers[args.format](report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
            if not rendered.endswith("\n"):
                handle.write("\n")
        print(f"# explain report written to {args.out}", file=sys.stderr)
    else:
        print(rendered)
    args._artifact["rows"] = [
        {
            "pair": list(report.pair_pids),
            "merged": report.merged_pid,
            "rule_counts": report.rule_counts,
            "mispredicted": [
                a.operator for a in report.attributions if a.mispredicted
            ],
        }
    ]
    return 0


def cmd_profile(args) -> int:
    from .profiling import Profiler, TraceStore
    from .queries import DOMAIN_QUERIES

    dataset = _domain_dataset(args.domain)
    module = DOMAIN_QUERIES[args.domain]
    families = [args.family] if args.family else list(module.FAMILY_NAMES)
    store = TraceStore(args.trace_out)
    profiler = Profiler(
        store, domain=args.domain, sample_every=args.sample_every
    )
    cfg = _config_from_args(args)
    rows = list(dataset.rows[: args.rows])
    invocations = 0
    with store:
        for family in families:
            batch = module.make_batch(dataset, family, n=args.n, seed=args.seed)
            for program in batch:
                profiler.profile(
                    program,
                    dataset.functions,
                    rows,
                    backend=cfg.backend,
                    workers=cfg.workers,
                    cost_model=cfg.cost_model,
                    telemetry=cfg.telemetry,
                )
                invocations += len(rows)
    print(
        f"# profiled {invocations} UDF invocations across {len(families)} "
        f"families on backend {cfg.backend}: {profiler.samples_taken} samples "
        f"appended to {args.trace_out}",
        file=sys.stderr,
    )
    args._artifact["rows"] = [
        {
            "trace": args.trace_out,
            "samples": profiler.samples_taken,
            "invocations": invocations,
            "backend": cfg.backend,
            "families": families,
        }
    ]
    return 0


def cmd_calibrate(args) -> int:
    import json

    from .profiling import fit_calibration, read_trace

    samples, skipped = read_trace(args.trace_in)
    if skipped:
        print(f"# skipped {skipped} incompatible trace line(s)", file=sys.stderr)
    if not samples:
        raise SystemExit(f"no usable samples in {args.trace_in}")
    model = fit_calibration(samples)
    if args.out:
        model.save(args.out)
        print(f"# calibrated model written to {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(model.to_dict(), indent=2, sort_keys=True))
    else:
        backends = ", ".join(
            f"{name}={count}" for name, count in sorted(model.backends.items())
        )
        print(f"fitted {model.samples} samples ({backends})")
        print(
            f"r2 {model.r2:.4f}  residual abs mean {model.residual_abs_mean:.3e}s "
            f"max {model.residual_abs_max:.3e}s"
        )
        for kind in sorted(model.weights):
            print(
                f"  {kind:8s} {model.weights[kind]:.3e} s/unit  "
                f"stderr {model.stderr.get(kind, 0.0):.1e}  "
                f"support {int(model.support.get(kind, 0)):5d}  "
                f"confidence {model.confidence(kind)}"
            )
    args._artifact["rows"] = [model.to_dict()]
    return 0


def cmd_fuzz(args) -> int:
    from .testing import run_fuzz

    report = run_fuzz(
        seed=args.seed,
        cases=args.cases,
        schemas=args.schema or None,
        size=args.size,
        time_budget=args.time_budget,
        emit_corpus=args.emit_corpus,
        shrink=not args.no_shrink,
        progress=lambda line: print(line, file=sys.stderr),
    )
    per_schema = ", ".join(f"{k}={v}" for k, v in sorted(report.per_schema.items()))
    print(
        f"# fuzzed {report.cases_run} cases in {report.elapsed:.1f}s "
        f"({per_schema}): {len(report.failures)} failure(s)",
        file=sys.stderr,
    )
    for failure in report.failures:
        print(f"FAIL {failure.spec}: oracles {', '.join(failure.oracles)}")
        for detail in failure.details:
            print(f"  {detail}")
        print(f"  minimized to {failure.shrunk_size} AST nodes")
        if failure.corpus_path:
            print(f"  corpus file: {failure.corpus_path}")
    args._artifact["rows"] = [
        {
            "spec": str(f.spec),
            "oracles": f.oracles,
            "shrunk_size": f.shrunk_size,
            "corpus_path": f.corpus_path,
        }
        for f in report.failures
    ]
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    from .service import QueryRegistry, serve

    dataset = _domain_dataset(args.domain)
    functions = dataset.functions if dataset else FunctionTable()
    service = ServiceConfig(
        host=args.host,
        port=args.port,
        admit_warnings=not args.strict_admission,
    )
    registry = QueryRegistry(
        functions,
        config=_config_from_args(args),
        service=service,
        event_log=args.event_log,
    )
    server = serve(functions, registry=registry, verbose=args.verbose)
    if len(registry):
        print(
            f"# replayed {len(registry)} queries from {args.event_log}",
            file=sys.stderr,
        )
    # The harness greps this exact line for the bound (possibly ephemeral)
    # port, so keep its shape stable.
    print(f"serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Consolidation of queries with UDFs (PLDI 2014 reproduction)"
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=DEFAULT_BACKEND,
        help="where UDF execution enters its ladder (default: %(default)s): "
        "'compiled' and 'vectorized' both run whole partitions through the "
        "batch kernel, degrading to the per-record compiled closure for "
        "programs the shape classifier can't bound and from there, with a "
        "logged warning, to the interpreter if translation fails; 'interp' "
        "starts at the interpreter",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="capture metrics and write one JSON artifact (or Prometheus "
        "text exposition when PATH ends in .prom)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="also record nested spans into the metrics artifact",
    )
    # The observability flags are also accepted after the subcommand
    # (``repro figure9 --metrics-out m.json``); SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--metrics-out", metavar="PATH", default=argparse.SUPPRESS)
    common.add_argument(
        "--trace", action="store_true", default=argparse.SUPPRESS
    )
    common.add_argument(
        "--backend", choices=BACKENDS, default=argparse.SUPPRESS
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "consolidate",
        help="merge programs from files",
        parents=[common],
    )
    p.add_argument("files", nargs="+")
    p.add_argument("--domain", help="evaluation domain supplying library functions")
    p.add_argument("--if-rule-mode", default="heuristic", choices=["heuristic", "always_if3", "always_if5"])
    p.add_argument("--no-loops", action="store_true", help="disable Loop 2/3 fusion")
    p.add_argument("--no-smt", action="store_true", help="syntactic value numbering only")
    p.add_argument("--verify", type=_count, default=0, metavar="N", help="check Theorem 1 on N rows")
    p.set_defaults(fn=cmd_consolidate)

    p = sub.add_parser("lint", help="static UDF linter (+ optional translation validation)", parents=[common])
    p.add_argument("files", nargs="*")
    p.add_argument("--domain", help="evaluation domain supplying library functions")
    p.add_argument("--family", help="lint one generated family (default: all)")
    p.add_argument("--n", type=_positive_int, default=50, help="queries per generated family")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="rendering (default: %(default)s; sarif emits a SARIF 2.1.0 "
        "document for code-scanning UIs)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (alias for --format json)",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="also consolidate each batch and statically validate every pair",
    )
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("run", help="run one program", parents=[common])
    p.add_argument("file")
    p.add_argument("--domain")
    p.add_argument("--args", default="", help="comma-separated name=value bindings")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("figure9", help="regenerate Figure 9", parents=[common])
    p.add_argument("--n-udfs", type=_positive_int, default=50)
    p.add_argument("--scale", type=_positive_float, default=0.05)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--domain",
        action="append",
        choices=["weather", "flight", "news", "twitter", "stock"],
        help="restrict to one domain (repeatable; default: all five)",
    )
    p.set_defaults(fn=cmd_figure9)

    p = sub.add_parser("figure10", help="regenerate Figure 10", parents=[common])
    p.add_argument("--sweep", type=_sweep, default="10,25,50,100")
    p.add_argument("--articles", type=_positive_int, default=400)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_figure10)

    p = sub.add_parser("latency", help="Section 8 latency experiment", parents=[common])
    p.add_argument("--n-udfs", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--priority-index", type=int, default=7)
    p.set_defaults(fn=cmd_latency, usage_error=p.error)

    p = sub.add_parser(
        "explain",
        help="derivation explain-plan for one consolidated pair",
        parents=[common],
    )
    p.add_argument(
        "--domain",
        required=True,
        choices=["weather", "flight", "news", "twitter", "stock"],
        help="evaluation domain supplying the query batch",
    )
    p.add_argument(
        "--pair",
        help="two batch indices, e.g. 0,1 (default: the first pair that shares work)",
    )
    p.add_argument("--family", default="Mix", help="query family (default: %(default)s)")
    p.add_argument("--n", type=_positive_int, default=8, help="batch size to draw the pair from")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--rows", type=_positive_int, default=200, help="dataset rows for the instrumented run"
    )
    p.add_argument(
        "--format",
        choices=["text", "json", "html"],
        default="text",
        help="rendering (default: %(default)s)",
    )
    p.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser(
        "profile",
        help="sample UDF executions into a profiling trace",
        parents=[common],
    )
    p.add_argument(
        "--domain",
        required=True,
        choices=["weather", "flight", "news", "twitter", "stock"],
        help="evaluation domain supplying the query batches",
    )
    p.add_argument(
        "--trace-out",
        required=True,
        metavar="PATH",
        help="JSONL trace file samples are appended to (calibrate reads it)",
    )
    p.add_argument("--family", help="one generated family (default: all)")
    p.add_argument("--n", type=int, default=4, help="queries per family")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--rows", type=_positive_int, default=500, help="dataset rows run per query"
    )
    p.add_argument(
        "--sample-every",
        type=_positive_int,
        default=8,
        metavar="K",
        help="time every K-th invocation (default: %(default)s)",
    )
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "calibrate",
        help="fit a calibrated cost model from a profiling trace",
        parents=[common],
    )
    p.add_argument(
        "--trace-in",
        required=True,
        metavar="PATH",
        help="JSONL trace written by 'repro profile'",
    )
    p.add_argument(
        "--out",
        metavar="MODEL.json",
        help="write the fitted model as JSON",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser(
        "fuzz", help="differential fuzzing of the whole pipeline", parents=[common]
    )
    p.add_argument("--seed", type=int, default=0, help="base seed (case i uses seed+i)")
    p.add_argument("--cases", type=_positive_int, default=100, help="number of generated batches")
    p.add_argument(
        "--schema",
        action="append",
        choices=["weather", "flight", "news", "twitter", "stock"],
        help="restrict to one schema (repeatable; default: round-robin all five)",
    )
    p.add_argument("--size", type=_positive_int, default=3, help="base program size knob")
    p.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop early (without failing) after this much wall time",
    )
    p.add_argument(
        "--emit-corpus",
        metavar="DIR",
        default=None,
        help="write each minimized failure as a corpus file into DIR",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures raw, without delta-debugging them first",
    )
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the consolidation service (dynamic query registry over HTTP)",
        parents=[common],
    )
    p.add_argument(
        "--domain",
        choices=["weather", "flight", "news", "twitter", "stock"],
        help="evaluation domain supplying library functions (default: none)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (default: %(default)s; 0 asks the OS for an "
        "ephemeral port, printed on startup)",
    )
    p.add_argument(
        "--event-log",
        metavar="PATH",
        help="append-only registry journal; replayed on startup so restarts "
        "recover the same plan fingerprints",
    )
    p.add_argument(
        "--strict-admission",
        action="store_true",
        help="reject submissions on lint warnings, not only errors",
    )
    p.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p.set_defaults(fn=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args._telemetry = (
        Telemetry.capture(trace=args.trace)
        if (args.metrics_out or args.trace)
        else NULL_TELEMETRY
    )
    args._artifact = {"command": args.command}
    status = args.fn(args)
    if args.metrics_out:
        _write_metrics_artifact(args.metrics_out, args._telemetry, args._artifact)
    return status


def _write_metrics_artifact(path: str, telemetry: Telemetry, artifact: dict) -> None:
    import json

    if path.endswith(".prom"):
        from .telemetry import PrometheusTextSink

        PrometheusTextSink(path).export(telemetry.snapshot())
    else:
        doc = dict(artifact)
        doc.update(telemetry.snapshot())
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
    print(f"# metrics written to {path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
