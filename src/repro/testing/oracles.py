"""The differential oracle battery.

One generated (or corpus) batch of UDFs is pushed through every redundant
execution path the repository has, and every pair of paths that must agree
is checked:

* **interp vs compiled** — each program runs on every input under the
  tree-walking interpreter and the compiled backend; environments,
  notifications, *exact* cost and per-pid notification latencies must all
  match (or both paths must fail with the same error class);
* **whereMany vs whereConsolidated** — the batch runs through the dataflow
  engine both unconsolidated and consolidated; the per-pid result buckets
  must be identical and the consolidated UDF cost must obey the
  cost-never-worse bound (Theorem 2);
* **α-copy** — the batch runs again with an α-copy of its first program
  (a new pid, every local renamed): the copy must ride on its class's
  representative, leave the calculus's merges untouched, get its
  original's bucket, and keep whereMany's buckets and cost bound;
* **verdicts** — every ``unsat`` the solver returned while the batch was
  consolidated for whereConsolidated (the only answer the calculus acts
  on) is decided again, from scratch, by
  :func:`~repro.testing.reference.reference_check`; a ``sat`` there means
  the calculus acted on a wrong proof;
* **check_soundness** — Definition 1 re-checked directly on the merged
  program (notification equality + cost bound per input);
* **validate_consolidation** — the static validator must not *refute* the
  merge (``unknown`` is acceptable: it is the validator giving up, not a
  counterexample);
* **calibrated planner parity** — the batch is consolidated again under
  the cost-driven planner (uniform fallback model); reordered or skipped
  merges must leave the notification buckets identical to
  ``whereMany`` and keep the consolidated cost never worse;
* **interp vs compiled vs vectorized** — the three-way backend oracle:
  every program (and the merged program) runs as one column batch under
  the vectorized backend, and per record the notifications, *exact* cost
  and per-pid latencies must match the interpreter (closing the triangle:
  interp↔compiled is already checked above); then the whole batch runs
  through the dataflow engine on the kernel and must produce identical
  notification buckets and *exactly equal* UDF cost to the run that
  enters the ladder at the interpreter (``backend="interp"`` — the
  default backend is the kernel too), for whereMany and
  whereConsolidated alike.

Every disagreement comes back as a :class:`Discrepancy`; an empty list is
the oracle saying "all paths agree on this case".
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from ..config import ExecutionConfig
from ..consolidation.divide_conquer import ConsolidationReport, consolidate_all
from ..datasets.records import Dataset
from ..lang.ast import Program
from ..lang.compile import make_runner
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.interp import Interpreter
from ..lang.visitors import notified_pids, strip_notifies
from ..naiad.linq import run_where_consolidated, run_where_many
from ..profiling.model import CalibratedCostModel
from ..provenance.render import MAX_TEXT, format_formula
from ..smt import solver as _solver
from ..smt.terms import Formula
from .faults import fault_hook
from .generator import alpha_copy, drop_arm_assignment
from .reference import reference_check

__all__ = ["Discrepancy", "BatteryResult", "run_battery", "recorded_verdicts", "check_verdicts"]


@dataclass
class Discrepancy:
    """One disagreement between two execution paths that must agree."""

    # 'backend' | 'dataflow' | 'verdict' | 'riders' | 'soundness' | 'validator'
    # | 'planner' | 'vectorized'
    oracle: str
    detail: str
    args: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass
class BatteryResult:
    """Everything one battery run observed (kept for reporting/shrinking)."""

    discrepancies: list[Discrepancy] = field(default_factory=list)
    report: ConsolidationReport | None = None
    timed_out: bool = False
    # ``unsat`` verdicts the reference decided again (the verdict oracle).
    unsat_rechecked: int = 0

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _run_or_error(runner, args):
    """Run one path; normalise the outcome to (result, error-class-name)."""

    try:
        return runner(args), None
    except Exception as exc:  # noqa: BLE001 - the *class* is the observable
        return None, type(exc).__name__


def _check_backends(
    programs: Sequence[Program],
    dataset: Dataset,
    inputs: Sequence[Mapping[str, object]],
    cost_model: CostModel,
    out: list[Discrepancy],
) -> None:
    interp = Interpreter(dataset.functions, cost_model)
    for program in programs:
        compiled = make_runner(
            program, dataset.functions, cost_model, backend="compiled"
        )
        for args in inputs:
            want, want_err = _run_or_error(
                lambda a, p=program: interp.run(p, a), args
            )
            got, got_err = _run_or_error(compiled, args)
            if want_err or got_err:
                if want_err != got_err:
                    out.append(
                        Discrepancy(
                            "backend",
                            f"{program.pid}: interp error {want_err}, "
                            f"compiled error {got_err}",
                            dict(args),
                        )
                    )
                continue
            if want.notifications != got.notifications:
                out.append(
                    Discrepancy(
                        "backend",
                        f"{program.pid}: notifications differ: "
                        f"interp {want.notifications} vs compiled {got.notifications}",
                        dict(args),
                    )
                )
            elif want.cost != got.cost:
                out.append(
                    Discrepancy(
                        "backend",
                        f"{program.pid}: cost differs: interp {want.cost} "
                        f"vs compiled {got.cost}",
                        dict(args),
                    )
                )
            elif want.notification_costs != got.notification_costs:
                out.append(
                    Discrepancy(
                        "backend",
                        f"{program.pid}: notification latencies differ: "
                        f"interp {want.notification_costs} vs "
                        f"compiled {got.notification_costs}",
                        dict(args),
                    )
                )
            elif want.env != got.env:
                out.append(
                    Discrepancy(
                        "backend",
                        f"{program.pid}: final environments differ",
                        dict(args),
                    )
                )


def _check_dataflow(
    programs: Sequence[Program],
    dataset: Dataset,
    rows: Sequence[object],
    cost_model: CostModel,
    out: list[Discrepancy],
) -> ConsolidationReport | None:
    config = ExecutionConfig(cost_model=cost_model)
    try:
        many = run_where_many(rows, programs, dataset.functions, config=config)
        consolidated, report = run_where_consolidated(
            rows, programs, dataset.functions, config=config
        )
    except Exception as exc:  # noqa: BLE001 - a crash in either path is a finding
        out.append(
            Discrepancy("dataflow", f"dataflow run raised {type(exc).__name__}: {exc}")
        )
        return None
    pids = [p.pid for p in programs]
    for pid in pids:
        a = many.buckets.get(pid, [])
        b = consolidated.buckets.get(pid, [])
        if a != b:
            out.append(
                Discrepancy(
                    "dataflow",
                    f"bucket {pid!r} differs: whereMany {a!r} "
                    f"vs whereConsolidated {b!r}",
                )
            )
    if consolidated.metrics.udf_cost > many.metrics.udf_cost:
        out.append(
            Discrepancy(
                "dataflow",
                "cost-never-worse violated: consolidated UDF cost "
                f"{consolidated.metrics.udf_cost} > whereMany "
                f"{many.metrics.udf_cost}",
            )
        )
    return report


@contextmanager
def recorded_verdicts(verdicts: list[tuple[Formula, str]]) -> Iterator[None]:
    """Record ``(formula, verdict)`` for every solver check in the block.

    Each check that misses its solver's cache is decided by one production
    :class:`~repro.smt.solver.Solver` of the recorder's own, and its
    verdict is what the checking solver returns: the calculus acts on
    exactly the verdicts recorded.  A fault hook installed around the
    block keeps precedence; what it forces is recorded as well.
    """

    outer = _solver.FAULT_HOOK
    judge = _solver.Solver()
    deciding = False

    def hook(site: str, f: Formula) -> str | None:
        nonlocal deciding
        if deciding:  # the judge's own check: let it search
            return None
        verdict = outer(site, f) if outer is not None else None
        if verdict is None:
            deciding = True
            try:
                verdict = judge.is_sat(f)
            finally:
                deciding = False
        verdicts.append((f, verdict))
        return verdict

    with fault_hook(_solver, hook):
        yield


def check_verdicts(
    verdicts: Sequence[tuple[Formula, str]],
    out: list[Discrepancy],
    expired: Callable[[], bool] = lambda: False,
) -> int:
    """Decide every recorded ``unsat`` again with :func:`reference_check`.

    The reference answering ``sat`` is a discrepancy; ``unknown`` (its
    budget ran out) is not.  Returns how many verdicts were re-decided.
    """

    rechecked = 0
    for f, verdict in dict.fromkeys(verdicts):
        if verdict != "unsat":
            continue
        if expired():
            break
        rechecked += 1
        if reference_check(f) == "sat":
            out.append(
                Discrepancy(
                    "verdict",
                    f"solver said unsat, reference says sat: {format_formula(f, MAX_TEXT)}",
                )
            )
    return rechecked


def _check_riders(
    programs: Sequence[Program],
    report: ConsolidationReport,
    dataset: Dataset,
    rows: Sequence[object],
    cost_model: CostModel,
    out: list[Discrepancy],
) -> None:
    """The batch plus an α-copy of its first program, against whereMany.

    The copy's pid extends its original's, so it sorts after it and the
    class keeps its representative: stripping the copy's ``notify``
    statements must give back the copy-free plan exactly.
    """

    original = programs[0]
    taken = {p.pid for p in programs}.union(*(notified_pids(p.body) for p in programs))
    pid = original.pid + "_alpha"
    while pid in taken or any(t.startswith(pid + "_") for t in taken):
        pid += "_"
    copy = alpha_copy(original, pid)
    batch = [*programs, copy]
    config = ExecutionConfig(cost_model=cost_model)
    try:
        many = run_where_many(rows, batch, dataset.functions, config=config)
        ridden, with_copy = run_where_consolidated(rows, batch, dataset.functions, config=config)
    except Exception as exc:  # noqa: BLE001 - a crash in either path is a finding
        out.append(Discrepancy("riders", f"run with an α-copy raised {type(exc).__name__}: {exc}"))
        return

    for p in [q.pid for q in programs] + [pid]:
        a, b = many.buckets.get(p, []), ridden.buckets.get(p, [])
        if a != b:
            out.append(
                Discrepancy(
                    "riders",
                    f"bucket {p!r} differs with an α-copy: whereMany {a!r} "
                    f"vs whereConsolidated {b!r}",
                )
            )
    if ridden.buckets.get(pid, []) != ridden.buckets.get(original.pid, []):
        out.append(Discrepancy("riders", f"α-copy {pid!r} and {original.pid!r} notify differently"))
    if pid not in with_copy.riders:
        out.append(Discrepancy("riders", f"α-copy {pid!r} entered the calculus"))
    elif strip_notifies(with_copy.program.body, notified_pids(copy.body)) != report.program.body:
        out.append(Discrepancy("riders", f"α-copy {pid!r} changed the calculus's plan"))
    if ridden.metrics.udf_cost > many.metrics.udf_cost:
        out.append(
            Discrepancy(
                "riders",
                "cost-never-worse violated with an α-copy: consolidated UDF cost "
                f"{ridden.metrics.udf_cost} > whereMany {many.metrics.udf_cost}",
            )
        )


def _check_soundness(
    programs: Sequence[Program],
    report: ConsolidationReport,
    dataset: Dataset,
    inputs: Sequence[Mapping[str, object]],
    cost_model: CostModel,
    out: list[Discrepancy],
) -> None:
    from ..consolidation.verify import check_soundness

    sound = check_soundness(
        list(programs), report.program, dataset.functions, inputs, cost_model
    )
    for violation in sound.violations:
        out.append(
            Discrepancy(
                "soundness",
                f"{violation.kind}: {violation.detail}",
                dict(violation.args),
            )
        )


def _check_validator(
    programs: Sequence[Program],
    report: ConsolidationReport,
    dataset: Dataset,
    cost_model: CostModel,
    out: list[Discrepancy],
) -> None:
    try:
        from ..analysis.static import validate_consolidation

        validation = validate_consolidation(
            list(programs), report.program, dataset.functions, cost_model
        )
    except Exception as exc:  # noqa: BLE001 - the validator crashing is a finding
        out.append(
            Discrepancy(
                "validator", f"validate_consolidation raised {type(exc).__name__}: {exc}"
            )
        )
        return
    if validation.refuted:
        out.append(
            Discrepancy(
                "validator",
                "static validator refuted the merge: "
                + "; ".join(validation.details),
            )
        )


def _check_planner(
    programs: Sequence[Program],
    dataset: Dataset,
    rows: Sequence[object],
    cost_model: CostModel,
    out: list[Discrepancy],
) -> None:
    """Calibrated-planner parity: planning must never change semantics.

    The cost-driven planner reorders merges and skips predicted-unprofitable
    pairs (composing them sequentially) — both must be *plan*-level
    decisions only.  The
    batch is consolidated again under the calibrated planner (with the
    uniform model, so the check needs no trace) and its dataflow
    run must reproduce the ``whereMany`` baseline's buckets exactly,
    with consolidated UDF cost never worse (Theorem 2 survives planning).
    """

    if len(programs) < 2:
        return
    config = ExecutionConfig(
        cost_model=cost_model, calibration=CalibratedCostModel.uniform(cost_model)
    )
    try:
        many = run_where_many(rows, programs, dataset.functions, config=config)
        planned, report = run_where_consolidated(
            rows, programs, dataset.functions, config=config
        )
    except Exception as exc:  # noqa: BLE001 - a planner crash is a finding
        out.append(
            Discrepancy(
                "planner",
                f"calibrated-planner run raised {type(exc).__name__}: {exc}",
            )
        )
        return
    for pid in (p.pid for p in programs):
        a = many.buckets.get(pid, [])
        b = planned.buckets.get(pid, [])
        if a != b:
            out.append(
                Discrepancy(
                    "planner",
                    f"bucket {pid!r} differs under the calibrated planner: "
                    f"whereMany {a!r} vs planned {b!r}",
                )
            )
    if planned.metrics.udf_cost > many.metrics.udf_cost:
        out.append(
            Discrepancy(
                "planner",
                "cost-never-worse violated under the calibrated planner: "
                f"consolidated UDF cost {planned.metrics.udf_cost} > "
                f"whereMany {many.metrics.udf_cost}",
            )
        )
    if report.planner != "calibrated":
        out.append(
            Discrepancy(
                "planner",
                f"report.planner is {report.planner!r}, expected 'calibrated'",
            )
        )


def _check_vectorized(
    programs: Sequence[Program],
    report: ConsolidationReport | None,
    dataset: Dataset,
    rows: Sequence[object],
    inputs: Sequence[Mapping[str, object]],
    cost_model: CostModel,
    out: list[Discrepancy],
) -> None:
    """Three-way interp vs compiled vs vectorized differential oracle.

    Record level: each program's whole input set runs as *one* column
    batch; per record the batch must reproduce the interpreter's
    notifications and exact cost (the kernel keeps no latencies: the
    per-record leg, :func:`_check_backends`, compares those) — or, when some
    record errors, the batch must raise the same error class the
    interpreter raises first (the per-row fallback replays records in
    order, so the first erroring record wins on both paths).  A batch
    that silently *returns* where the interpreter errors is exactly how a
    mis-masked kernel shows up.  Each program's one-path-only-assignment
    mutant (:func:`~repro.testing.generator.drop_arm_assignment`, bound on
    the first record only) rides the same comparison, so unbound-variable
    reads — which the generator never builds — are fuzzed too.  Bucket
    level (:func:`_check_vectorized_dataflow`): the dataflow engine runs
    the batch on the kernel and must match the interpreter-rung run's
    buckets and exact UDF cost for whereMany and (reusing the
    already-consolidated merged program) whereConsolidated.
    """

    from ..lang.vectorize import columns_from_records, vectorize_program

    interp = Interpreter(dataset.functions, cost_model)
    targets = list(programs)
    if report is not None:
        targets.append(report.program)
    if rows and isinstance(rows[0], int):
        mutants = (drop_arm_assignment(program, rows[0]) for program in programs)
        targets.extend(m for m in mutants if m is not None)
    for program in targets:
        wants = []
        first_err = None
        for args in inputs:
            want, want_err = _run_or_error(
                lambda a, p=program: interp.run(p, a), args
            )
            if want_err is not None:
                first_err = want_err
                break
            wants.append(want)
        vp = vectorize_program(program, dataset.functions, cost_model)
        try:
            columns = columns_from_records(
                program, [args[program.params[0]] for args in inputs]
            )
            batch = vp.run_batch(columns, len(inputs))
            batch_err = None
        except Exception as exc:  # noqa: BLE001 - the class is the observable
            batch, batch_err = None, type(exc).__name__
        if first_err is not None or batch_err is not None:
            if first_err != batch_err:
                out.append(
                    Discrepancy(
                        "vectorized",
                        f"{program.pid}: interp error {first_err}, "
                        f"vectorized batch error {batch_err}",
                    )
                )
            continue
        for i, want in enumerate(wants):
            if want.notifications != batch.notifications_at(i):
                out.append(
                    Discrepancy(
                        "vectorized",
                        f"{program.pid}: notifications differ at record {i}: "
                        f"interp {want.notifications} vs "
                        f"vectorized {batch.notifications_at(i)}",
                        dict(inputs[i]),
                    )
                )
            elif want.cost != batch.costs[i]:
                out.append(
                    Discrepancy(
                        "vectorized",
                        f"{program.pid}: cost differs at record {i}: "
                        f"interp {want.cost} vs vectorized {batch.costs[i]}",
                        dict(inputs[i]),
                    )
                )
    _check_vectorized_dataflow(programs, report, dataset, rows, cost_model, out)


def _check_vectorized_dataflow(
    programs: Sequence[Program],
    report: ConsolidationReport | None,
    dataset: Dataset,
    rows: Sequence[object],
    cost_model: CostModel,
    out: list[Discrepancy],
) -> None:
    """The bucket-level leg: kernel run vs interpreter run, through the engine.

    Every ``Where*`` executes its partitions through the batch kernel
    unless ``backend="interp"`` enters the ladder at the bottom rung, so
    that run — no generated code at all — is the reference; comparing
    against ``backend="compiled"`` would be kernel against kernel.
    """

    from ..naiad.linq import Query, from_collection

    pids = [p.pid for p in programs]
    shapes: list[tuple[str, Callable[[Query], Query]]] = [
        ("whereMany", lambda q: q.where_many(programs, dataset.functions))
    ]
    if report is not None:
        merged = report.program
        shapes.append(
            ("whereConsolidated", lambda q: q.where_consolidated(merged, pids, dataset.functions))
        )
    for shape, build in shapes:
        runs = []
        for backend in ("interp", "vectorized"):
            cfg = ExecutionConfig(cost_model=cost_model, backend=backend)
            try:
                runs.append(build(from_collection(rows, config=cfg)).run())
            except Exception as exc:  # noqa: BLE001 - a crash in either path is a finding
                out.append(
                    Discrepancy(
                        "vectorized", f"{shape}[{backend}] raised {type(exc).__name__}: {exc}"
                    )
                )
                return
        want, got = runs
        if want.buckets != got.buckets:
            out.append(
                Discrepancy("vectorized", f"{shape} buckets differ between interp and vectorized")
            )
        elif want.metrics.udf_cost != got.metrics.udf_cost:
            out.append(
                Discrepancy(
                    "vectorized",
                    f"{shape} UDF cost differs: interp {want.metrics.udf_cost} "
                    f"vs vectorized {got.metrics.udf_cost}",
                )
            )


def run_battery(
    programs: Sequence[Program],
    dataset: Dataset,
    inputs: Sequence[Mapping[str, object]] | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    check_validator: bool = True,
    deadline: float | None = None,
) -> BatteryResult:
    """Run every differential oracle over one batch; collect disagreements.

    ``inputs`` defaults to a spread of the dataset's rows.
    ``deadline`` is an absolute :func:`time.perf_counter` instant; it is
    re-checked between oracle stages, so one slow battery cannot overrun a
    fuzzing time budget by a whole five-stage run.  A battery cut short
    comes back with ``timed_out=True`` and only the stages that finished.
    """

    if inputs is None:
        step = max(1, len(dataset.rows) // 6)
        inputs = [{programs[0].params[0]: r} for r in dataset.rows[::step][:6]]
    rows = [args[programs[0].params[0]] for args in inputs]
    result = BatteryResult()
    out = result.discrepancies

    def expired() -> bool:
        if deadline is not None and time.perf_counter() > deadline:
            result.timed_out = True
            return True
        return False

    if expired():
        return result
    _check_backends(programs, dataset, inputs, cost_model, out)
    if expired():
        return result
    verdicts: list[tuple[Formula, str]] = []
    with recorded_verdicts(verdicts):
        report = _check_dataflow(programs, dataset, rows, cost_model, out)
    result.report = report
    result.unsat_rechecked = check_verdicts(verdicts, out, expired)
    if expired():
        return result
    if report is not None:
        _check_riders(programs, report, dataset, rows, cost_model, out)
        if expired():
            return result
        _check_soundness(programs, report, dataset, inputs, cost_model, out)
        if check_validator:
            if expired():
                return result
            _check_validator(programs, report, dataset, cost_model, out)
    if expired():
        return result
    _check_planner(programs, dataset, rows, cost_model, out)
    if expired():
        return result
    _check_vectorized(programs, report, dataset, rows, inputs, cost_model, out)
    return result
