"""The fuzzing driver behind ``repro fuzz``.

Round-robins generated cases across the five domain schemas, runs the
differential oracle battery on each, and — when a case fails — shrinks it
with the delta-debugger and (optionally) writes the minimized case into
the regression corpus.  Every case is identified by its replayable
``(seed, schema, size)`` triple, printed with any failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import CorpusCase, write_case
from .generator import SCHEMAS, CaseSpec, case_inputs, generate_case, schema_dataset
from .oracles import run_battery
from .shrinker import batch_size, shrink_batch

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz"]


@dataclass
class FuzzFailure:
    """One case on which some oracle pair disagreed, plus its minimisation."""

    spec: CaseSpec
    oracles: list[str]
    details: list[str]
    shrunk_size: int = 0
    corpus_path: str | None = None


@dataclass
class FuzzReport:
    """The outcome of one fuzzing run."""

    cases_run: int = 0
    elapsed: float = 0.0
    per_schema: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _slug(spec: CaseSpec) -> str:
    return f"fuzz-{spec.schema}-seed{spec.seed}-size{spec.size}"


def run_fuzz(
    seed: int = 0,
    cases: int = 100,
    schemas: Sequence[str] | None = None,
    size: int = 3,
    time_budget: float | None = None,
    emit_corpus: str | None = None,
    shrink: bool = True,
    progress=None,
) -> FuzzReport:
    """Fuzz ``cases`` generated batches; return the aggregate report.

    ``seed`` derives every case's own seed (case ``i`` uses ``seed + i``),
    so two runs with the same arguments test the same batches.
    ``time_budget`` (seconds) stops early without failing — the deadline
    is enforced *inside* each battery (between oracle stages), not just
    between cases, so a slow case cannot overrun the budget by a whole
    five-stage run.  ``emit_corpus`` names a directory that receives one
    corpus file per (shrunk) failure.  ``progress`` is an optional
    callable fed one line per 25 cases.
    """

    names = list(schemas) if schemas else sorted(SCHEMAS)
    for name in names:
        if name not in SCHEMAS:
            raise ValueError(f"unknown schema {name!r}; choose from {sorted(SCHEMAS)}")
    report = FuzzReport(per_schema={n: 0 for n in names})
    started = time.perf_counter()
    deadline = None if time_budget is None else started + time_budget

    for i in range(cases):
        if deadline is not None and time.perf_counter() > deadline:
            break
        schema = names[i % len(names)]
        # Vary size a little around the requested level so small and
        # mid-size shapes both appear.
        case_size = max(1, size - 1 + (i // len(names)) % 3)
        spec = CaseSpec(seed + i, schema, case_size)
        programs = generate_case(spec.seed, spec.schema, spec.size)
        dataset = schema_dataset(schema)
        inputs = case_inputs(schema)
        result = run_battery(programs, dataset, inputs=inputs, deadline=deadline)
        if result.timed_out:
            # The battery was cut off mid-way: the case is incomplete, so
            # it does not count toward cases_run, but any discrepancy the
            # finished stages produced is still a real finding — record it
            # unshrunk (shrinking re-runs batteries and would blow the
            # budget) before stopping.
            if not result.ok:
                report.failures.append(
                    FuzzFailure(
                        spec=spec,
                        oracles=sorted({d.oracle for d in result.discrepancies}),
                        details=[str(d) for d in result.discrepancies[:5]],
                        shrunk_size=batch_size(programs),
                    )
                )
            break
        report.cases_run += 1
        report.per_schema[schema] += 1
        if progress is not None and (i + 1) % 25 == 0:
            progress(
                f"  {i + 1}/{cases} cases, "
                f"{len(report.failures)} failure(s), "
                f"{time.perf_counter() - started:.1f}s"
            )
        if result.ok:
            continue

        oracles = sorted({d.oracle for d in result.discrepancies})
        failure = FuzzFailure(
            spec=spec,
            oracles=oracles,
            details=[str(d) for d in result.discrepancies[:5]],
        )
        minimized = list(programs)
        if shrink:

            def still_fails(candidate: list) -> bool:
                if not candidate:
                    return False
                try:
                    rerun = run_battery(candidate, dataset, inputs=inputs)
                except Exception:  # noqa: BLE001 - crashes are not *this* failure
                    return False
                return any(d.oracle in oracles for d in rerun.discrepancies)

            minimized = shrink_batch(programs, still_fails, max_checks=400)
        failure.shrunk_size = batch_size(minimized)
        if emit_corpus:
            path = Path(emit_corpus) / f"{_slug(spec)}.txt"
            write_case(
                path,
                CorpusCase(
                    schema=schema,
                    programs=minimized,
                    name=_slug(spec),
                    expect="discrepancy",
                    inputs=[args[programs[0].params[0]] for args in inputs],
                    meta={
                        "seed": str(spec.seed),
                        "size": str(spec.size),
                        "note": "auto-minimized fuzz failure: "
                        + ", ".join(oracles),
                    },
                ),
            )
            failure.corpus_path = str(path)
        report.failures.append(failure)

    report.elapsed = time.perf_counter() - started
    return report
