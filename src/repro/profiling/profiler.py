"""The sampling micro-profiler: a driver that runs the execution ladder and times it.

A :class:`Profiler` is not a hook inside the query engine: nothing on
the run path knows about it.  :meth:`Profiler.profile` calls the
ladder's public entry points itself — it deals the rows into partitions
the way the dataflow engine does, lowers the program once with
:func:`repro.lang.vectorize.vectorize_cached`, and times what it runs at
two grains:

* **column batches** (the kernel, where ``backend="compiled"`` and
  ``"vectorized"`` run): one :meth:`~repro.lang.vectorize.VectorizedProgram.run_batch`
  per partition is one sampling candidate, tagged with the backend the
  caller asked for;
* **single records** (``backend="interp"``, programs with no kernel, and
  a partition whose batch degraded): every record through
  :meth:`~repro.lang.vectorize.VectorizedProgram.row_runner` is one
  candidate, tagged with the rung that served it (``compiled`` closure
  or ``interp``).

One tick, shared by every ``profile`` call, keeps every
``sample_every``-th candidate.  Every sample pairs the observed wall
seconds with the program's static per-operation-kind unit vector
(:func:`repro.profiling.features.program_units`) and lands in the JSONL
:class:`~repro.profiling.trace.TraceStore`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence

from ..lang.ast import Program
from ..lang.compile import DEFAULT_BACKEND, CompiledProgram
from ..lang.cost import DEFAULT_COST_MODEL, CostModel
from ..lang.functions import FunctionTable
from ..lang.vectorize import VectorizedProgram, columns_from_records, vectorize_cached
from .features import RECORD_KIND, program_units
from .trace import TraceSample, TraceStore

if TYPE_CHECKING:
    from ..telemetry import Telemetry

__all__ = ["Profiler"]


class Profiler:
    """Samples backend executions into a persistent trace store."""

    def __init__(
        self,
        store: TraceStore,
        *,
        domain: str = "unknown",
        sample_every: int = 32,
    ) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be an integer >= 1, got {sample_every!r}"
            )
        self.store = store
        self.domain = domain
        self.sample_every = sample_every
        self.samples_taken = 0
        self._tick = 0

    def _due(self) -> bool:
        self._tick += 1
        return self._tick % self.sample_every == 0

    def profile(
        self,
        program: Program,
        functions: FunctionTable,
        rows: Sequence[Any],
        *,
        backend: str = DEFAULT_BACKEND,
        workers: int = 1,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        """Run ``program`` over ``rows`` as a ``where`` query on ``workers``
        partitions would, sampling what each rung of the ladder served."""

        if workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
        ladder = vectorize_cached(
            program, functions, cost_model, backend=backend, telemetry=telemetry
        )
        units = program_units(program, functions)
        for part in (rows[i::workers] for i in range(workers)):
            if not part:
                continue
            columns = columns_from_records(program, part)
            if ladder.plan is not None:
                started = time.perf_counter()
                batch = ladder.run_batch(columns, len(part))
                elapsed = time.perf_counter() - started
                if not batch.fallback:
                    if self._due():
                        self._record(
                            program, units, backend, elapsed, sum(batch.costs), len(part)
                        )
                    continue
            self._profile_rows(ladder, units, columns, len(part))

    def _profile_rows(
        self,
        ladder: VectorizedProgram,
        units: Dict[str, float],
        columns: Mapping[str, Sequence[Any]],
        n: int,
    ) -> None:
        runner = ladder.row_runner()
        # make_runner hands back a compiled closure's bound ``run`` or,
        # when there is none, an interpreter wrapper.
        served_by = (
            "compiled"
            if isinstance(getattr(runner, "__self__", None), CompiledProgram)
            else "interp"
        )
        for i in range(n):
            args = {p: column[i] for p, column in columns.items()}
            if not self._due():
                runner(args)
                continue
            started = time.perf_counter()
            result = runner(args)
            elapsed = time.perf_counter() - started
            self._record(ladder.program, units, served_by, elapsed, result.cost, 1)

    def _record(
        self,
        program: Program,
        per_record: Dict[str, float],
        backend: str,
        seconds: float,
        cost_units: int,
        records: int,
    ) -> None:
        """Append one sample covering ``records`` executions of ``program``."""

        if records == 1:
            units = dict(per_record)
        else:
            units = {k: v * records for k, v in per_record.items()}
            units[RECORD_KIND] = float(records)
        self.samples_taken += 1
        self.store.append(
            TraceSample(
                pid=program.pid,
                backend=backend,
                domain=self.domain,
                units=units,
                cost_units=cost_units,
                seconds=seconds,
                records=records,
                ts=time.time(),
            )
        )
