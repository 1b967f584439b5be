"""The sampling micro-profiler, hooked into every rung of the execution ladder.

A :class:`Profiler` rides on :class:`repro.config.ExecutionConfig`
(``profiler=``) and observes UDF execution at two grains:

* **column batches** (the kernel, where ``backend="compiled"`` and
  ``"vectorized"`` run): :meth:`repro.lang.vectorize.VectorizedProgram.run_batch`
  calls :meth:`record_batch` per kernel-served batch, tagged with the
  run's configured backend, which samples whole batches;
* **per-record runners** (``backend="interp"``, and the rows of a batch
  that degraded): :meth:`wrap_runner` is applied by
  :func:`repro.lang.compile.make_runner` around the runner it returns,
  timing every ``sample_every``-th invocation at the same rate, tagged
  with the rung that served it (``compiled`` closure or ``interp``).

Every sample pairs the observed wall seconds with the program's static
per-operation-kind unit vector (:func:`repro.profiling.features.program_units`)
and lands in the JSONL :class:`~repro.profiling.trace.TraceStore`.

Zero-cost-when-off discipline (the telemetry/provenance NULL-twin
pattern): the default config carries no profiler at all, so
``make_runner`` returns the unwrapped runner and ``run_batch`` skips the
batch hook after one attribute read — nothing per *record* changes.
:data:`NULL_PROFILER` exists for call sites that want an always-valid
handle; its hooks are inert and ``wrap_runner`` is the identity.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Mapping, Optional, Tuple, TypeVar, Union

from ..lang.ast import Program
from ..lang.functions import FunctionTable
from .features import RECORD_KIND, program_units
from .trace import TraceSample, TraceStore

__all__ = ["Profiler", "NullProfiler", "NULL_PROFILER"]

# The runner signature make_runner hands back: args -> RunResult.  Generic
# in the result because the interpreter's RunResult is a legacy (unchecked)
# module; the profiler only reads ``.cost``.
_R = TypeVar("_R")
Runner = Callable[[Mapping[str, object]], _R]


class Profiler:
    """Samples backend executions into a persistent trace store."""

    enabled = True

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
        self._lock = threading.Lock()
        # Keyed by id(program) with the program kept alive in the value,
        # so a recycled id cannot alias a dead entry.
        self._units: Dict[int, Tuple[Program, Dict[str, float]]] = {}

    # -- sampling ------------------------------------------------------------

    def _due(self) -> bool:
        # A benign race on the tick under threads only shifts which
        # invocation gets sampled; the rate stays ~1/sample_every.
        self._tick += 1
        return self._tick % self.sample_every == 0

    def units_for(
        self, program: Program, functions: Optional[FunctionTable]
    ) -> Dict[str, float]:
        key = id(program)
        cached = self._units.get(key)
        if cached is not None and cached[0] is program:
            return cached[1]
        units = program_units(program, functions)
        with self._lock:
            self._units[key] = (program, units)
        return units

    def record(
        self,
        program: Program,
        functions: Optional[FunctionTable],
        backend: str,
        seconds: float,
        cost_units: int,
        records: int = 1,
    ) -> None:
        """Append one sample covering ``records`` executions of ``program``."""

        per_record = self.units_for(program, functions)
        if records == 1:
            units: Dict[str, float] = dict(per_record)
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

    # -- backend hooks -------------------------------------------------------

    def wrap_runner(
        self,
        runner: Runner[_R],
        program: Program,
        functions: Optional[FunctionTable],
        backend: str,
    ) -> Runner[_R]:
        """The per-record hook: time every ``sample_every``-th invocation."""

        def _profiled(args: Mapping[str, object]) -> _R:
            if not self._due():
                return runner(args)
            started = time.perf_counter()
            result = runner(args)
            elapsed = time.perf_counter() - started
            self.record(
                program,
                functions,
                backend,
                elapsed,
                int(getattr(result, "cost", 0)),
            )
            return result

        return _profiled

    def record_batch(
        self,
        program: Program,
        functions: Optional[FunctionTable],
        backend: str,
        seconds: float,
        cost_units: int,
        records: int,
    ) -> None:
        """The kernel hook: sample whole column batches at the same rate,
        tagged with the ``backend`` the run was configured with."""

        if records > 0 and self._due():
            self.record(program, functions, backend, seconds, cost_units, records)


class NullProfiler:
    """The zero-cost twin: identity hooks, ``enabled`` is False."""

    __slots__ = ()
    enabled = False
    samples_taken = 0

    def units_for(
        self, program: Program, functions: Optional[FunctionTable]
    ) -> Dict[str, float]:
        return {}

    def record(
        self,
        program: Program,
        functions: Optional[FunctionTable],
        backend: str,
        seconds: float,
        cost_units: int,
        records: int = 1,
    ) -> None:
        pass

    def wrap_runner(
        self,
        runner: Runner[_R],
        program: Program,
        functions: Optional[FunctionTable],
        backend: str,
    ) -> Runner[_R]:
        return runner

    def record_batch(
        self,
        program: Program,
        functions: Optional[FunctionTable],
        backend: str,
        seconds: float,
        cost_units: int,
        records: int,
    ) -> None:
        pass


NULL_PROFILER = NullProfiler()

AnyProfiler = Union[Profiler, NullProfiler]
