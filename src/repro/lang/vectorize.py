"""Batch-at-a-time execution of Figure-1 programs: the kernel every ``Where*`` runs on.

The per-record closure (:mod:`repro.lang.compile`) removed the
interpreter's per-*node* overhead but still pays per *record*: a closure
call, an argument dict, env materialisation, a notifications dict and a
``RunResult``, times 4000 rows times 50 queries.  This module removes the
per-record overhead by running a whole **batch** through one generated
function — with the closure's own lowering, not a second one — and it is
how the dataflow operators execute UDFs under the default
``backend="compiled"`` and under ``"vectorized"`` alike (``"interp"``
enters the ladder below at its bottom rung):

* the kernel is ``_kern(_n, _budget, *columns)``: the body
  :class:`repro.lang.compile._Emitter` emits for the per-record closure,
  inside ``for <param slots> in <columns>:``.  ``if`` / ``while`` are
  native per-row control flow, locals are Python locals, sort checks, cost
  folding, latency capture and the fuel ledger are the emitter's — there
  is one translator from Figure-1 to Python, and :class:`_KernelEmitter`
  overrides only the three places where a batch differs from a record:
  prologue/epilogue, what a ``notify`` commits to, how a library function
  is bound;
* results are struct-of-arrays — plain Python lists, no numpy: a cost
  column and per-pid ``present`` / ``values`` / latency columns.  A pid
  every run broadcasts on exactly once, whatever its path, appends to its
  columns and shares the batch's all-true ``full_mask``; any other pid
  stores at the row index, behind an inline clash check when some path
  may broadcast twice;
* a program with no ``if`` / ``while`` has a compile-time-constant cost
  and per-pid latency, so its kernel keeps no ``_cost`` books at all and
  returns ``[K] * _n`` columns;
* Python locals outlive a row, so a local that some path may read before
  *this* row assigned it (:func:`_row_facts`) is reset to
  ``_UNDEF`` at the top of every row and read through a check — without
  it a row would silently see its predecessor's value where the
  interpreter raises ``unbound variable``.

The safety story is a **fallback ladder**, not a verifier.  Nothing a
kernel computes is visible until it returns, so *any* exception inside it
— a failed sort check, a library function raising (they are bound
unwrapped), a notification clash, an unassigned local, fuel exhaustion, a
bug — abandons the batch and re-runs every record through the compiled
closure, which reproduces the interpreter's exact result or error, in
record order.  Programs the PR-7 shape classifier marks ``unbounded``
never get a kernel and take the per-row road from the start, as do
programs Python cannot compile (control flow nested past its indentation
limit).  Degradation is recorded (``BatchResult.fallback`` +
``vectorized_fallback*`` telemetry), never an error.

The three-way differential oracle (:mod:`repro.testing.oracles`) holds
the kernel to *identical* notifications, costs and latencies against the
interpreter and the per-record closure on every fuzzed batch.
"""

from __future__ import annotations

import weakref
from copy import copy
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from .ast import If, Program, Stmt, While
from .compile import (
    DEFAULT_BACKEND,
    DEFAULT_MAX_STEPS,
    _cached,
    _check_backend,
    _contains,
    _Emitter,
    _LoweringCache,
    make_runner,
)
from .cost import DEFAULT_COST_MODEL, CostModel
from .functions import FunctionTable
from .interp import RunResult
from .visitors import expr_args, expr_vars

if TYPE_CHECKING:
    from ..analysis.static.domains import AssignedState
    from ..profiling import Profiler
    from ..telemetry import Telemetry

__all__ = [
    "VECTORIZED_BACKEND",
    "VectorizeError",
    "BatchResult",
    "VectorizedProgram",
    "vectorize_program",
    "vectorize_cached",
    "clear_vectorize_cache",
    "columns_from_records",
    "FAULT_HOOK",
]

# Fault-injection seam (see repro.testing.faults).  Sites:
#   ("vectorize.translate", program) — may raise to force the per-row
#                                      compiled fallback (recorded, never
#                                      an error);
#   ("vectorize.finish", program)    — may return a VectorizedProgram
#                                      transformer, modelling a corrupted
#                                      kernel (the differential oracle
#                                      must catch the wrong output).
# None — the production value — costs one attribute read per site.
FAULT_HOOK = None

VECTORIZED_BACKEND = "vectorized"

#: Sentinel for "this row has not assigned this local on its path yet".
_UNDEF = object()


class VectorizeError(Exception):
    """The records cannot be bound to the program's parameters."""


# -- the batch frame --------------------------------------------------------


def _row_facts(program: Program) -> tuple[dict[str, tuple[int, int]], frozenset[str]]:
    """What the batch frame must know about one run of ``program``.

    ``(notify_counts, undef)``: per pid, the fewest and most broadcasts
    over all paths of a run; and the names some path may read before the
    *current row* assigned them (parameters start assigned, an ``If`` keeps
    what both arms assign, a loop body — zero iterations — adds nothing).
    Over-approximating ``undef`` only costs a reset and a check per read.
    """

    # Deferred: the analyses import this package.
    from ..analysis.static import DefiniteAssignmentDomain, NotificationDomain, analyze_program

    undef: set[str] = set()

    def visit(stmt: Stmt, state: AssignedState) -> None:
        e = stmt.cond if isinstance(stmt, (If, While)) else stmt.expr
        undef.update((expr_vars(e) | expr_args(e)) - state.assigned)

    analyze_program(DefiniteAssignmentDomain(), program, visit)
    counts = analyze_program(NotificationDomain(), program).as_dict()
    return counts, frozenset(undef - set(program.params))


class _KernelEmitter(_Emitter):
    """The batch frame: the compiled closure's body inside a row loop."""

    def __init__(
        self,
        functions: FunctionTable,
        cost_model: CostModel,
        notify_counts: Mapping[str, tuple[int, int]],
        undef: frozenset[str],
    ) -> None:
        super().__init__(functions, cost_model)
        self.bindings["_UNDEF"] = _UNDEF
        self.undef = undef
        self.static = False  # no If/While: cost and latencies are constants
        # A pid every run broadcasts on exactly once has its columns
        # appended to, row by row, and shares the batch's all-true mask.
        # Any other is stored at the row index — behind a clash check when
        # some path may broadcast twice.
        # pid -> (column id, appends, may clash).
        self.pids = {
            pid: (k, lo == hi == 1, hi > 1)
            for k, (pid, (lo, hi)) in enumerate(notify_counts.items())
        }
        self.latency: dict[int, int] = {}  # appended column id -> constant latency

    def bind_call(self, func: str, fn: Callable[..., object]) -> Callable[..., object]:
        # Unwrapped: whatever it raises abandons the batch anyway.
        return fn

    def elapsed(self) -> str:
        return str(self.pending) if self.static else super().elapsed()

    def commit_notify(self, pid: str, py: str, depth: int) -> None:
        k, appends, clashes = self.pids[pid]
        if appends:
            self.emit(depth, f"_v{k}a({py})")
            if self.static:
                self.latency[k] = self.pending
            else:
                self.emit(depth, f"_l{k}a({self.elapsed()})")
            return
        if clashes:
            self._check(
                depth,
                f"_p{k}[_i]",
                "_NotificationClash",
                f"duplicate notification for {pid!r}",
            )
        self.emit(depth, f"_p{k}[_i] = True")
        self.emit(depth, f"_v{k}[_i] = {py}")
        self.emit(depth, f"_l{k}[_i] = {self.elapsed()}")

    def prologue(self, program: Program) -> int:
        self.static = not _contains(program.body, (If, While))
        targets = [self.slot(p) for p in program.params]
        sources = [f"_g{i}" for i in range(len(targets))]
        self.emit(0, f"def _kern({', '.join(['_n', '_budget', *sources])}):")
        if not self.static:
            self.emit(1, "_costs = []")
            self.emit(1, "_ca = _costs.append")
        for k, appends, _ in self.pids.values():
            if not appends:
                self.emit(1, f"_p{k} = [False] * _n")
                self.emit(1, f"_v{k} = [False] * _n")
                self.emit(1, f"_l{k} = [0] * _n")
                continue
            for col in (f"_v{k}",) if self.static else (f"_v{k}", f"_l{k}"):
                self.emit(1, f"{col} = []")
                self.emit(1, f"{col}a = {col}.append")
        if not all(appends for _, appends, _ in self.pids.values()):
            targets.insert(0, "_i")
            sources.insert(0, "range(_n)")
        if not targets:
            targets, sources = ["_"], ["range(_n)"]
        rows = sources[0] if len(sources) == 1 else f"zip({', '.join(sources)})"
        self.emit(1, f"for {', '.join(targets)} in {rows}:")
        if _contains(program.body, While):
            self.emit(2, "_fuel = _budget")
        if not self.static:
            self.emit(2, "_cost = 0")
        if self.undef:
            resets = " = ".join(self.slot(name) for name in sorted(self.undef))
            self.emit(2, f"{resets} = _UNDEF")
        return 2

    def epilogue(self, depth: int, mark: int) -> None:
        if self.static:
            self._pad(mark, depth)
            self.emit(1, f"_costs = [{self.pending}] * _n")
        else:
            self.emit(depth, f"_ca({self.elapsed()})")
        self.pending = 0
        for k, latency in self.latency.items():
            self.emit(1, f"_l{k} = [{latency}] * _n")
        # One shared all-true mask for the appended pids (consumers
        # identity-check it for the fast all-notified scan).
        self.emit(1, "_full = [True] * _n")
        present = ", ".join(
            f"{pid!r}: {'_full' if appends else f'_p{k}'}"
            for pid, (k, appends, _) in self.pids.items()
        )
        values = ", ".join(f"{pid!r}: _v{k}" for pid, (k, _, _) in self.pids.items())
        ncosts = ", ".join(f"{pid!r}: _l{k}" for pid, (k, _, _) in self.pids.items())
        self.emit(1, f"return _costs, {{{present}}}, {{{values}}}, {{{ncosts}}}, _full")


# -- results ----------------------------------------------------------------


class BatchResult:
    """The outcome of one batch execution, column-oriented.

    Per record ``i``: ``costs[i]`` is the exact Figure-2 run cost,
    ``present[pid][i]`` says whether the record's run broadcast on ``pid``
    and ``values[pid][i]`` / ``ncosts[pid][i]`` carry the broadcast value
    and latency.  ``full_mask`` is the one all-true list that stands in as
    ``present[pid]`` for every pid all records broadcast on (consumers
    identity-check it).  ``fallback`` records that the batch degraded to a
    per-row rung (never an error) and ``fallback_reason`` says why.  No
    per-record env is materialised — the
    dataflow operators only consume notifications and costs, and skipping
    env reconstruction is part of the backend's speedup.
    """

    __slots__ = (
        "n", "costs", "present", "values", "ncosts",
        "full_mask", "fallback", "fallback_reason",
    )

    def __init__(
        self,
        n: int,
        costs: list[int],
        present: dict[str, list[bool]],
        values: dict[str, list[Any]],
        ncosts: dict[str, list[int]],
        fallback: bool = False,
        fallback_reason: str = "",
        *,
        full_mask: Optional[list[bool]] = None,
    ) -> None:
        self.n = n
        self.costs = costs
        self.present = present
        self.values = values
        self.ncosts = ncosts
        self.full_mask = full_mask
        self.fallback = fallback
        self.fallback_reason = fallback_reason

    def notification(self, pid: str, i: int) -> Any:
        """Record ``i``'s broadcast on ``pid`` (KeyError when it made none,
        matching :meth:`RunResult.notification`)."""

        present = self.present.get(pid)
        if present is None or not present[i]:
            raise KeyError(pid)
        return self.values[pid][i]

    def notifications_at(self, i: int) -> dict[str, object]:
        return {
            pid: self.values[pid][i]
            for pid, mask in self.present.items()
            if mask[i]
        }

    def notification_costs_at(self, i: int) -> dict[str, int]:
        return {
            pid: self.ncosts[pid][i]
            for pid, mask in self.present.items()
            if mask[i]
        }

    def run_result(self, i: int) -> RunResult:
        """Record ``i`` as a :class:`RunResult` (env intentionally empty)."""

        return RunResult(
            env={},
            notifications=self.notifications_at(i),
            cost=self.costs[i],
            notification_costs=self.notification_costs_at(i),
        )


def columns_from_records(program: Program, records: Sequence[Any]) -> dict[str, list[Any]]:
    """Struct-of-arrays binding for the single-row-handle UDF convention."""

    if len(program.params) != 1:
        raise VectorizeError(f"UDF {program.pid} must take exactly the row handle")
    return {program.params[0]: list(records)}


# -- the vectorized program -------------------------------------------------

#: ``_kern(_n, _budget, *columns) -> (costs, present, values, ncosts, full_mask)``.
Kernel = Callable[
    ...,
    tuple[
        list[int], dict[str, list[bool]], dict[str, list[Any]], dict[str, list[int]], list[bool]
    ],
]


class VectorizedProgram:
    """One program's execution ladder: batch kernel, compiled closure, interpreter.

    Every ``Where*`` operator runs its UDFs through :meth:`run_batch`;
    ``backend`` only says on which rung a batch *enters*.  ``"compiled"``
    (the default) and ``"vectorized"`` enter at ``plan``, the kernel
    ``_kern(_n, _budget, *columns)`` (``source`` keeps its generated Python
    for debugging).  ``plan`` is ``None`` when the program never vectorizes
    (shape ``unbounded``, translation failure, injected fault —
    ``degraded_reason`` says which); every batch then takes the per-row
    road immediately, and a kernel that raises mid-batch has committed
    nothing, so the whole batch re-runs per row: callers observe exactly
    the per-record closure's results and errors.  ``"interp"`` enters at
    the bottom rung — no kernel is lowered, nothing is degraded, every
    record runs through the interpreter.

    ``telemetry``, ``profiler`` and ``backend`` belong to the run, not to
    the (cached, shared) lowering: :meth:`bound` gives another run its own
    view.
    """

    def __init__(
        self,
        program: Program,
        functions: FunctionTable,
        cost_model: CostModel,
        shape: str,
        plan: Optional[Kernel],
        degraded_reason: str,
        *,
        source: str = "",
        max_steps: int = DEFAULT_MAX_STEPS,
        backend: str = DEFAULT_BACKEND,
        telemetry: Optional[Telemetry] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.program = program
        self.functions = functions
        self.cost_model = cost_model
        self.shape = shape
        self.plan = plan
        self.degraded_reason = degraded_reason
        self.source = source
        self.max_steps = max_steps
        self.backend = backend
        self.telemetry = telemetry
        self.profiler = profiler
        self._row_runner: Optional[Callable[[Mapping[str, object]], RunResult]] = None

    @property
    def vectorized(self) -> bool:
        return self.plan is not None

    def bound(
        self, backend: str, telemetry: Optional[Telemetry], profiler: Optional[Profiler]
    ) -> VectorizedProgram:
        """The same lowering serving another run (a fresh object: a
        published program is never rebound)."""

        clone = copy(self)
        clone.backend = backend
        clone.telemetry = telemetry
        clone.profiler = profiler
        clone._row_runner = None  # bound to the original's sink and profiler
        return clone

    def row_runner(self) -> Callable[[Mapping[str, object]], RunResult]:
        """The per-row rungs: the compiled closure with the interpreter
        behind it, or the interpreter alone under ``backend="interp"``.

        Lowered on first use — a run whose batches all stay on the kernel
        never builds a per-record closure.  A live profiler samples the
        rows here, tagged with the rung that served them.
        """

        runner = self._row_runner
        if runner is None:
            runner = self._row_runner = make_runner(
                self.program,
                self.functions,
                self.cost_model,
                backend=self.backend,
                max_steps=self.max_steps,
                telemetry=self.telemetry,
                profiler=self.profiler,
            )
        return runner

    def run_batch(self, columns: Mapping[str, Sequence[Any]], n: int) -> BatchResult:
        """Execute ``n`` records held column-wise; exact Figure-2 costs.

        Never raises for *vectorization* reasons — only genuine program
        errors (the same the per-record closure raises record by record)
        propagate, from the per-row rungs, in record order.  With a live
        profiler a kernel-served batch is one sampling candidate, tagged
        with the run's backend: total seconds and total cost against
        ``records × per-record`` units.
        """

        telemetry = self.telemetry
        live = telemetry is not None and telemetry.enabled
        if live:
            telemetry.counter("vectorized_batches_total").inc()
            telemetry.counter("vectorized_records_total").inc(n)
            telemetry.histogram("vectorized_batch_size").observe(n)
        if self.plan is None:
            return self._run_rows(columns, n, self.degraded_reason)
        started = perf_counter()
        try:
            costs, present, values, ncosts, full_mask = self.plan(
                n, self.max_steps, *[columns[p] for p in self.program.params]
            )
        except Exception as exc:  # noqa: BLE001 - nothing is committed: any failure degrades
            return self._run_rows(columns, n, f"{type(exc).__name__}: {exc}")
        profiler = self.profiler
        if profiler is not None and profiler.enabled:
            profiler.record_batch(
                self.program, self.functions, self.backend,
                perf_counter() - started, sum(costs), n,
            )
        return BatchResult(n, costs, present, values, ncosts, full_mask=full_mask)

    def _run_rows(self, columns: Mapping[str, Sequence[Any]], n: int, reason: str) -> BatchResult:
        """The per-row rungs, with exact row semantics.  A ``reason`` makes
        it a recorded degradation; entering here (``backend="interp"``) has
        none."""

        telemetry = self.telemetry
        if reason and telemetry is not None and telemetry.enabled:
            telemetry.counter("vectorized_fallbacks_total").inc()
            telemetry.counter("vectorized_fallback_records_total").inc(n)
        runner = self.row_runner()
        params = [p for p in self.program.params if p in columns]
        costs: list[int] = []
        present: dict[str, list[bool]] = {}
        values: dict[str, list[Any]] = {}
        ncosts: dict[str, list[int]] = {}
        for i in range(n):
            result = runner({p: columns[p][i] for p in params})
            costs.append(result.cost)
            for pid, value in result.notifications.items():
                mask = present.get(pid)
                if mask is None:
                    mask = present[pid] = [False] * n
                    values[pid] = [False] * n
                    ncosts[pid] = [0] * n
                mask[i] = True
                values[pid][i] = value
                ncosts[pid][i] = result.notification_costs.get(pid, result.cost)
        return BatchResult(
            n, costs, present, values, ncosts,
            fallback=bool(reason), fallback_reason=reason,
        )


def _lower(
    program: Program, functions: FunctionTable, cost_model: CostModel
) -> tuple[str, Optional[Kernel], str, str]:
    """``(shape, kernel, source, degraded_reason)`` for one program."""

    try:
        from ..analysis.prefilter import classify_shape  # deferred: import cycle

        shape = classify_shape(program, functions, cost_model)
    except Exception:  # noqa: BLE001 - classification must never block execution
        shape = "unbounded"
    if shape == "unbounded":
        return shape, None, "", "shape classified unbounded; static trip-count bound unavailable"
    source = ""
    try:
        if FAULT_HOOK is not None:
            FAULT_HOOK("vectorize.translate", program)
        emitter = _KernelEmitter(functions, cost_model, *_row_facts(program))
        source = emitter.build(program)
        namespace = dict(emitter.bindings)
        exec(compile(source, f"<kernel {program.pid}>", "exec"), namespace)  # noqa: S102
        return shape, namespace["_kern"], source, ""
    except Exception as exc:  # noqa: BLE001 - translation failures degrade
        return shape, None, source, f"kernel translation failed: {type(exc).__name__}: {exc}"


def vectorize_program(
    program: Program,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    backend: str = DEFAULT_BACKEND,
    max_steps: int = DEFAULT_MAX_STEPS,
    telemetry: Optional[Telemetry] = None,
    profiler: Optional[Profiler] = None,
) -> VectorizedProgram:
    """Build ``program``'s ladder, entered where ``backend`` says.

    Never raises for a program's sake: an untranslatable one (unbounded
    shape, unknown library function or AST node, nesting Python cannot
    compile, injected fault) yields a kernel-less program whose every
    batch degrades — recorded, not an error.  ``backend="interp"`` lowers
    nothing at all.
    """

    _check_backend(backend)
    shape, plan, source, reason = "", None, "", ""
    if backend != "interp":
        shape, plan, source, reason = _lower(program, functions, cost_model)
    vectorized = VectorizedProgram(
        program,
        functions,
        cost_model,
        shape,
        plan,
        reason,
        source=source,
        max_steps=max_steps,
        backend=backend,
        telemetry=telemetry,
        profiler=profiler,
    )
    if FAULT_HOOK is not None:
        transform = FAULT_HOOK("vectorize.finish", program)
        if transform is not None:
            vectorized = transform(vectorized)
    return vectorized


_CACHE: _LoweringCache = weakref.WeakKeyDictionary()


def vectorize_cached(
    program: Program,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    backend: str = DEFAULT_BACKEND,
    max_steps: int = DEFAULT_MAX_STEPS,
    telemetry: Optional[Telemetry] = None,
    profiler: Optional[Profiler] = None,
) -> VectorizedProgram:
    """Memoising front end to :func:`vectorize_program`.

    The lowering is shared across runs — ``"compiled"`` and
    ``"vectorized"`` share one — while telemetry sink, profiler and the
    backend label the profiler tags its samples with are per run.  A cached
    program is never rebound: a lookup under another sink, or with a
    profiler (the cache holds none), gets a fresh
    :meth:`VectorizedProgram.bound` view of it.  An unprofiled view may
    therefore carry whichever of the two synonyms lowered it first; nothing
    reads the label then.
    """

    def build() -> VectorizedProgram:
        # No profiler: the cache must not keep a run's trace store alive.
        return vectorize_program(
            program, functions, cost_model,
            backend=backend, max_steps=max_steps, telemetry=telemetry,
        )

    _check_backend(backend)  # before the lookup: a hit would never look at it
    key = (program, cost_model, max_steps, backend == "interp")
    vectorized, missed = _cached(
        _CACHE, functions, key, build, telemetry, "vectorized_plan_cache",
        refresh=FAULT_HOOK is not None,
    )
    if missed and vectorized.degraded_reason and telemetry is not None and telemetry.enabled:
        telemetry.counter("vectorized_unvectorizable_total").inc()
    if vectorized.telemetry is not telemetry or profiler is not None:
        vectorized = vectorized.bound(backend, telemetry, profiler)
    return vectorized


def clear_vectorize_cache() -> None:
    _CACHE.clear()
