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
  folding and the fuel ledger are the emitter's — there is one translator
  from Figure-1 to Python, and :class:`_KernelEmitter` overrides only the
  three places where a batch differs from a record: prologue/epilogue,
  what a ``notify`` commits to, how a library function is bound;
* the output is sparse, so a row's bookkeeping scales with what it
  notifies, not with pids × rows: a cost column, and per pid a *hit list*
  of the rows that broadcast ``true`` (a ``notify`` value is a checked
  bool; a literal ``false`` emits nothing).  A pid some run may broadcast
  on zero or several times also keeps a presence mask, behind an inline
  clash check when some path may broadcast twice.  No latency is
  captured: nothing on the dataflow path reads it, and the per-record
  frame (``make_runner``) is where ``repro latency`` and the oracles
  observe it;
* a program with no ``if`` / ``while`` has a compile-time-constant cost,
  so its kernel keeps no ``_cost`` books at all and returns a
  ``[K] * _n`` cost column;
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
record order.  Programs the shape classifier
(:func:`repro.analysis.static.costbound.classify_shape`) marks
``unbounded`` never get a kernel and take the per-row road from the
start, as do programs Python cannot compile (control flow nested past its
indentation limit).  Degradation is recorded (``BatchResult.fallback`` +
``vectorized_fallback*`` telemetry), never an error.

The three-way differential oracle (:mod:`repro.testing.oracles`) holds
the kernel to *identical* notifications and per-record costs against the
interpreter on every fuzzed batch, and the per-record closure to
identical latencies too.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from copy import copy
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from .ast import If, Program, Stmt, While
from .compile import (
    DEFAULT_BACKEND,
    DEFAULT_MAX_STEPS,
    _cached,
    _check_backend,
    _Emitter,
    _LoweringCache,
    make_runner,
)
from .cost import DEFAULT_COST_MODEL, CostModel
from .functions import FunctionTable
from .interp import RunResult
from .visitors import (
    assigned_vars,
    contains_stmt,
    expr_args,
    expr_vars,
    notify_counts,
    walk_assigned,
)

if TYPE_CHECKING:
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

# Fault-injection seam (see repro.testing.faults).  Sites (``program`` is a
# tuple for a fused batch):
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


def _row_facts(program: Program) -> tuple[Mapping[str, tuple[int, int]], frozenset[str]]:
    """What the batch frame must know about one run of ``program``.

    ``(notify_counts, undef)``: per pid, the fewest and most broadcasts
    over all paths of a run; and the names some path may read before the
    *current row* assigned them (parameters start assigned, an ``If`` keeps
    what both arms assign, a loop body — zero iterations — adds nothing).
    Over-approximating ``undef`` only costs a reset and a check per read.
    """

    undef: set[str] = set()

    def visit(stmt: Stmt, assigned: frozenset[str]) -> None:
        e = stmt.cond if isinstance(stmt, (If, While)) else stmt.expr
        undef.update((expr_vars(e) | expr_args(e)) - assigned)

    walk_assigned(program.body, visit)
    return notify_counts(program.body), frozenset(undef - set(program.params))


class _KernelEmitter(_Emitter):
    """The batch frame: each program's compiled-closure body, in turn, inside
    one row loop (``whereMany`` fuses its n UDFs; one program is n = 1)."""

    def __init__(
        self, functions: FunctionTable, cost_model: CostModel, programs: Sequence[Program]
    ) -> None:
        super().__init__(functions, cost_model)
        self.bindings["_UNDEF"] = _UNDEF
        self.last = programs[-1]
        # No If/While anywhere: every row costs the same constant.
        self.static = not any(contains_stmt(p.body, (If, While)) for p in programs)
        self.rows: dict[str, str] = {}  # parameter -> the row loop's variable
        # Every pid keeps a hit list: the rows that broadcast ``true`` on it.
        # A pid some run may broadcast on zero or several times also keeps a
        # presence mask — behind a clash check when some path may broadcast
        # twice.  pid -> (column id, broadcast exactly once, may clash).
        self.pids: dict[str, tuple[int, bool, bool]] = {}
        self.undefs: list[frozenset[str]] = []  # per program, in order
        for program in programs:
            counts, undef = _row_facts(program)
            self.undefs.append(undef)
            for pid, (lo, hi) in counts.items():
                if pid in self.pids:
                    raise VectorizeError(f"programs share notification id {pid!r}")
                self.pids[pid] = (len(self.pids), lo == hi == 1, hi > 1)

    def bind_call(self, func: str, fn: Callable[..., object]) -> Callable[..., object]:
        # Unwrapped: whatever it raises abandons the batch anyway.
        return fn

    def commit_notify(self, pid: str, py: str, depth: int) -> None:
        # ``py`` is a checked bool, so only a ``true`` leaves a trace.
        k, once, clashes = self.pids[pid]
        if not once:
            if clashes:
                self._check(
                    depth, f"_p{k}[_i]", "_NotificationClash", f"duplicate notification for {pid!r}"
                )
            self.emit(depth, f"_p{k}[_i] = True")
        if py == "True":
            self.emit(depth, f"_h{k}a(_i)")
        elif py != "False":
            self.emit(depth, f"if {py}: _h{k}a(_i)")

    def prologue(self, program: Program) -> int:
        targets = ["_i", *(self.slot(p) for p in program.params)]
        self.rows = dict(self.slots)
        sources = ["range(_n)", *(f"_g{i}" for i in range(len(program.params)))]
        self.emit(0, f"def _kern({', '.join(['_n', '_budget', *sources[1:]])}):")
        if not self.static:
            self.emit(1, "_costs = []")
            self.emit(1, "_ca = _costs.append")
        for k, once, _ in self.pids.values():
            if not once:
                self.emit(1, f"_p{k} = [False] * _n")
            self.emit(1, f"_h{k} = []")
            self.emit(1, f"_h{k}a = _h{k}.append")
        rows = sources[0] if len(sources) == 1 else f"zip({', '.join(sources)})"
        self.emit(1, f"for {', '.join(targets)} in {rows}:")
        if not self.static:
            self.emit(2, "_cost = 0")
        return 2

    def enter(self, program: Program, depth: int) -> None:
        # Locals, fuel and ``_UNDEF`` resets are per program.  A program that
        # assigns a parameter works on a copy of the row while others follow.
        super().enter(program, depth)
        shared = program is self.last or not assigned_vars(program.body) & set(program.params)
        self.slots = dict(self.rows) if shared else {}
        for p in program.params:
            if p not in self.slots:
                self.emit(depth, f"{self.slot(p)} = {self.rows[p]}")
        if contains_stmt(program.body, While):
            self.emit(depth, "_fuel = _budget")
        self.undef = self.undefs.pop(0)
        if self.undef:
            resets = " = ".join(self.slot(name) for name in sorted(self.undef))
            self.emit(depth, f"{resets} = _UNDEF")

    def epilogue(self, depth: int, mark: int) -> None:
        if self.static:
            self._pad(mark, depth)
            self.emit(1, f"_costs = [{self.pending}] * _n")
        else:
            self.emit(depth, f"_ca({self.elapsed()})")
        self.pending = 0
        hits = ", ".join(f"{pid!r}: _h{k}" for pid, (k, _, _) in self.pids.items())
        partial = ", ".join(
            f"{pid!r}: _p{k}" for pid, (k, once, _) in self.pids.items() if not once
        )
        self.emit(1, f"return _costs, {{{hits}}}, {{{partial}}}")


# -- results ----------------------------------------------------------------


class BatchResult:
    """The outcome of one batch execution: a cost per record, hits per pid.

    ``costs[i]`` is record ``i``'s exact Figure-2 run cost.  ``hits[pid]``
    lists, in ascending order, the records whose run broadcast ``true`` on
    ``pid``; a pid no record broadcast on may be absent.  A pid every run
    broadcasts on exactly once needs nothing more.  For any other,
    ``partial[pid][i]`` says whether record ``i`` broadcast on it at all.
    ``fallback`` records that the batch degraded to a per-row rung (never
    an error) and ``fallback_reason`` says why.  Neither per-record envs
    nor notification latencies are kept: the dataflow operators consume
    only hits and costs, and the per-record frame (``make_runner``) is
    where latency is observed.
    """

    __slots__ = ("n", "costs", "hits", "partial", "fallback", "fallback_reason")

    def __init__(
        self,
        n: int,
        costs: list[int],
        hits: dict[str, list[int]],
        partial: dict[str, list[bool]],
        fallback: bool = False,
        fallback_reason: str = "",
    ) -> None:
        self.n = n
        self.costs = costs
        self.hits = hits
        self.partial = partial
        self.fallback = fallback
        self.fallback_reason = fallback_reason

    def notification(self, pid: str, i: int) -> bool:
        """Record ``i``'s broadcast on ``pid`` (KeyError when it made none,
        matching :meth:`RunResult.notification`)."""

        hits = self.hits.get(pid)
        present = self.partial.get(pid)
        if hits is None or (present is not None and not present[i]):
            raise KeyError(pid)
        k = bisect_left(hits, i)
        return k < len(hits) and hits[k] == i

    def notifications_at(self, i: int) -> dict[str, bool]:
        return {
            pid: self.notification(pid, i)
            for pid in self.hits
            if pid not in self.partial or self.partial[pid][i]
        }


def columns_from_records(program: Program, records: Sequence[Any]) -> dict[str, list[Any]]:
    """Struct-of-arrays binding for the single-row-handle UDF convention."""

    if len(program.params) != 1:
        raise VectorizeError(f"UDF {program.pid} must take exactly the row handle")
    return {program.params[0]: list(records)}


# -- the vectorized program -------------------------------------------------

#: ``_kern(_n, _budget, *columns) -> (costs, hits, partial)``.
Kernel = Callable[..., tuple[list[int], dict[str, list[int]], dict[str, list[bool]]]]


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

    ``telemetry`` belongs to the run, not to the (cached, shared)
    lowering: :meth:`bound` gives another run its own view.

    A *fused* ladder holds several ``programs`` (``program`` is the first)
    taking the same parameters: one kernel runs each in turn per row, and a
    row's cost is their sum.  It has no per-row rung of its own — a batch
    its kernel cannot run comes back empty with ``fallback`` set, for the
    caller to run each program's own ladder — and it counts each batch once
    per program, as those ladders would.
    """

    def __init__(
        self,
        programs: tuple[Program, ...],
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
    ) -> None:
        self.programs = programs
        self.program = programs[0]
        self.functions = functions
        self.cost_model = cost_model
        self.shape = shape
        self.plan = plan
        self.degraded_reason = degraded_reason
        self.source = source
        self.max_steps = max_steps
        self.backend = backend
        self.telemetry = telemetry
        self._row_runner: Optional[Callable[[Mapping[str, object]], RunResult]] = None

    @property
    def vectorized(self) -> bool:
        return self.plan is not None

    def bound(self, telemetry: Optional[Telemetry]) -> VectorizedProgram:
        """The same lowering serving another run (a fresh object: a
        published program is never rebound)."""

        clone = copy(self)
        clone.telemetry = telemetry
        clone._row_runner = None  # bound to the original's sink
        return clone

    def row_runner(self) -> Callable[[Mapping[str, object]], RunResult]:
        """The per-row rungs: the compiled closure with the interpreter
        behind it, or the interpreter alone under ``backend="interp"``.

        Lowered on first use — a run whose batches all stay on the kernel
        never builds a per-record closure.
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
            )
        return runner

    def run_batch(self, columns: Mapping[str, Sequence[Any]], n: int) -> BatchResult:
        """Execute ``n`` records held column-wise; exact Figure-2 costs.

        Never raises for *vectorization* reasons — only genuine program
        errors (the same the per-record closure raises record by record)
        propagate, from the per-row rungs, in record order.
        """

        reason = self.degraded_reason
        if self.plan is not None:
            try:
                costs, hits, partial = self.plan(
                    n, self.max_steps, *[columns[p] for p in self.program.params]
                )
            except Exception as exc:  # noqa: BLE001 - nothing is committed: any failure degrades
                reason = f"{type(exc).__name__}: {exc}"
            else:
                self._count(n)
                return BatchResult(n, costs, hits, partial)
        if len(self.programs) > 1:
            return BatchResult(n, [], {}, {}, True, reason)
        self._count(n)
        return self._run_rows(columns, n, reason)

    def _count(self, n: int) -> None:
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            telemetry.counter("vectorized_batches_total").inc(len(self.programs))
            telemetry.counter("vectorized_records_total").inc(len(self.programs) * n)
            for _ in self.programs:
                telemetry.histogram("vectorized_batch_size").observe(n)

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
        hits: dict[str, list[int]] = {}
        present: dict[str, list[bool]] = {}
        for i in range(n):
            result = runner({p: columns[p][i] for p in params})
            costs.append(result.cost)
            for pid, value in result.notifications.items():
                if pid not in hits:
                    hits[pid] = []
                    present[pid] = [False] * n
                present[pid][i] = True
                if value:
                    hits[pid].append(i)
        partial = {pid: mask for pid, mask in present.items() if not all(mask)}
        return BatchResult(n, costs, hits, partial, bool(reason), reason)


def _lower(
    programs: tuple[Program, ...], functions: FunctionTable, cost_model: CostModel
) -> tuple[str, Optional[Kernel], str, str]:
    """``(shape, kernel, source, degraded_reason)``; the widest shape of a fused batch."""

    try:
        from ..analysis.static.costbound import SHAPES, classify_shape  # deferred: import cycle

        shape = max((classify_shape(p, functions, cost_model) for p in programs), key=SHAPES.index)
    except Exception:  # noqa: BLE001 - classification must never block execution
        shape = "unbounded"
    if shape == "unbounded":
        return shape, None, "", "shape classified unbounded; static trip-count bound unavailable"
    source = ""
    try:
        if FAULT_HOOK is not None:
            FAULT_HOOK("vectorize.translate", programs if len(programs) > 1 else programs[0])
        emitter = _KernelEmitter(functions, cost_model, programs)
        source = emitter.build(*programs)
        namespace = dict(emitter.bindings)
        name = "+".join(p.pid for p in programs)
        exec(compile(source, f"<kernel {name}>", "exec"), namespace)  # noqa: S102
        return shape, namespace["_kern"], source, ""
    except Exception as exc:  # noqa: BLE001 - translation failures degrade
        return shape, None, source, f"kernel translation failed: {type(exc).__name__}: {exc}"


def vectorize_program(
    program: Program | tuple[Program, ...],
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    backend: str = DEFAULT_BACKEND,
    max_steps: int = DEFAULT_MAX_STEPS,
    telemetry: Optional[Telemetry] = None,
) -> VectorizedProgram:
    """Build ``program``'s ladder, entered where ``backend`` says.

    Never raises for a program's sake: an untranslatable one (unbounded
    shape, unknown library function or AST node, nesting Python cannot
    compile, injected fault) yields a kernel-less program whose every
    batch degrades — recorded, not an error.  ``backend="interp"`` lowers
    nothing at all.  A tuple of programs builds one fused ladder; it gets
    no kernel unless every member would.
    """

    _check_backend(backend)
    programs = program if isinstance(program, tuple) else (program,)
    shape, plan, source, reason = "", None, "", ""
    if backend != "interp":
        shape, plan, source, reason = _lower(programs, functions, cost_model)
    vectorized = VectorizedProgram(
        programs,
        functions,
        cost_model,
        shape,
        plan,
        reason,
        source=source,
        max_steps=max_steps,
        backend=backend,
        telemetry=telemetry,
    )
    if FAULT_HOOK is not None:
        transform = FAULT_HOOK("vectorize.finish", program)
        if transform is not None:
            vectorized = transform(vectorized)
    return vectorized


_CACHE: _LoweringCache = weakref.WeakKeyDictionary()


def vectorize_cached(
    program: Program | tuple[Program, ...],
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    backend: str = DEFAULT_BACKEND,
    max_steps: int = DEFAULT_MAX_STEPS,
    telemetry: Optional[Telemetry] = None,
) -> VectorizedProgram:
    """Memoising front end to :func:`vectorize_program`.

    The lowering is shared across runs — ``"compiled"`` and
    ``"vectorized"`` share one — while the telemetry sink is per run.  A
    cached program is never rebound: a lookup under another sink gets a
    fresh :meth:`VectorizedProgram.bound` view of it.  A view may
    therefore carry whichever of the two synonyms lowered it first; both
    enter the same rungs.
    """

    def build() -> VectorizedProgram:
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
    if vectorized.telemetry is not telemetry:
        vectorized = vectorized.bound(telemetry)
    return vectorized


def clear_vectorize_cache() -> None:
    _CACHE.clear()
