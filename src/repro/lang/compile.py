"""Compile-to-Python execution backend for Figure-1 programs.

The tree-walking :class:`~repro.lang.interp.Interpreter` pays per-node
``isinstance`` dispatch, a fuel tick, a fresh tuple and an env lookup for
every AST node it touches — multiplied by 50 UDFs x thousands of records
in the Figure 9/10 experiments.  This module walks a :class:`Program` once
and emits Python source for a specialised closure instead:

* arithmetic, comparisons and connectives become straight-line Python
  expressions (operands that need the interpreter's dynamic type checks
  are materialised into locals first, so the checks run in the same order
  the interpreter performs them);
* ``if`` / ``while`` become native control flow;
* library calls are bound to local wrapper closures created once at
  compile time (:mod:`repro.lang.runtime`);
* cost accounting is folded into literal-constant ``_cost += k`` additions,
  one per basic block — expression costs in Figure 2 depend only on the
  expression's shape, never on run-time values, so every block's cost is
  a compile-time constant;
* ``notify`` writes into a preallocated notifications dict and records the
  per-pid latency (``_cost`` plus the folded pending constant), exactly as
  the interpreter's ``_elapsed`` bookkeeping does;
* the fuel check is hoisted to loop back-edges, so straight-line code pays
  zero per-node overhead.  Each back-edge burns the static node count of
  one iteration, which bounds runaway loops within a small constant factor
  of the interpreter's per-node budget;
* a dynamic sort check on a parameter the program never assigns is emitted
  once per dominating point, not once per read.

:class:`_Emitter` is the only translator from Figure-1 to Python.  It has
two *frames* around the same lowered body: the per-record closure built
here, and the batch kernel of :mod:`repro.lang.vectorize` (the same body
inside a row loop), which overrides the emitter's prologue/epilogue, what
a ``notify`` commits to, and how a library function is bound.

The compiled closure honours the interpreter's observable contract: the
same :class:`RunResult` (env, notifications, cost, notification_costs) and
the same error classes (:class:`InterpError`, :class:`NotificationClash`,
:class:`StepLimitExceeded`).  Error *messages* match the interpreter's in
the common cases; when several dynamic errors race inside one expression
the compiled code may report a different member of the same class.

:func:`make_runner` hands out the per-record closure: the rung the batch
kernel degrades to, and the entry point for callers that run one record at
a time (``repro run``, the latency experiment, the oracles, prefilter
guards).  It compiles through the per-``(program, cost model, function
table)`` cache so a job's UDFs compile once, not once per record, and any
compilation failure logs a warning and falls back to the interpreter.
"""

from __future__ import annotations

import logging
import re
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from threading import Lock
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

from .ast import (
    Arg,
    Assign,
    BinOp,
    BoolConst,
    BoolOp,
    Call,
    Cmp,
    Expr,
    If,
    IntConst,
    Not,
    Notify,
    Program,
    Seq,
    Skip,
    Stmt,
    StrConst,
    Var,
    While,
)
from .cost import DEFAULT_COST_MODEL, CostModel
from .functions import BOOL, INT, STR, FunctionTable
from .interp import (
    Interpreter,
    InterpError,
    NotificationClash,
    RunResult,
    StepLimitExceeded,
)
from .printer import expr_to_str, stmt_to_str
from .runtime import make_lib_call, unbound_error
from .visitors import stmt_size

if TYPE_CHECKING:
    from ..profiling import Profiler
    from ..telemetry import Telemetry

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CompileError",
    "CompiledProgram",
    "compile_program",
    "compile_cached",
    "clear_compile_cache",
    "make_runner",
    "FAULT_HOOK",
]

logger = logging.getLogger(__name__)

# Fault-injection seam (see repro.testing.faults).  Sites:
#   ("compile.translate", program)    — may raise CompileError to force the
#                                       interpreter fallback;
#   ("compile.cache_lookup", program) — truthy return forces a cache miss;
#   ("compile.finish", program)       — may return a CompiledProgram
#                                       transformer, modelling a miscompile
#                                       (the differential oracle must catch
#                                       the corrupted output).
# None — the production value — costs one attribute read per site.
FAULT_HOOK = None

BACKENDS = ("interp", "compiled", "vectorized")
DEFAULT_BACKEND = "compiled"
DEFAULT_MAX_STEPS = 2_000_000

_ATOM = re.compile(r"^(?:[_A-Za-z]\w*|-?\d+)$")


class CompileError(Exception):
    """The program cannot be translated; callers fall back to the interpreter."""


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")


def _contains(s: Stmt, kinds: type[Stmt] | tuple[type[Stmt], ...]) -> bool:
    if isinstance(s, kinds):
        return True
    if isinstance(s, Seq):
        return any(_contains(sub, kinds) for sub in s.stmts)
    if isinstance(s, If):
        return _contains(s.then, kinds) or _contains(s.orelse, kinds)
    if isinstance(s, While):
        return _contains(s.body, kinds)
    return False


def _collect_assigns(s: Stmt, out: list[tuple[str, Expr]]) -> None:
    if isinstance(s, Assign):
        out.append((s.var, s.expr))
    elif isinstance(s, Seq):
        for sub in s.stmts:
            _collect_assigns(sub, out)
    elif isinstance(s, If):
        _collect_assigns(s.then, out)
        _collect_assigns(s.orelse, out)
    elif isinstance(s, While):
        _collect_assigns(s.body, out)


def _static_var_sorts(
    params: tuple[str, ...], assigns: list[tuple[str, Expr]]
) -> dict[str, str | None]:
    """Flow-insensitive sort inference for local variables.

    A variable's sort is known when every assignment to it produces the
    same statically known sort ("known" meaning: *if* evaluation yields a
    value, the value has this sort — operators guarantee their result sort
    regardless of operand types).  Known sorts let the emitter elide the
    interpreter's dynamic checks, e.g. on loop counters.  Arguments, call
    results and ``=`` comparisons stay unknown, exactly the places the
    interpreter checks dynamically.
    """

    sorts: dict[str, str | None] = {}

    def esort(e: Expr) -> str | None:
        if isinstance(e, IntConst):
            return INT
        if isinstance(e, StrConst):
            return STR
        if isinstance(e, BoolConst):
            return BOOL
        if isinstance(e, Var):
            return None if e.name in params else sorts.get(e.name)
        if isinstance(e, BinOp):
            return INT
        if isinstance(e, Cmp):
            return None if e.op == "=" else BOOL
        if isinstance(e, (Not, BoolOp)):
            return BOOL
        return None  # Arg, Call

    # Known-ness only grows, so the fixpoint needs at most one round per
    # assigned name.
    for _ in range(len(assigns) + 1):
        new: dict[str, str | None] = {}
        for name, e in assigns:
            s = esort(e)
            if name in new and new[name] != s:
                s = None
            new[name] = None if name in params else s
        if new == sorts:
            break
        sorts = new
    return sorts


class _Emitter:
    """Single-pass AST -> Python source translator — the only one.

    ``pending`` accumulates the statically known cost of the current basic
    block; it is flushed into the run-time ``_cost`` accumulator only at
    block boundaries (branch joins, loop back-edges, function exit) and
    read without flushing at ``notify`` latency captures.

    This class is the *per-record frame*: ``_compiled_run(_args, _budget)``.
    The batch frame (:mod:`repro.lang.vectorize`) puts the same lowered body
    inside a row loop and overrides only :meth:`prologue` / :meth:`epilogue`,
    :meth:`commit_notify` and :meth:`bind_call`.
    """

    def __init__(self, functions: FunctionTable, cost_model: CostModel) -> None:
        self.functions = functions
        self.cm = cost_model
        self.lines: list[str] = []
        # Globals bound into the exec namespace of the generated function.
        self.bindings: dict[str, object] = {
            "_InterpError": InterpError,
            "_NotificationClash": NotificationClash,
            "_StepLimitExceeded": StepLimitExceeded,
            "_unbound_error": unbound_error,
        }
        self.slots: dict[str, str] = {}  # source name -> mangled local
        self.callers: dict[str, tuple[str, int]] = {}  # func -> (global, cost)
        self.var_sorts: dict[str, str | None] = {}
        # Dominated-check elimination: ``known[p]`` is the sort a check
        # emitted at a point dominating the current one proved for ``p``.
        # Only parameters the program never assigns (``stable``) qualify —
        # ``row := "s"`` makes ``@row`` mutable and every check must stay.
        self.stable: frozenset[str] = frozenset()
        self.known: dict[str, str] = {}
        # Names whose reads go through an ``_UNDEF`` check (batch frame: a
        # Python local outlives its row; here Python's own unbound-local
        # detection does the job, so the set stays empty).
        self.undef: frozenset[str] = frozenset()
        self.pending = 0
        self._tmp = 0

    # -- infrastructure -----------------------------------------------------

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def slot(self, name: str) -> str:
        mangled = self.slots.get(name)
        if mangled is None:
            mangled = f"_u{len(self.slots)}"
            self.slots[name] = mangled
        return mangled

    def bind_call(self, func: str, fn: Callable[..., object]) -> Callable[..., object]:
        """The callable a ``Call`` node invokes (wrapped: failures surface
        as :class:`InterpError`, exactly as ``Interpreter._eval_call``)."""

        return make_lib_call(func, fn)

    def caller(self, func: str) -> tuple[str, int]:
        entry = self.callers.get(func)
        if entry is None:
            try:
                lib = self.functions[func]
            except KeyError:
                raise CompileError(f"unknown library function {func!r}") from None
            name = f"_c{len(self.callers)}"
            self.bindings[name] = self.bind_call(func, lib.fn)
            entry = (name, lib.cost)
            self.callers[func] = entry
        return entry

    def materialize(self, py: str, depth: int) -> str:
        """Pin ``py`` to a local so it can be checked / reused by name.

        Atoms (locals and integer literals) are returned unchanged — reading
        them is side-effect free apart from the unbound-local check, which
        the first use triggers exactly where the interpreter would.
        """

        if _ATOM.match(py) or py.startswith(("'", '"')):
            return py
        name = f"_t{self._tmp}"
        self._tmp += 1
        self.emit(depth, f"{name} = {py}")
        return name

    def force(self, py: str, depth: int) -> str:
        """Evaluate ``py`` *here*, even if it is a bare local read.

        Used where Figure 2 demands evaluation that Python would otherwise
        delay or skip — the non-short-circuiting connectives and the
        eval-before-clash-check order of ``notify`` — so an unbound-local
        error surfaces exactly where the interpreter raises it.
        """

        if py in ("True", "False") or py.startswith(("'", '"', "_t")) or py.lstrip("-").isdigit():
            return py
        name = f"_t{self._tmp}"
        self._tmp += 1
        self.emit(depth, f"{name} = {py}")
        return name

    def flush(self, depth: int) -> None:
        if self.pending:
            self.emit(depth, f"_cost += {self.pending}")
        self.pending = 0

    def elapsed(self) -> str:
        """The run's cost so far, as a Python expression (notify latency)."""

        return f"_cost + {self.pending}" if self.pending else "_cost"

    def _pad(self, mark: int, depth: int) -> None:
        if len(self.lines) == mark:
            self.emit(depth, "pass")

    def _check(self, depth: int, cond: str, exc: str, message: str) -> None:
        self.emit(depth, f"if {cond}:")
        self.emit(depth + 1, f"raise {exc}({message!r})")

    def _learn(self, operand: Expr, sort: str) -> None:
        if isinstance(operand, (Arg, Var)) and operand.name in self.stable:
            self.known[operand.name] = sort

    def _check_int(self, name: str, operand: Expr, e: Expr, depth: int) -> None:
        # Matches the interpreter's arithmetic requirement: int but not bool.
        self._check(
            depth,
            f"not isinstance({name}, int) or isinstance({name}, bool)",
            "_InterpError",
            f"arithmetic on non-integers: {expr_to_str(e)}",
        )
        self._learn(operand, INT)

    def _check_ordered(self, name: str, e: Expr, depth: int) -> None:
        # The interpreter's ordering check admits bools (they are ints).
        self._check(
            depth,
            f"not isinstance({name}, int)",
            "_InterpError",
            f"ordering on non-integers: {expr_to_str(e)}",
        )

    def _check_bool(self, name: str, operand: Expr, message: str, depth: int) -> None:
        self._check(depth, f"not isinstance({name}, bool)", "_InterpError", message)
        self._learn(operand, BOOL)

    # -- expressions --------------------------------------------------------

    def expr(self, e: Expr, depth: int) -> tuple[str, int, str | None]:
        """Translate ``e``; returns ``(python_expr, static_cost, sort)``.

        ``sort`` is the *statically guaranteed* run-time sort, or ``None``
        when unknown (args, locals, library calls, ``=`` comparisons — the
        places where the interpreter performs dynamic checks).  Known-sort
        sub-expressions are provably side-effect free, which is what makes
        inlining them into short-circuiting Python connectives sound.
        """

        cm = self.cm
        if isinstance(e, IntConst):
            return repr(e.value), cm.int_const, INT
        if isinstance(e, StrConst):
            return repr(e.value), cm.str_const, STR
        if isinstance(e, BoolConst):
            return ("True" if e.value else "False"), cm.bool_const, BOOL
        if isinstance(e, (Arg, Var)):
            py = self.slot(e.name)
            if e.name in self.undef:
                self._check(
                    depth, f"{py} is _UNDEF", "_InterpError", f"unbound variable {e.name!r}"
                )
            cost = cm.arg if isinstance(e, Arg) else cm.var
            return py, cost, self.known.get(e.name) or self.var_sorts.get(e.name)
        if isinstance(e, Call):
            parts: list[str] = []
            cost = 0
            for a in e.args:
                py, c, _ = self.expr(a, depth)
                parts.append(py)
                cost += c
            name, call_cost = self.caller(e.func)
            return f"{name}({', '.join(parts)})", cost + call_cost, None
        if isinstance(e, BinOp):
            lpy, lc, ls = self.expr(e.left, depth)
            rpy, rc, rs = self.expr(e.right, depth)
            if ls != INT:
                lpy = self.materialize(lpy, depth)
            if rs != INT:
                rpy = self.materialize(rpy, depth)
            if ls != INT:
                self._check_int(lpy, e.left, e, depth)
            if rs != INT:
                self._check_int(rpy, e.right, e, depth)
            return f"({lpy} {e.op} {rpy})", lc + rc + cm.arith_cost(e.op), INT
        if isinstance(e, Cmp):
            lpy, lc, ls = self.expr(e.left, depth)
            rpy, rc, rs = self.expr(e.right, depth)
            cost = lc + rc + cm.cmp_cost(e.op)
            if e.op == "=":
                # Equality accepts any values; Python ``==`` on the wrapped
                # value domain (ints/bools/strs) returns exactly what the
                # interpreter stores.  Sort stays unknown so downstream
                # boolean contexts re-check, as the interpreter does.
                return f"({lpy} == {rpy})", cost, None
            if ls not in (INT, BOOL):
                lpy = self.materialize(lpy, depth)
            if rs not in (INT, BOOL):
                rpy = self.materialize(rpy, depth)
            if ls not in (INT, BOOL):
                self._check_ordered(lpy, e, depth)
            if rs not in (INT, BOOL):
                self._check_ordered(rpy, e, depth)
            return f"({lpy} {e.op} {rpy})", cost, BOOL
        if isinstance(e, Not):
            opy, oc, osort = self.expr(e.operand, depth)
            if osort != BOOL:
                opy = self.materialize(opy, depth)
                self._check_bool(
                    opy, e.operand, f"negation of non-boolean: {expr_to_str(e)}", depth
                )
            return f"(not {opy})", oc + cm.neg, BOOL
        if isinstance(e, BoolOp):
            # Figure 2 evaluates both operands (no short-circuiting).
            # Unknown-sort operands are materialised — forcing evaluation —
            # and known-bool operands are side-effect free, so the Python
            # connective below cannot skip an effect the semantics demands.
            lpy, lc, ls = self.expr(e.left, depth)
            lpy = self.materialize(lpy, depth) if ls != BOOL else self.force(lpy, depth)
            rpy, rc, rs = self.expr(e.right, depth)
            rpy = self.materialize(rpy, depth) if rs != BOOL else self.force(rpy, depth)
            msg = f"connective on non-booleans: {expr_to_str(e)}"
            if ls != BOOL:
                self._check_bool(lpy, e.left, msg, depth)
            if rs != BOOL:
                self._check_bool(rpy, e.right, msg, depth)
            return f"({lpy} {e.op} {rpy})", lc + rc + cm.logic_cost(e.op), BOOL
        raise CompileError(f"unknown expression node {e!r}")

    # -- statements ---------------------------------------------------------

    def commit_notify(self, pid: str, py: str, depth: int) -> None:
        """Store one broadcast: clash check, value, latency."""

        # The interpreter evaluates the value *before* the clash check;
        # force it so an unbound variable wins the race exactly as it does
        # there.
        py = self.force(py, depth)
        self._check(
            depth,
            f"{pid!r} in _nots",
            "_NotificationClash",
            f"duplicate notification for {pid!r}",
        )
        self.emit(depth, f"_nots[{pid!r}] = {py}")
        self.emit(depth, f"_ncosts[{pid!r}] = {self.elapsed()}")

    def stmt(self, s: Stmt, depth: int) -> None:
        cm = self.cm
        if isinstance(s, Skip):
            return
        if isinstance(s, Assign):
            py, cost, _sort = self.expr(s.expr, depth)
            self.emit(depth, f"{self.slot(s.var)} = {py}")
            self.pending += cost + cm.assign
            return
        if isinstance(s, Notify):
            py, cost, sort = self.expr(s.expr, depth)
            if sort != BOOL:
                py = self.materialize(py, depth)
                self._check_bool(py, s.expr, f"notify of non-boolean: {stmt_to_str(s)}", depth)
            self.pending += cost + cm.notify
            self.commit_notify(s.pid, py, depth)
            return
        if isinstance(s, Seq):
            for sub in s.stmts:
                self.stmt(sub, depth)
            return
        if isinstance(s, If):
            py, cost, sort = self.expr(s.cond, depth)
            if sort != BOOL:
                py = self.materialize(py, depth)
                self._check_bool(
                    py, s.cond, f"branch on non-boolean: {expr_to_str(s.cond)}", depth
                )
            self.pending += cost + cm.branch
            entry = self.pending
            self.emit(depth, f"if {py}:")
            self._block(s.then, depth + 1, entry)
            self.emit(depth, "else:")
            self._block(s.orelse, depth + 1, entry)
            self.pending = 0
            return
        if isinstance(s, While):
            self.flush(depth)
            fuel = stmt_size(s)  # one iteration's worth of interpreter ticks
            self.emit(depth, "while True:")
            d = depth + 1
            self.emit(d, f"_fuel -= {fuel}")
            self.emit(d, "if _fuel < 0:")
            self.emit(d + 1, "raise _StepLimitExceeded('exceeded %d steps' % _budget)")
            py, cost, sort = self.expr(s.cond, d)
            if sort != BOOL:
                py = self.materialize(py, d)
                self._check_bool(py, s.cond, f"loop on non-boolean: {expr_to_str(s.cond)}", d)
            test_cost = cost + cm.branch
            self.emit(d, f"if not {py}:")
            if test_cost:
                self.emit(d + 1, f"_cost += {test_cost}")
            self.emit(d + 1, "break")
            self._block(s.body, d, test_cost)
            return
        raise CompileError(f"unknown statement node {s!r}")

    def _block(self, s: Stmt, depth: int, entry_cost: int) -> None:
        """An ``If`` arm or loop body: its own basic block, and its own
        scope for dominated checks — what a block proves does not survive
        it (the other arm, or zero iterations, may have run instead), while
        what its condition proved beforehand does."""

        mark = len(self.lines)
        known = self.known
        self.known = dict(known)
        self.pending = entry_cost
        self.stmt(s, depth)
        self.flush(depth)
        self.known = known
        self._pad(mark, depth)

    # -- whole programs -----------------------------------------------------

    def prologue(self, program: Program) -> int:
        """Open the generated function; returns the body's indent depth."""

        params = program.params
        self.emit(0, "def _compiled_run(_args, _budget):")
        if params:
            have = " and ".join(f"{p!r} in _args" for p in params)
            self.emit(1, f"if not ({have}):")
            self.emit(
                2,
                "raise _InterpError('missing arguments: %s' % "
                f"[_p for _p in {params!r} if _p not in _args])",
            )
            for p in params:
                self.emit(1, f"{self.slot(p)} = _args[{p!r}]")
        if _contains(program.body, While):
            self.emit(1, "_fuel = _budget")
        self.emit(1, "_nots = {}")
        self.emit(1, "_ncosts = {}")
        self.emit(1, "_cost = 0")
        self.emit(1, "try:")
        return 2

    def epilogue(self, depth: int, mark: int) -> None:
        """Close the body (``mark`` is where it began) and return."""

        self.flush(depth)
        self._pad(mark, depth)
        # A read of a never-assigned slot compiles to a *global* load and
        # raises plain NameError; UnboundLocalError (its subclass) covers
        # slots assigned on some path only.  Catch the base class.
        self.emit(1, "except NameError as _exc:")
        self.emit(2, "raise _unbound_error(_exc, _SRC_NAMES) from None")
        self.emit(1, "_loc = locals()")
        self.emit(
            1,
            "_env = {_src: _loc[_py] for _py, _src in _SLOT_LIST if _py in _loc}",
        )
        self.emit(1, "return _env, _nots, _cost, _ncosts")
        self.bindings["_SLOT_LIST"] = tuple(
            (mangled, src) for src, mangled in self.slots.items()
        )
        self.bindings["_SRC_NAMES"] = {
            mangled: src for src, mangled in self.slots.items()
        }

    def build(self, program: Program) -> str:
        assigns: list[tuple[str, Expr]] = []
        _collect_assigns(program.body, assigns)
        self.var_sorts = _static_var_sorts(program.params, assigns)
        self.stable = frozenset(program.params) - {name for name, _ in assigns}
        depth = self.prologue(program)
        mark = len(self.lines)
        self.stmt(program.body, depth)
        self.epilogue(depth, mark)
        return "\n".join(self.lines) + "\n"


@dataclass
class CompiledProgram:
    """A program specialised to one (cost model, function table) pair.

    ``source`` keeps the generated Python for debugging; ``run`` has the
    exact observable contract of :meth:`Interpreter.run`.
    """

    program: Program
    source: str
    #: ``_compiled_run(args, budget) -> (env, notifications, cost, notification_costs)``.
    _fn: Callable[
        [Mapping[str, object], int],
        tuple[dict[str, object], dict[str, object], int, dict[str, int]],
    ] = field(repr=False, compare=False)
    max_steps: int = DEFAULT_MAX_STEPS

    def run(self, args: Mapping[str, object], max_steps: int | None = None) -> RunResult:
        env, notifications, cost, notification_costs = self._fn(
            args, self.max_steps if max_steps is None else max_steps
        )
        return RunResult(
            env=env,
            notifications=notifications,
            cost=cost,
            notification_costs=notification_costs,
        )


def compile_program(
    program: Program,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> CompiledProgram:
    """Translate ``program`` into a specialised Python closure.

    Raises :class:`CompileError` if translation is impossible (unknown
    library function or AST node) — callers are expected to fall back to
    the interpreter, which reproduces the corresponding dynamic error lazily.
    """

    if FAULT_HOOK is not None:
        FAULT_HOOK("compile.translate", program)
    emitter = _Emitter(functions, cost_model)
    try:
        source = emitter.build(program)
        code = compile(source, f"<compiled {program.pid}>", "exec")
    except CompileError:
        raise
    except Exception as exc:  # noqa: BLE001 - any emission bug becomes CompileError
        raise CompileError(f"cannot compile {program.pid}: {exc}") from exc
    namespace = dict(emitter.bindings)
    exec(code, namespace)  # noqa: S102 - source is generated above, not user input
    compiled = CompiledProgram(
        program=program,
        source=source,
        max_steps=max_steps,
        _fn=namespace["_compiled_run"],
    )
    if FAULT_HOOK is not None:
        transform = FAULT_HOOK("compile.finish", program)
        if transform is not None:
            compiled = transform(compiled)
    return compiled


_T = TypeVar("_T")
#: One bucket of lowered programs per function table; an entry is ``[value, used]``.
_LoweringCache = weakref.WeakKeyDictionary[
    FunctionTable, OrderedDict[tuple[object, ...], list[Any]]
]


# Lowered programs kept per function table.  A ``QueryRegistry`` that churns
# lowers one new merged plan per patch; without a cap the table's bucket grew
# by that plan for the life of the table.  Comfortably above a 50-UDF
# ``whereMany`` plus its plans.
_LOWERED_LIMIT = 512
# Mark-on-hit and insert-then-evict are compound; dataflow workers share the
# buckets.
_LOWERED_LOCK = Lock()


def _cached(
    cache: _LoweringCache,
    functions: FunctionTable,
    key: tuple[object, ...],
    build: Callable[[], _T],
    telemetry: Telemetry | None,
    series: str,
    *,
    refresh: bool = False,
) -> tuple[_T, bool]:
    """The lowering caches' one lookup; returns ``(value, missed)``.

    One bucket per function table (weak, so dropping a dataset frees its
    lowered UDFs), keyed by the structural program identity and cost model
    — whereMany's 50 UDFs lower once per job, not once per record, and a
    consolidated plan the service runs repeatedly lowers once.  Traffic is
    counted into ``<series>_hits_total`` / ``<series>_misses_total``;
    ``refresh`` forces a miss (fault injection).

    A bucket is a second-chance LRU: an entry is ``[value, used]``, a hit
    only sets ``used``, and eviction gives the oldest entry one more round
    if it was used since it last came up.  A hit therefore writes one list
    cell and never re-links the bucket — a run looks up every UDF it
    executes.  Hashing the key is no part of that cost: a ``Program`` keeps
    its structural hash in its ``_hash`` slot (:mod:`repro.nodeslots`), so
    the probe is a slot read however large the program.
    """

    with _LOWERED_LOCK:
        per_table = cache.get(functions)
        if per_table is None:
            per_table = cache.setdefault(functions, OrderedDict())
        entry = None if refresh else per_table.get(key)
        if entry is not None:
            entry[1] = True
    missed = entry is None
    if missed:
        entry = [build(), False]
        with _LOWERED_LOCK:
            per_table[key] = entry
            while len(per_table) > _LOWERED_LIMIT:
                oldest_key, oldest = per_table.popitem(last=False)
                if oldest[1]:
                    oldest[1] = False
                    per_table[oldest_key] = oldest
    if telemetry is not None and telemetry.enabled:
        telemetry.counter(f"{series}_{'misses' if missed else 'hits'}_total").inc()
    return entry[0], missed


_CACHE: _LoweringCache = weakref.WeakKeyDictionary()


def compile_cached(
    program: Program,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    telemetry: Telemetry | None = None,
) -> CompiledProgram:
    """Memoising front end to :func:`compile_program`.

    ``telemetry`` records cache traffic (``compile_cache_hits_total`` /
    ``compile_cache_misses_total``) and times each actual compilation into
    the ``compile_seconds`` histogram.
    """

    def build() -> CompiledProgram:
        started = perf_counter()
        compiled = compile_program(program, functions, cost_model, max_steps=max_steps)
        if telemetry is not None and telemetry.enabled:
            telemetry.histogram("compile_seconds").observe(perf_counter() - started)
        return compiled

    key = (program, cost_model, max_steps)
    refresh = FAULT_HOOK is not None and bool(FAULT_HOOK("compile.cache_lookup", program))
    return _cached(_CACHE, functions, key, build, telemetry, "compile_cache", refresh=refresh)[0]


def clear_compile_cache() -> None:
    _CACHE.clear()


def _diagnose_compile_failure(program: Program, functions: FunctionTable) -> str:
    """Best-effort static explanation for a failed translation.

    The silent half of the compiled backend's contract — "any failure falls
    back to the interpreter" — hides *why* a program was rejected.  Running
    the UDF linter over the program turns the common causes (calls to
    functions absent from the table, sort errors the interpreter would only
    hit at run time) into named findings appended to the fallback warning.
    """

    try:
        from ..analysis.static.lint import lint_program

        findings = lint_program(program, functions).errors
    except Exception:  # noqa: BLE001 - diagnosis must never mask the fallback
        return ""
    if not findings:
        return ""
    notes = "; ".join(f"{f.rule}: {f.message}" for f in findings[:3])
    return f" [static diagnosis: {notes}]"


def make_runner(
    program: Program,
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    backend: str = DEFAULT_BACKEND,
    max_steps: int = DEFAULT_MAX_STEPS,
    telemetry: Telemetry | None = None,
    profiler: Profiler | None = None,
) -> Callable[[Mapping[str, object]], RunResult]:
    """Return ``args -> RunResult``: the per-row rungs of the execution ladder.

    The ``Where*`` operators execute partitions through the batch kernel
    (:mod:`repro.lang.vectorize`) and come here only when a batch degrades;
    callers that run one record at a time — ``repro run``,
    ``experiments/latency.py``, the oracles, prefilter guards — come here
    directly.  ``backend="compiled"`` (the default) and ``"vectorized"``
    both mean the compiled closure — exactly what a one-row batch degrades
    to: it uses the compile cache and falls back to a private interpreter —
    with a logged warning and a ``compile_fallbacks_total`` count — if
    compilation fails for any reason, so callers always get a working
    runner.  ``backend="interp"`` is the interpreter alone.

    ``profiler`` (a :class:`repro.profiling.Profiler`) wraps the returned
    runner with the sampling hook, tagged with the rung that actually
    serves it (``compiled`` vs the interpreter).  ``None`` — the
    default — returns the bare runner: the hook costs nothing when off
    because it is never installed.
    """

    _check_backend(backend)

    def _hook(
        runner: Callable[[Mapping[str, object]], RunResult], served_by: str
    ) -> Callable[[Mapping[str, object]], RunResult]:
        if profiler is None or not profiler.enabled:
            return runner
        return profiler.wrap_runner(runner, program, functions, served_by)

    if backend != "interp":
        try:
            return _hook(
                compile_cached(
                    program, functions, cost_model, max_steps=max_steps, telemetry=telemetry
                ).run,
                "compiled",
            )
        except Exception as exc:  # noqa: BLE001 - fallback must be unconditional
            if telemetry is not None and telemetry.enabled:
                telemetry.counter("compile_fallbacks_total").inc()
            logger.warning(
                "compiled backend unavailable for %s (%s); falling back to the interpreter%s",
                program.pid,
                exc,
                _diagnose_compile_failure(program, functions),
            )
    interp = Interpreter(functions, cost_model, max_steps=max_steps)

    def _run(args: Mapping[str, object]) -> RunResult:
        return interp.run(program, args)

    return _hook(_run, "interp")
