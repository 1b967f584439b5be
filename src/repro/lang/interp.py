"""Cost-annotated big-step interpreter (Figure 2 of the paper).

Evaluation judgments::

    E, e ⇓k c          eval_expr(env, e)  -> (value, cost)
    E, S ⇓k E', N      exec_stmt(env, S)  -> (env', notifications, cost)

``E`` maps argument and local-variable names to values; ``N`` maps program
identifiers to the boolean each program broadcast.  The disjoint-union
``N1 ⊎ N2`` of the semantics is enforced: a second notification for the same
program identifier raises :class:`NotificationClash`, because consolidated
programs must broadcast each constituent's result exactly once.

Library calls are resolved through a :class:`~repro.lang.functions
.FunctionTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, MutableMapping

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
from .functions import FunctionTable

__all__ = [
    "Interpreter",
    "RunResult",
    "InterpError",
    "NotificationClash",
    "StepLimitExceeded",
    "combine_sequential",
    "run_program",
    "run_sequentially",
]

Value = object  # int | bool | str


class InterpError(Exception):
    """A dynamic error: unbound variable, type mismatch, unknown function."""


class NotificationClash(InterpError):
    """Raised when one run notifies the same program identifier twice."""


class StepLimitExceeded(InterpError):
    """Raised when a run exceeds the configured step budget."""


@dataclass
class RunResult:
    """The outcome of executing a statement or program.

    ``notification_costs`` records, per program identifier, the cumulative
    execution cost at the moment its result was broadcast — the *latency*
    of that query's answer.  The paper broadcasts results as soon as they
    are computed precisely to keep these latencies low (footnote 2), and
    its Section 8 discusses latency-aware consolidation; the latency
    experiment builds on this measurement.
    """

    env: dict[str, Value]
    notifications: dict[str, bool]
    cost: int
    notification_costs: dict[str, int] = field(default_factory=dict)

    def notification(self, pid: str) -> bool:
        return self.notifications[pid]

    def latency(self, pid: str) -> int:
        return self.notification_costs[pid]


class Interpreter:
    """Executes programs under Figure 2's cost semantics.

    Parameters
    ----------
    functions:
        The library-function table supplying implementations and call costs.
    cost_model:
        Per-operation costs; defaults to :data:`DEFAULT_COST_MODEL`.
    max_steps:
        A fuel budget guarding against runaway loops (each statement or
        expression node evaluated consumes one step).
    """

    def __init__(
        self,
        functions: FunctionTable,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_steps: int = 2_000_000,
    ) -> None:
        self.functions = functions
        self.cost_model = cost_model
        self.max_steps = max_steps
        self._steps = 0
        self._elapsed = 0
        self._notification_costs: dict[str, int] = {}

    # -- public API ---------------------------------------------------------

    def _reset(self) -> None:
        """Clear all per-run state (fuel, latency bookkeeping).

        Shared by :meth:`run` and :meth:`eval_expr` so both entry points
        start from the same blank slate.
        """

        self._steps = 0
        self._elapsed = 0
        self._notification_costs = {}

    def run(self, program: Program, args: Mapping[str, Value]) -> RunResult:
        """Run ``program`` on an argument binding covering all its params."""

        missing = [p for p in program.params if p not in args]
        if missing:
            raise InterpError(f"missing arguments: {missing}")
        env: dict[str, Value] = {p: args[p] for p in program.params}
        self._reset()
        notifications: dict[str, bool] = {}
        cost = self._exec(program.body, env, notifications)
        return RunResult(
            env=env,
            notifications=notifications,
            cost=cost,
            notification_costs=dict(self._notification_costs),
        )

    def eval_expr(self, expr: Expr, env: Mapping[str, Value]) -> tuple[Value, int]:
        """Evaluate one expression; returns ``(value, cost)``."""

        self._reset()
        return self._eval(expr, env)

    # -- expressions ---------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise StepLimitExceeded(f"exceeded {self.max_steps} steps")

    def _eval(self, e: Expr, env: Mapping[str, Value]) -> tuple[Value, int]:
        self._tick()
        cm = self.cost_model
        if isinstance(e, IntConst):
            return e.value, cm.int_const
        if isinstance(e, StrConst):
            return e.value, cm.str_const
        if isinstance(e, BoolConst):
            return e.value, cm.bool_const
        if isinstance(e, Arg):
            try:
                return env[e.name], cm.arg
            except KeyError:
                raise InterpError(f"unbound argument {e.name!r}") from None
        if isinstance(e, Var):
            try:
                return env[e.name], cm.var
            except KeyError:
                raise InterpError(f"unbound variable {e.name!r}") from None
        if isinstance(e, Call):
            return self._eval_call(e, env)
        if isinstance(e, BinOp):
            lv, lc = self._eval(e.left, env)
            rv, rc = self._eval(e.right, env)
            if not isinstance(lv, int) or not isinstance(rv, int) or isinstance(lv, bool) or isinstance(rv, bool):
                raise InterpError(f"arithmetic on non-integers: {e}")
            if e.op == "+":
                v = lv + rv
            elif e.op == "-":
                v = lv - rv
            else:
                v = lv * rv
            return v, lc + rc + cm.arith
        if isinstance(e, Cmp):
            lv, lc = self._eval(e.left, env)
            rv, rc = self._eval(e.right, env)
            if e.op == "=":
                v = lv == rv
            else:
                if not isinstance(lv, int) or not isinstance(rv, int):
                    raise InterpError(f"ordering on non-integers: {e}")
                v = lv < rv if e.op == "<" else lv <= rv
            return v, lc + rc + cm.cmp
        if isinstance(e, Not):
            v, c = self._eval(e.operand, env)
            if not isinstance(v, bool):
                raise InterpError(f"negation of non-boolean: {e}")
            return (not v), c + cm.neg
        if isinstance(e, BoolOp):
            # Figure 2 evaluates both operands (no short-circuiting); the
            # calculus relies on this for its cost bounds, so we match it.
            lv, lc = self._eval(e.left, env)
            rv, rc = self._eval(e.right, env)
            if not isinstance(lv, bool) or not isinstance(rv, bool):
                raise InterpError(f"connective on non-booleans: {e}")
            v = (lv and rv) if e.op == "and" else (lv or rv)
            return v, lc + rc + cm.logic
        raise InterpError(f"unknown expression node {e!r}")

    def _eval_call(self, e: Call, env: Mapping[str, Value]) -> tuple[Value, int]:
        vals: list[Value] = []
        argcost = 0
        for a in e.args:
            v, c = self._eval(a, env)
            vals.append(v)
            argcost += c
        lib = self.functions[e.func]
        try:
            result = lib.fn(*vals)
        except Exception as exc:  # noqa: BLE001 - surface as InterpError
            raise InterpError(f"library call {e.func} failed: {exc}") from exc
        return result, argcost + lib.cost

    # -- statements ----------------------------------------------------------

    def _exec(
        self,
        s: Stmt,
        env: MutableMapping[str, Value],
        notifications: dict[str, bool],
    ) -> int:
        self._tick()
        cm = self.cost_model
        if isinstance(s, Skip):
            return 0
        if isinstance(s, Assign):
            v, c = self._eval(s.expr, env)
            env[s.var] = v
            self._elapsed += c + cm.assign
            return c + cm.assign
        if isinstance(s, Notify):
            v, c = self._eval(s.expr, env)
            if not isinstance(v, bool):
                raise InterpError(f"notify of non-boolean: {s}")
            if s.pid in notifications:
                raise NotificationClash(f"duplicate notification for {s.pid!r}")
            notifications[s.pid] = v
            self._elapsed += c + cm.notify
            self._notification_costs[s.pid] = self._elapsed
            return c + cm.notify
        if isinstance(s, Seq):
            total = 0
            for sub in s.stmts:
                total += self._exec(sub, env, notifications)
            return total
        if isinstance(s, If):
            v, c = self._eval(s.cond, env)
            if not isinstance(v, bool):
                raise InterpError(f"branch on non-boolean: {s.cond}")
            self._elapsed += c + cm.branch
            branch = s.then if v else s.orelse
            return c + cm.branch + self._exec(branch, env, notifications)
        if isinstance(s, While):
            total = 0
            while True:
                v, c = self._eval(s.cond, env)
                if not isinstance(v, bool):
                    raise InterpError(f"loop on non-boolean: {s.cond}")
                total += c + cm.branch
                self._elapsed += c + cm.branch
                if not v:
                    return total
                total += self._exec(s.body, env, notifications)
        raise InterpError(f"unknown statement node {s!r}")


def run_program(
    program: Program,
    args: Mapping[str, Value],
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    **kwargs,
) -> RunResult:
    """Convenience wrapper: build an interpreter and run one program."""

    return Interpreter(functions, cost_model, **kwargs).run(program, args)


def combine_sequential(results) -> RunResult:
    """Fold per-program :class:`RunResult`\\ s into the sequential baseline.

    Notification environments are combined disjointly; local environments
    are unioned with later programs winning on (formally disallowed,
    operationally harmless) name collisions.  Each program's broadcast
    latencies are offset by the cost of everything that ran before it.
    Shared by :func:`run_sequentially` and the compiled backend's
    sequential driver, so both baselines combine results identically.
    """

    env: dict[str, Value] = {}
    notifications: dict[str, bool] = {}
    notification_costs: dict[str, int] = {}
    cost = 0
    for r in results:
        env.update(r.env)
        for pid, value in r.notifications.items():
            if pid in notifications:
                raise NotificationClash(f"duplicate notification for {pid!r}")
            notifications[pid] = value
        # Latency in the sequential baseline: everything before this
        # program plus its own progress at broadcast time.
        for pid, at in r.notification_costs.items():
            notification_costs[pid] = cost + at
        cost += r.cost
    return RunResult(
        env=env,
        notifications=notifications,
        cost=cost,
        notification_costs=notification_costs,
    )


def run_sequentially(
    programs: list[Program],
    args: Mapping[str, Value],
    functions: FunctionTable,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    **kwargs,
) -> RunResult:
    """Run several programs in sequence on the same input.

    This is the ``Π1; Π2; ...`` baseline of Definition 1; see
    :func:`combine_sequential` for how the outcomes are merged.
    """

    interp = Interpreter(functions, cost_model, **kwargs)
    return combine_sequential(interp.run(p, args) for p in programs)
