"""Typed random generator for well-formed Figure-1 UDF batches.

Every generated case is a replayable ``(seed, schema, size)`` triple: the
same triple always yields the same batch of programs, byte for byte, so a
failing fuzz case can be re-run from its three numbers alone (and the
corpus stores exactly those numbers as provenance).

The generator is *typed* and *total* by construction:

* locals are integer-sorted and always assigned before use (branch-local
  definitions are intersected away, so no path reads an unbound variable);
* accessor calls receive the row argument plus ground extra arguments
  drawn from the schema's declared valid ranges (or a loop counter whose
  static bounds fit the range), so every call is in-domain for the small
  cached datasets;
* loops are counter loops with static trip counts ≤ 4, so every program
  terminates well inside the interpreter's fuel budget;
* each program notifies exactly once per path through the canonical
  ``if c then notify true else notify false`` epilogue (or a single bare
  ``notify``), and programs in a batch use distinct pids — the
  consolidation preconditions hold for every generated batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from ..datasets.records import Dataset
from ..lang.ast import (
    SKIP,
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
    Stmt,
    Var,
    While,
    seq,
    statements,
)
from ..lang.visitors import expr_vars, pid_order, rename_pids, rename_vars, stmt_exprs, stmt_vars

__all__ = [
    "Accessor",
    "Schema",
    "SCHEMAS",
    "CaseSpec",
    "generate_case",
    "alpha_copy",
    "drop_arm_assignment",
    "case_inputs",
    "schema_dataset",
]

ROW = "row"


@dataclass(frozen=True)
class Accessor:
    """One library accessor: name plus valid ranges for non-row arguments."""

    name: str
    extra_args: tuple[tuple[int, int], ...] = ()  # inclusive (lo, hi) per arg


@dataclass(frozen=True)
class Schema:
    """What the generator may call in one domain, plus its small dataset."""

    name: str
    accessors: tuple[Accessor, ...]
    dataset_args: tuple[tuple[str, object], ...]


def _weather_dataset() -> Dataset:
    from ..datasets.weather import generate_weather

    return generate_weather(cities=20, years=2, seed=7)


def _flight_dataset() -> Dataset:
    from ..datasets.flights import generate_flights

    return generate_flights(airlines=20, cities=10, seed=7)


def _news_dataset() -> Dataset:
    from ..datasets.news import generate_news

    return generate_news(articles=50, seed=7)


def _twitter_dataset() -> Dataset:
    from ..datasets.twitter import generate_twitter

    return generate_twitter(tweets=50, seed=7)


def _stock_dataset() -> Dataset:
    from ..datasets.stocks import generate_stocks

    return generate_stocks(companies=10, total_daily_rows=500, seed=7)


_DATASET_MAKERS = {
    "weather": _weather_dataset,
    "flight": _flight_dataset,
    "news": _news_dataset,
    "twitter": _twitter_dataset,
    "stock": _stock_dataset,
}

SCHEMAS: dict[str, Schema] = {
    "weather": Schema(
        "weather",
        (
            Accessor("monthly_avg_temp", ((1, 12),)),
            Accessor("monthly_rainfall", ((1, 12),)),
            Accessor("yearly_avg_temp"),
            Accessor("yearly_rainfall"),
        ),
        (),
    ),
    "flight": Schema(
        "flight",
        (
            Accessor("has_direct", ((0, 9), (0, 9))),
            Accessor("direct_price", ((0, 9), (0, 9))),
            Accessor("has_connection", ((0, 9), (0, 9))),
            Accessor("connecting_price", ((0, 9), (0, 9))),
            Accessor("avg_price", ((0, 9), (0, 9))),
        ),
        (),
    ),
    "news": Schema(
        "news",
        (
            Accessor("contains_word", ((0, 299),)),
            Accessor("avg_word_length"),
            Accessor("max_word_length"),
            Accessor("word_count"),
        ),
        (),
    ),
    "twitter": Schema(
        "twitter",
        (
            Accessor("smiley_count"),
            Accessor("tweet_language"),
            Accessor("tweet_length"),
            Accessor("sentiment_score", ((0, 5),)),
            Accessor("topic_score", ((0, 6),)),
        ),
        (),
    ),
    "stock": Schema(
        "stock",
        (
            Accessor("avg_volume"),
            Accessor("max_stock_value"),
            Accessor("min_stock_value"),
            Accessor("stddev"),
            Accessor("last_close"),
        ),
        (),
    ),
}


@lru_cache(maxsize=None)
def schema_dataset(schema: str) -> Dataset:
    """The small, cached, deterministic dataset backing one schema."""

    try:
        maker = _DATASET_MAKERS[schema]
    except KeyError:
        raise ValueError(
            f"unknown schema {schema!r}; choose from {sorted(SCHEMAS)}"
        ) from None
    return maker()


@dataclass(frozen=True)
class CaseSpec:
    """The replayable identity of one generated case."""

    seed: int
    schema: str
    size: int

    def __str__(self) -> str:
        return f"(seed={self.seed}, schema={self.schema!r}, size={self.size})"


class _ProgramGen:
    """One program's worth of typed generation state."""

    def __init__(self, rng: random.Random, schema: Schema, size: int) -> None:
        self.rng = rng
        self.schema = schema
        self.size = max(1, size)
        # name -> static (lo, hi) bounds when known (loop counters), else None
        self.int_vars: dict[str, tuple[int, int] | None] = {}
        self._fresh = 0

    # -- expressions --------------------------------------------------------

    def _extra_arg(self, lo: int, hi: int) -> Expr:
        """A ground constant in [lo, hi], or a loop counter proven inside it."""

        fitting = [
            name
            for name, bounds in self.int_vars.items()
            if bounds is not None and lo <= bounds[0] and bounds[1] <= hi
        ]
        if fitting and self.rng.random() < 0.4:
            return Var(self.rng.choice(fitting))
        return IntConst(self.rng.randint(lo, hi))

    def accessor_call(self) -> Call:
        acc = self.rng.choice(self.schema.accessors)
        args: list[Expr] = [Arg(ROW)]
        for lo, hi in acc.extra_args:
            args.append(self._extra_arg(lo, hi))
        return Call(acc.name, tuple(args))

    def int_expr(self, depth: int) -> Expr:
        roll = self.rng.random()
        if depth <= 0 or roll < 0.30:
            return IntConst(self.rng.randint(-20, 200))
        if roll < 0.55 and self.int_vars:
            return Var(self.rng.choice(sorted(self.int_vars)))
        if roll < 0.80:
            return self.accessor_call()
        op = self.rng.choice(("+", "-", "*"))
        return BinOp(op, self.int_expr(depth - 1), self.int_expr(depth - 1))

    def bool_expr(self, depth: int) -> Expr:
        roll = self.rng.random()
        if depth <= 0 or roll < 0.55:
            op = self.rng.choice(("<", "<=", "="))
            return Cmp(op, self.int_expr(depth - 1), self.int_expr(depth - 1))
        if roll < 0.70:
            return Not(self.bool_expr(depth - 1))
        if roll < 0.95:
            op = self.rng.choice(("and", "or"))
            return BoolOp(op, self.bool_expr(depth - 1), self.bool_expr(depth - 1))
        return BoolConst(self.rng.random() < 0.5)

    # -- statements ---------------------------------------------------------

    def fresh_var(self) -> str:
        self._fresh += 1
        return f"v{self._fresh}"

    def gen_assign(self, depth: int) -> Stmt:
        # Mostly define fresh names; sometimes overwrite an existing one.
        # Range-tracked variables (loop counters) are never overwritten —
        # their static bounds guarantee loop termination and in-range
        # accessor arguments.
        plain = [n for n, bounds in self.int_vars.items() if bounds is None]
        if plain and self.rng.random() < 0.3:
            name = self.rng.choice(sorted(plain))
        else:
            name = self.fresh_var()
        stmt = Assign(name, self.int_expr(depth))
        self.int_vars[name] = None
        return stmt

    def gen_if(self, depth: int, budget: int) -> Stmt:
        cond = self.bool_expr(depth)
        before = dict(self.int_vars)
        then = self.gen_block(depth - 1, budget)
        then_vars = self.int_vars
        self.int_vars = dict(before)
        orelse = self.gen_block(depth - 1, budget) if self.rng.random() < 0.6 else seq()
        # Only names defined on *both* paths survive the join.
        self.int_vars = {
            name: bounds
            for name, bounds in then_vars.items()
            if name in self.int_vars
        }
        return If(cond, then, orelse)

    def gen_loop(self, depth: int, budget: int) -> Stmt:
        """A counter loop with static trip count ≤ 4 (always terminates)."""

        counter = self.fresh_var()
        lo = self.rng.randint(0, 8)
        trips = self.rng.randint(1, 4)
        hi = lo + trips
        init = Assign(counter, IntConst(lo))
        self.int_vars[counter] = (lo, hi - 1)
        body_stmts = [self.gen_stmt(depth - 1, budget) for _ in range(self.rng.randint(1, 2))]
        body_stmts.append(Assign(counter, BinOp("+", Var(counter), IntConst(1))))
        loop = While(Cmp("<", Var(counter), IntConst(hi)), seq(*body_stmts))
        # After the loop the counter equals hi — still statically bounded.
        self.int_vars[counter] = (hi, hi)
        return seq(init, loop)

    def gen_stmt(self, depth: int, budget: int) -> Stmt:
        roll = self.rng.random()
        if depth <= 0 or roll < 0.55:
            return self.gen_assign(max(1, depth))
        if roll < 0.80:
            return self.gen_if(depth, max(1, budget // 2))
        return self.gen_loop(depth, max(1, budget // 2))

    def gen_block(self, depth: int, budget: int) -> Stmt:
        return seq(*(self.gen_stmt(depth, budget) for _ in range(max(1, budget))))

    # -- whole programs -----------------------------------------------------

    def build(self, pid: str) -> Program:
        depth = 1 + min(3, self.size // 2)
        body = self.gen_block(depth, self.size)
        cond = self.bool_expr(depth)
        if self.rng.random() < 0.7:
            epilogue: Stmt = If(cond, Notify(pid, _TRUE), Notify(pid, _FALSE))
        else:
            epilogue = Notify(pid, cond)
        return Program(pid, (ROW,), seq(body, epilogue))


_TRUE = BoolConst(True)
_FALSE = BoolConst(False)


def generate_case(
    seed: int, schema: str, size: int, n_programs: int | None = None
) -> list[Program]:
    """The batch of UDFs identified by ``(seed, schema, size)``.

    ``size`` scales both the per-program statement budget and (unless
    pinned by ``n_programs``) the batch width.  The same triple always
    returns structurally identical programs.
    """

    sch = SCHEMAS.get(schema)
    if sch is None:
        raise ValueError(f"unknown schema {schema!r}; choose from {sorted(SCHEMAS)}")
    rng = random.Random((seed, schema, size).__repr__())
    if n_programs is None:
        n_programs = rng.randint(2, 2 + min(4, max(1, size)))
    programs = []
    for i in range(n_programs):
        gen = _ProgramGen(rng, sch, size)
        programs.append(gen.build(f"q{i}"))
    return programs


def alpha_copy(program: Program, pid: str) -> Program:
    """``program`` under the new pid ``pid``, every local renamed.

    The copy is α-equivalent to ``program`` — the query the paper's batches
    repeat when two users pick the same popular constant — so consolidation
    must answer it exactly as ``program`` answers, under its own pid.  A
    second notified pid ``p`` becomes ``<pid>_<k>``.
    """

    pids = {p: pid if k == 0 else f"{pid}_{k}" for k, p in enumerate(pid_order(program))}
    body = rename_vars(program.body, {n: f"{n}_{pid}" for n in stmt_vars(program.body)})
    return Program(pid, program.params, rename_pids(body, pids))


def drop_arm_assignment(program: Program, row: int) -> Program | None:
    """The one-path-only-assignment mutant of ``program`` (None: no site).

    :func:`generate_case` only builds definitely-assigned programs, so no
    fuzzed run ever reads an unbound local — and a backend that mishandles
    one (say, a batch kernel whose Python locals keep the *previous* row's
    value) passes every oracle.  The mutant takes the first top-level
    ``x := e`` that a later statement reads, as
    ``if (@row = <row>) {x := e} else {x := e}``, and drops the else arm's
    assignment: ``x`` is bound on the record ``row`` only, and a read on any
    other record is an ``unbound variable`` error that every backend must
    report alike.  Deterministic, so replayable like the batch itself; not
    well-formed for consolidation, so only the backend oracles'
    error-class comparison runs it.
    """

    stmts = list(statements(program.body))
    for i, s in enumerate(stmts):
        rest = seq(*stmts[i + 1 :])
        if isinstance(s, Assign) and any(s.var in expr_vars(e) for e in stmt_exprs(rest)):
            guard = Cmp("=", Arg(program.params[0]), IntConst(row))
            return Program(
                program.pid, program.params, seq(*stmts[:i], If(guard, s, SKIP), rest)
            )
    return None


def case_inputs(schema: str, limit: int = 6) -> list[dict[str, object]]:
    """Concrete row bindings for differential runs (a sample of the dataset)."""

    ds = schema_dataset(schema)
    step = max(1, len(ds.rows) // limit)
    return [{ROW: r} for r in ds.rows[::step][:limit]]
