"""The vectorizability ladder: its four rungs, its tags per domain, and
the kernel lowering that reads them.

The tags pick the kernel's unbounded-shape rung (``lang/vectorize.py``)
and DESIGN.md §10 documents them, so each generated query family is
pinned to the shape the classifier must assign it.  A change here is an
intentional API change, not noise: update DESIGN.md alongside.

* weather Q1/Q2 are guarded aggregate comparisons — ``branch-free``;
* weather Q3/Q4 scan the twelve months with a constant-trip loop —
  ``bounded-loop``;
* every other domain's families compile to nested conditionals over
  accessor calls — ``branch-free``.
"""

from pathlib import Path

import pytest

from repro import datasets as ds
from repro.analysis.static.costbound import SHAPES, classify_shape
from repro.config import ExecutionConfig
from repro.lang.ast import (
    SKIP,
    Arg,
    Assign,
    BinOp,
    BoolConst,
    Call,
    Cmp,
    If,
    IntConst,
    Notify,
    Program,
    Var,
    While,
    seq,
)
from repro.lang.vectorize import vectorize_program
from repro.naiad.linq import run_where_consolidated, run_where_many
from repro.queries import DOMAIN_QUERIES

# domain -> family -> expected shape tag for every program in the batch
EXPECTED = {
    "weather": {
        "Q1": "branch-free",
        "Q2": "branch-free",
        "Q3": "bounded-loop",
        "Q4": "bounded-loop",
        "Mix": "branch-free",
    },
    "flight": {f: "branch-free" for f in ("Q1", "Q2", "Q3", "Mix")},
    "news": {f: "branch-free" for f in ("Q1", "Q2", "Q3", "BC")},
    "twitter": {f: "branch-free" for f in ("Q1", "Q2", "Q3", "BC")},
    "stock": {f: "branch-free" for f in ("Q1", "Q2", "Q3", "BC")},
}

_MAKERS = {
    "weather": lambda: ds.generate_weather(cities=15),
    "flight": lambda: ds.generate_flights(airlines=15),
    "news": lambda: ds.generate_news(articles=40),
    "twitter": lambda: ds.generate_twitter(tweets=40),
    "stock": lambda: ds.generate_stocks(companies=8, total_daily_rows=300),
}


def _temp(month: int):
    return Call("monthly_avg_temp", (Arg("row"), IntConst(month)))


class TestLadder:
    """One hand-written program per rung."""

    @pytest.fixture(scope="class")
    def functions(self):
        return ds.generate_weather(cities=2).functions

    def test_straight_line(self, functions):
        body = seq(Assign("t", _temp(1)), Notify("p", Cmp("<", IntConst(5), Var("t"))))
        program = Program(pid="p", params=("row",), body=body)
        assert classify_shape(program, functions) == "straight-line"

    def test_branch_free(self, functions):
        body = If(Cmp("<", IntConst(10), _temp(1)), Notify("p", BoolConst(True)), SKIP)
        program = Program(pid="p", params=("row",), body=body)
        assert classify_shape(program, functions) == "branch-free"

    def test_bounded_loop(self, functions):
        rain = Call("monthly_rainfall", (Arg("row"), Var("i")))
        body = seq(
            Assign("s", IntConst(0)),
            Assign("i", IntConst(1)),
            While(
                Cmp("<=", Var("i"), IntConst(12)),
                seq(
                    Assign("s", BinOp("+", Var("s"), rain)),
                    Assign("i", BinOp("+", Var("i"), IntConst(1))),
                ),
            ),
            Notify("p", Cmp("<", IntConst(500), Var("s"))),
        )
        program = Program(pid="p", params=("row",), body=body)
        assert classify_shape(program, functions) == "bounded-loop"

    @staticmethod
    def _unbounded():
        body = seq(
            Assign("i", IntConst(0)),
            While(Cmp("<", Var("i"), _temp(1)), Assign("i", BinOp("+", Var("i"), IntConst(1)))),
            Notify("p", BoolConst(True)),
        )
        return Program(pid="p", params=("row",), body=body)

    def test_unbounded(self, functions):
        assert classify_shape(self._unbounded(), functions) == "unbounded"

    def test_unbounded_program_gets_no_kernel(self, functions):
        vectorized = vectorize_program(self._unbounded(), functions)
        assert vectorized.shape == "unbounded"
        assert vectorized.plan is None
        assert "unbounded" in vectorized.degraded_reason


@pytest.mark.parametrize("tag", SHAPES)
def test_every_tag_is_documented(tag):
    design = (Path(__file__).resolve().parent.parent / "DESIGN.md").read_text()
    section = design.split("## 10. Vectorizability classification", 1)[1].split("\n## ", 1)[0]
    assert f"`{tag}`" in section


def _rainfall_sum(pid: str) -> Program:
    """A cheap temperature test and a loop-carried twelve-month rainfall sum."""

    rain = Call("monthly_rainfall", (Arg("row"), Var("i")))
    body = seq(
        Assign("t", _temp(1)),
        Assign("s", IntConst(0)),
        Assign("i", IntConst(1)),
        While(
            Cmp("<=", Var("i"), IntConst(12)),
            seq(
                Assign("s", BinOp("+", Var("s"), rain)),
                Assign("i", BinOp("+", Var("i"), IntConst(1))),
            ),
        ),
        Notify(pid, Cmp("<", IntConst(500), BinOp("+", Var("s"), Var("t")))),
    )
    return Program(pid=pid, params=("row",), body=body)


@pytest.mark.parametrize("backend", ["interp", "compiled", "vectorized"])
def test_bounded_loop_batch_runs_alike_consolidated_or_not(backend):
    dataset = ds.generate_weather(cities=30)
    batch = [_rainfall_sum(f"q{i}") for i in range(3)]
    assert all(classify_shape(p, dataset.functions) == "bounded-loop" for p in batch)
    config = ExecutionConfig(backend=backend)
    many = run_where_many(dataset.rows, batch, dataset.functions, config=config)
    merged, _ = run_where_consolidated(dataset.rows, batch, dataset.functions, config=config)
    assert many.buckets == merged.buckets
    assert any(many.buckets.values())


@pytest.fixture(scope="module")
def domain_datasets():
    return {name: make() for name, make in _MAKERS.items()}


def test_expected_table_covers_every_family():
    for domain, module in DOMAIN_QUERIES.items():
        assert set(EXPECTED[domain]) == set(module.FAMILY_NAMES), domain
        assert set(EXPECTED[domain].values()) <= set(SHAPES), domain


@pytest.mark.parametrize("domain", sorted(EXPECTED))
def test_shape_tags_are_stable(domain, domain_datasets):
    dataset = domain_datasets[domain]
    module = DOMAIN_QUERIES[domain]
    for family, expected in EXPECTED[domain].items():
        batch = module.make_batch(dataset, family, n=3, seed=1)
        for program in batch:
            got = classify_shape(program, dataset.functions)
            assert got == expected, f"{domain}/{family}/{program.pid}: {got}"



@pytest.mark.parametrize("domain", sorted(EXPECTED))
def test_every_family_lowers_to_a_kernel(domain, domain_datasets):
    # No generated family is unbounded, so the kernel's lowering reads the
    # same tag and builds a batch kernel for every program.
    dataset = domain_datasets[domain]
    module = DOMAIN_QUERIES[domain]
    for family, expected in EXPECTED[domain].items():
        for program in module.make_batch(dataset, family, n=2, seed=1):
            vectorized = vectorize_program(program, dataset.functions)
            where = f"{domain}/{family}/{program.pid}"
            assert vectorized.shape == expected, where
            assert vectorized.plan is not None, (where, vectorized.degraded_reason)
            assert vectorized.degraded_reason == "", where
