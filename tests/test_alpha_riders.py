"""One calculus run per α-class: copies ride on their representative.

Key claims under test:

* a generated batch with 1–3 injected α-copies (the same program under a
  new pid, every local renamed) notifies as ``whereMany`` and the
  interpreter do; the calculus runs exactly the copy-free batch's merges,
  so the UDF cost is at most the copy-free batch's plus one ``notify`` per
  copy per notification of its original; static validation certifies
  whenever it certifies the copy-free batch;
* the incremental engine adds a copy, removes a rider, hands a leaving
  representative's place to its rider, re-adds the removed id and removes
  the last member with zero pair merges and zero rebuilds, and after each
  step the plan's buckets equal a fresh rebuild's;
* the registry's ``explain()``, ``repro explain`` and ``repro figure9``
  show the riders: who rides on whom, and how many UDFs are distinct.
"""

import importlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.static import validate_consolidation
from repro.config import ServiceConfig
from repro.consolidation import PatchError, add_query, consolidate_all
from repro.datasets import generate_weather
from repro.experiments import render_figure9, run_figure9
from repro.lang import (
    BoolConst,
    Interpreter,
    Notify,
    Program,
    canonicalize,
    rename_pids,
    strip_notifies,
)
from repro.lang.ast import stmt_parts
from repro.lang.cost import DEFAULT_COST_MODEL
from repro.naiad import from_collection, run_where_consolidated, run_where_many
from repro.provenance import explain_batch, render_text
from repro.queries import DOMAIN_QUERIES
from repro.service import QueryRegistry
from repro.testing.generator import (
    ROW,
    SCHEMAS,
    alpha_copy,
    case_inputs,
    generate_case,
    schema_dataset,
)


def nonempty(buckets):
    return {pid: sorted(rows, key=repr) for pid, rows in buckets.items() if rows}


def interpreter_buckets(programs, functions, rows):
    interp = Interpreter(functions)
    out = {}
    for p in programs:
        out[p.pid] = [r for r in rows if interp.run(p, {ROW: r}).notifications.get(p.pid)]
    return nonempty(out)


def notifies(s):
    """Every ``notify`` statement of ``s``."""

    nested = [s]
    for st in nested:
        nested.extend(stmt_parts(st)[1])
    return [st for st in nested if isinstance(st, Notify)]


@given(
    seed=st.integers(0, 10_000),
    schema=st.sampled_from(sorted(SCHEMAS)),
    picks=st.lists(st.integers(0, 9), min_size=1, max_size=3),
)
@settings(max_examples=12)
def test_injected_copies_ride_and_agree(seed, schema, picks):
    programs = generate_case(seed, schema, 3)
    functions = schema_dataset(schema).functions
    rows = [args[ROW] for args in case_inputs(schema)]
    originals = [programs[i % len(programs)] for i in picks]
    # ``q0_c0`` sorts right after ``q0``: the copy-free batch's order of
    # representatives, hence its calculus plan, is kept.
    copies = [alpha_copy(p, f"{p.pid}_c{k}") for k, p in enumerate(originals)]
    batch = programs + copies

    base = consolidate_all(programs, functions)
    many = run_where_many(rows, batch, functions)
    cons, report = run_where_consolidated(rows, batch, functions)
    assert nonempty(cons.buckets) == nonempty(many.buckets)
    assert nonempty(cons.buckets) == interpreter_buckets(batch, functions, rows)
    by_pid = {p.pid: p for p in batch}
    for copy, original in zip(copies, originals):
        assert cons.buckets.get(copy.pid, []) == cons.buckets.get(original.pid, [])
        assert canonicalize(by_pid[report.riders[copy.pid]]) == canonicalize(copy)

    # The calculus ran the copy-free batch; the riders are extra notifies.
    assert report.pair_consolidations == base.pair_consolidations
    assert len(report.rides) == len(base.rides) + len(copies)
    assert strip_notifies(report.program.body, frozenset(c.pid for c in copies)) == (
        base.program.body
    )

    # Each copy pays what its representative's notify statements cost on
    # the copy-free plan: one notify per notification, plus the payload
    # when that is not a constant.
    def udf_cost(program, pids):
        run = from_collection(rows).where_consolidated(program, pids, functions).run()
        return run.metrics.udf_cost

    pids = [p.pid for p in programs]
    alone = udf_cost(base.program, pids)
    extra = 0
    for copy in copies:
        rep = report.riders[copy.pid]
        body = strip_notifies(base.program.body, frozenset({rep}))
        stripped = Program(base.program.pid, base.program.params, body)
        extra += alone - udf_cost(stripped, [p for p in pids if p != rep])
    assert cons.metrics.udf_cost == alone + extra
    if all(isinstance(n.expr, BoolConst) for n in notifies(base.program.body)):
        interp = Interpreter(functions)
        notifications = sum(
            copy.pid in interp.run(copy, {ROW: r}).notifications for copy in copies for r in rows
        )
        assert extra == DEFAULT_COST_MODEL.notify * notifications
    # Static validation certifies the copies whenever it certifies the
    # copy-free batch (its cost bounds are loose on some loops).
    validation = validate_consolidation(batch, report.program, functions)
    assert not validation.refuted
    assert validation.certified or not (
        validate_consolidation(programs, base.program, functions).certified
    )


def test_canonical_form_lives_in_the_language_layer():
    service_fingerprint = importlib.import_module("repro.service.fingerprint")
    assert service_fingerprint.canonicalize is canonicalize
    assert service_fingerprint.rename_pids is rename_pids


# ---------------------------------------------------------------------------
# the incremental script


@pytest.fixture
def pair():
    """Two distinct generated twitter programs and the schema's functions."""

    programs = generate_case(11, "twitter", 3)
    a, b = programs[0], programs[1]
    assert canonicalize(a) != canonicalize(b)
    return a, b, schema_dataset("twitter").functions


def test_incremental_script_takes_no_pair_merge(pair):
    a, b, functions = pair
    rows = [args[ROW] for args in case_inputs("twitter")]
    registry = QueryRegistry(functions, service=ServiceConfig(plan_cache_size=0))

    def step(op, program):
        if op == "add":
            registry.register(program)
        else:
            registry.unregister(program.pid)
        live = [q.program for q in registry.queries()]
        fresh = consolidate_all(live, functions)
        served = registry.run(rows)
        expected = from_collection(rows).where_consolidated(
            fresh.program, [p.pid for p in live], functions
        ).run()
        assert nonempty(served.buckets) == nonempty(expected.buckets), (op, program.pid)
        assert nonempty(served.buckets) == nonempty(
            run_where_many(rows, live, functions).buckets
        )
        return registry.last_patch

    a1, a2 = alpha_copy(a, "a1"), alpha_copy(a, "a2")
    for p in (a, b, a1):
        step("add", p)
    merges_so_far = registry.stats["pair_merges_total"]
    assert registry.explain()["riders"] == {"a1": a.pid}

    assert step("add", a2).rides  # a copy rides on the root
    assert registry.explain()["riders"] == {"a2": a.pid, "a1": a.pid}
    step("remove", a2)  # the rider leaves: its link drops out of the chain
    step("remove", a)  # the representative leaves: a1 takes its place
    assert registry.explain()["riders"] == {}
    assert step("add", a).rides  # the removed id is back, as a rider
    assert registry.explain()["riders"] == {a.pid: "a1"}
    step("remove", alpha_copy(a, "a1"))  # a takes a1's place again
    step("remove", a)  # the last member: its parent is the root
    assert registry.pids() == [b.pid]

    assert registry.stats["pair_merges_total"] == merges_so_far
    assert registry.stats["full_rebuilds"] == 0
    assert registry.stats["patch_fallbacks"] == 0


def ride_chain(tree):
    """The ride nodes above the calculus root, and that root."""

    links = []
    while tree.ride is not None:
        links.append(tree)
        tree = tree.left
    return links, tree


def test_a_graft_rides_the_chain_again_above_the_calculus_root(pair):
    a, b, functions = pair
    rows = [args[ROW] for args in case_inputs("twitter")]
    registry = QueryRegistry(functions, service=ServiceConfig(plan_cache_size=0))
    registry.register(a)
    registry.register(alpha_copy(a, "a1"))
    registry.register(b)
    patch = registry.last_patch
    assert (patch.pair_merges, len(patch.rides)) == (1, 1)
    links, root = ride_chain(registry.tree)
    assert [link.right.program.pid for link in links] == ["a1"]
    assert root.program.pid == f"{a.pid}&{b.pid}"
    assert root.leaf_pids() == [a.pid, b.pid]
    assert root.left.ride is None and root.right.ride is None
    served = registry.run(rows)
    assert nonempty(served.buckets) == nonempty(
        run_where_many(rows, [a, alpha_copy(a, "a1"), b], functions).buckets
    )
    # Removing ``b`` collapses the calculus back to ``a``; ``a1`` still rides.
    registry.unregister(b.pid)
    assert registry.last_patch.pair_merges == 0
    assert registry.tree.riders() == {"a1": a.pid}
    assert ride_chain(registry.tree)[1].program.pid == a.pid


def test_a_named_twin_must_be_an_alpha_copy(pair):
    a, b, functions = pair
    tree = add_query(None, a, functions).tree
    with pytest.raises(PatchError, match="not an α-copy"):
        add_query(tree, b, functions, twin=a.pid)
    patch = add_query(tree, alpha_copy(a, "a1"), functions, twin=a.pid)
    assert (patch.pair_merges, patch.tree.riders()) == (0, {"a1": a.pid})


def test_registry_explain_names_riders_and_survives_their_representative(pair):
    a, b, functions = pair
    registry = QueryRegistry(functions)
    registry.register(a)
    registry.register(b)
    registry.register(alpha_copy(a, "twin"))
    doc = registry.explain()
    assert doc["riders"] == {"twin": a.pid}
    assert doc["last_patch"]["pair_merges"] == 0 and doc["last_patch"]["rides"] == 1
    registry.unregister(a.pid)
    assert registry.explain()["riders"] == {}
    assert set(registry.tree.leaf_pids()) == {"twin", b.pid}
    assert registry.stats["full_rebuilds"] == 0


# ---------------------------------------------------------------------------
# riders made visible


def test_explain_names_the_rider_and_its_representative():
    dataset = generate_weather(cities=20)
    batch = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q3", n=8, seed=1)
    keys = [canonicalize(p) for p in batch]
    i, j = next((i, j) for i in range(8) for j in range(i + 1, 8) if keys[i] == keys[j])
    report = explain_batch(
        "weather", pair=(i, j), family="Q3", n=8, seed=1, rows=20, dataset=dataset
    )
    rider, representative = batch[j].pid, batch[i].pid
    assert report.riders == {rider: representative}
    # No calculus ran, so nothing was derived.
    assert report.derivations == []
    assert f"{rider} rides on {representative}" in render_text(report)
    assert report.to_dict()["riders"] == {rider: representative}
    # The pair costs one program plus the copy's notify on every row.
    assert report.udf_cost_consolidated == (
        report.udf_cost_many // 2 + report.rows * DEFAULT_COST_MODEL.notify
    )


def test_figure9_prints_wall_columns_and_distinct_udfs():
    report = run_figure9(n_udfs=6, scale=0.003, seed=2, domains=["stock"])
    for r in report.results:
        row = r.row()
        assert row["distinct"] == r.distinct_udfs <= r.n_udfs
        assert row["udf_speedup_wall"] == round(r.udf_speedup_wall, 2)
        assert row["total_speedup_wall"] == round(r.total_speedup_wall, 2)
    text = render_figure9(report)
    first = report.results[0]
    assert f"wall {first.udf_speedup_wall:6.2f}x" in text
    assert f"{first.distinct_udfs}/{first.n_udfs} distinct" in text
    agg = report.aggregates()
    assert f"Distinct UDFs : {agg['distinct_udfs']} of {agg['udfs']}" in text
