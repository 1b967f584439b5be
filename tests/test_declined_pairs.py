"""The pair step declines pairs that share no work.

``merge_pair`` composes two programs sequentially, without building a
``Consolidator``, when they share no call signature, no comparison subject
and no loop test.  ``consolidate_all``, the incremental engine and the
registry's rebuild all go through that one step, so one rule governs them.
"""

import pytest

from repro.config import ExecutionConfig
from repro.consolidation import (
    ConsolidationOptions,
    add_query,
    consolidate_all,
    divide_conquer,
    merge_pair,
    rebuild,
)
from repro.datasets import generate_weather
from repro.lang.ast import seq
from repro.lang.cost import DEFAULT_COST_MODEL
from repro.lang.parser import parse_program
from repro.lang.visitors import qualify_locals
from repro.naiad import from_collection, run_where_many
from repro.queries import DOMAIN_QUERIES
from repro.smt.solver import Solver
from repro.telemetry import Telemetry
from repro.testing.faults import fault_hook

@pytest.fixture(scope="module")
def weather():
    return generate_weather(cities=12)


def threshold(pid, month, bound, accessor="monthly_avg_temp"):
    return parse_program(
        f"program {pid}(row) {{ t := {accessor}(@row, {month}); "
        f"if (t > {bound}) {{ notify {pid} true; }} else {{ notify {pid} false; }} }}"
    )


def yearly(pid, accessor, bound):
    """A Q3-shaped loop over the twelve months."""

    return parse_program(
        f"program {pid}(row) {{ s := 0; m := 1; "
        f"while (m <= 12) {{ s := s + {accessor}(@row, m); m := m + 1; }} "
        f"if (s > {bound}) {{ notify {pid} true; }} else {{ notify {pid} false; }} }}"
    )


def step(a, b, functions, **kwargs):
    return merge_pair(
        qualify_locals(a),
        qualify_locals(b),
        functions,
        DEFAULT_COST_MODEL,
        ConsolidationOptions(),
        Solver(),
        **kwargs,
    )


@pytest.fixture
def no_consolidator(monkeypatch):
    """Fail the test if the pair step builds a Consolidator."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Consolidator was built for a pair sharing no work")

    monkeypatch.setattr(divide_conquer, "Consolidator", refuse)


def test_a_disjoint_pair_is_declined_without_a_consolidator(weather, no_consolidator):
    a, b = threshold("qa", 7, 50), threshold("qb", 2, 80, "monthly_rainfall")
    telemetry = Telemetry.capture()
    record = step(a, b, weather.functions, telemetry=telemetry)
    assert (record.merged, record.skip_reason, record.declined) == (False, None, True)
    assert record.program.pid == "qa&qb"
    assert record.program.body == seq(qualify_locals(a).body, qualify_locals(b).body)
    assert (record.rules, record.derivation, record.validation) == ((), None, None)
    assert telemetry.metrics.counter("consolidation_declined_pairs_total").value == 1


def test_the_same_function_at_other_ground_arguments_shares_nothing(
    weather, no_consolidator
):
    record = step(threshold("qa", 7, 50), threshold("qb", 6, 20), weather.functions)
    assert record.declined


def test_a_pair_sharing_one_ground_call_merges(weather):
    a, b = threshold("qa", 7, 50), threshold("qb", 7, 80)
    record = step(a, b, weather.functions)
    assert record.merged and not record.declined and record.skip_reason is None
    assert record.rules
    # The shared call is computed once.
    assert str(record.program.body).count("monthly_avg_temp") == 1


def test_two_loops_with_the_same_test_and_disjoint_calls_merge(weather):
    a, b = yearly("qa", "monthly_avg_temp", 400), yearly("qb", "monthly_rainfall", 900)
    record = step(a, b, weather.functions)
    assert record.merged and not record.declined
    assert "Loop2" in record.rules  # fused, not sequenced


def test_loops_with_different_tests_and_disjoint_calls_are_declined(weather, no_consolidator):
    a = yearly("qa", "monthly_avg_temp", 400)
    b = parse_program(
        "program qb(row) { s := 0; m := 1; "
        "while (m <= 6) { s := s + monthly_rainfall(@row, m); m := m + 1; } "
        "if (s > 300) { notify qb true; } else { notify qb false; } }"
    )
    assert step(a, b, weather.functions).declined


def test_a_declined_pair_never_reaches_the_fault_hook(weather):
    seen = []
    with fault_hook(divide_conquer, lambda site, pair: seen.append(site)):
        declined = step(threshold("qa", 7, 50), threshold("qb", 6, 20), weather.functions)
        merged = step(threshold("qa", 7, 50), threshold("qb", 7, 20), weather.functions)
    assert declined.declined and merged.merged
    assert seen == ["consolidate.pair"]


def test_a_pair_the_calculus_would_refuse_is_skipped_not_declined(weather):
    # Nothing shared, but both notify qa: Ω refuses the pair, and so does
    # the decline path, so the failure is recorded.
    clash = parse_program(
        "program qb(row) { t := monthly_rainfall(@row, 2); notify qa (t > 80); }"
    )
    tree, _ = rebuild([threshold("qa", 7, 50)], weather.functions)
    patch = add_query(tree, clash, weather.functions)
    (record,) = patch.pairs
    assert not record.merged and not record.declined
    assert "share notification id" in record.skip_reason


def test_a_batch_declines_and_still_notifies_as_where_many(weather):
    programs = DOMAIN_QUERIES["weather"].make_batch(weather, "Mix", n=12, seed=2)
    telemetry = Telemetry.capture()
    config = ExecutionConfig(telemetry=telemetry)
    report = consolidate_all(programs, weather.functions, config=config)
    assert report.declined and not report.degraded
    assert report.skipped_pairs == []
    counter = telemetry.metrics.counter
    assert counter("consolidation_declined_pairs_total").value == len(report.declined)
    assert counter("consolidation_skipped_pairs_total").value == 0
    rows = list(weather.rows[:50])
    many = run_where_many(rows, programs, weather.functions)
    cons = (
        from_collection(rows)
        .where_consolidated(report.program, [p.pid for p in programs], weather.functions)
        .run()
    )
    assert cons.buckets == many.buckets
    assert cons.metrics.udf_cost <= many.metrics.udf_cost


def test_the_rule_holds_without_the_solver(weather):
    programs = [threshold("qa", 7, 50), threshold("qb", 7, 80), threshold("qc", 6, 20)]
    report = consolidate_all(
        programs, weather.functions, order="tree", options=ConsolidationOptions(use_smt=False)
    )
    assert report.solver_stats["checks"] == 0
    assert [r.declined for r in report.pairs] == [False, True]


def test_incremental_grafts_decline_by_the_same_rule(weather):
    tree, report = rebuild([threshold("qa", 7, 50), threshold("qb", 7, 80)], weather.functions)
    assert report.declined == []
    patch = add_query(tree, threshold("qc", 2, 10, "monthly_rainfall"), weather.functions)
    assert patch.declined == [("qa&qb", "qc")]
    assert (len(patch.pairs), patch.pair_merges, patch.derivations) == (1, 0, [])
    patch = add_query(patch.tree, threshold("qd", 7, 20), weather.functions)
    assert patch.declined == [] and patch.pair_merges == len(patch.derivations) == 1
