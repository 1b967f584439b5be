"""One validation rule for every driver.

Every pair merge runs the notification half of the translation validator
(:func:`~repro.analysis.static.check_notifications`) as a gate, with no
option: a merged program that does not notify each pid exactly once is an
unsound rewrite, and the pair is kept unmerged with the refutation on its
record's ``skip_reason`` — in the batch driver, the incremental engine and
the registry alike.  The cost half never runs while merging: a record's
certificate is computed when it is first read, each program bounded once.
"""

import pytest

from repro.analysis.static import costbound, validate_consolidation
from repro.analysis.static.domains import IntervalConstDomain
from repro.consolidation import add_query, consolidate_all, remove_query
from repro.datasets import generate_weather
from repro.lang.ast import seq
from repro.queries import DOMAIN_QUERIES
from repro.service import QueryRegistry

from .helpers import shared_batch, unsound_merges


@pytest.fixture(scope="module")
def weather():
    return generate_weather(cities=20)


def loop_batch(dataset, n=4):
    """Weather Q4: yearly loops that share their test, so every pair merges."""

    return DOMAIN_QUERIES["weather"].make_batch(dataset, "Q4", n=n, seed=1)


def assert_refuted_and_kept_unmerged(records):
    assert records
    for record in records:
        assert not record.merged and not record.declined
        assert record.skip_reason.startswith("ConsolidationError: static validation refuted")
        assert "never exactly once" in record.skip_reason
        assert record.validation is None


class TestTheGateDegradesARefutedPair:
    def test_in_the_batch_driver(self, weather, monkeypatch):
        batch = shared_batch(4)
        with unsound_merges(monkeypatch):
            report = consolidate_all(batch, weather.functions)
        assert_refuted_and_kept_unmerged(report.pairs)
        assert len(report.skipped_pairs) == 3 and report.degraded
        assert report.validations == []

    def test_in_add_query_and_remove_query(self, weather, monkeypatch):
        batch = shared_batch(4)
        tree = consolidate_all(batch[:3], weather.functions, keep_tree=True).merge_tree
        with unsound_merges(monkeypatch):
            added = add_query(tree, batch[3], weather.functions)
            removed = remove_query(added.tree, "q0", weather.functions)
        assert_refuted_and_kept_unmerged(added.pairs)
        assert_refuted_and_kept_unmerged(removed.pairs)
        assert added.tree.program.body == seq(
            tree.program.body, added.tree.right.program.body
        )

    def test_in_the_registry_and_its_rebalance(self, weather, monkeypatch):
        registry = QueryRegistry(weather.functions)
        with unsound_merges(monkeypatch):
            for program in shared_batch(8):
                registry.register(program)
                patch = registry.last_patch
                if len(registry) > 1:
                    assert_refuted_and_kept_unmerged(patch.pairs)
                if patch.fallback is not None:
                    break
        assert patch.fallback.startswith("rebalance") and len(patch.pairs) > 1
        assert registry.stats["patch_fallbacks"] == registry.stats["pair_merges_total"] > 1
        last = registry.explain()["last_patch"]
        assert (last["certified"], last["validated"]) == (None, 0)


@pytest.fixture
def bound_calls(monkeypatch):
    """Every program ``costbound.program_cost_upper`` is asked to bound."""

    calls = []
    real = costbound.program_cost_upper

    def counting(program, *args, **kwargs):
        calls.append(program)
        return real(program, *args, **kwargs)

    monkeypatch.setattr(costbound, "program_cost_upper", counting)
    return calls


def certified_programs(tree, records):
    """The programs the merged records' certificates bound: each merged
    node's program and its two children's."""

    merged = {r.program.pid for r in records if r.merged}
    out, nodes = [], [tree]
    for node in nodes:
        if node.is_leaf:
            continue
        nodes.extend(c for c in (node.left, node.right) if c is not None)
        if node.program.pid in merged:
            out += [node.program, node.left.program, node.right.program]
    return {id(p): p for p in out}


class TestTheCostHalfRunsWhenRead:
    def test_no_bound_while_merging_in_any_driver(self, weather, bound_calls):
        report = consolidate_all(loop_batch(weather), weather.functions, keep_tree=True)
        patch = add_query(report.merge_tree, shared_batch(1)[0], weather.functions)
        remove_query(patch.tree, report.pairs[0].left, weather.functions)
        registry = QueryRegistry(weather.functions)
        for program in shared_batch(8):
            registry.register(program)
        registry.unregister("q0")
        assert report.pair_consolidations == 3 and registry.stats["pair_merges_total"] > 3
        assert bound_calls == []

    def test_reading_a_report_bounds_each_program_once(self, weather, bound_calls):
        report = consolidate_all(loop_batch(weather), weather.functions, keep_tree=True)
        assert all(r.merged for r in report.pairs)
        assert all(v.certified for v in report.validations)
        expected = certified_programs(report.merge_tree, report.pairs)
        assert len(bound_calls) == len(expected) == 7
        assert {id(p) for p in bound_calls} == expected.keys()
        # Kept on the records and the nodes: a second read bounds nothing.
        assert [v.to_dict() for v in report.validations]
        assert len(bound_calls) == 7

    def test_reading_a_patch_bounds_only_its_new_programs(self, weather, bound_calls):
        registry = QueryRegistry(weather.functions)
        for program in shared_batch(3):
            registry.register(program)
            assert registry.explain()["last_patch"]["certified"] is (len(registry) > 1 or None)
        # The second graft's left child is the first graft's merged program.
        assert len(bound_calls) == len({id(p) for p in bound_calls}) == 5

    def test_a_certificate_is_the_same_whenever_it_is_read(self, weather):
        batch = loop_batch(weather)
        early = consolidate_all(batch, weather.functions, keep_tree=True)
        node = early.merge_tree.left
        assert node.program.pid == early.pairs[0].program.pid
        expected = validate_consolidation(
            (node.left.program, node.right.program),
            node.program,
            weather.functions,
            invariants=True,
        )
        late = consolidate_all(batch, weather.functions)
        consolidate_all(shared_batch(4), weather.functions)  # other work in between
        assert late.pairs[0].validation.to_dict() == expected.to_dict()
        assert late.pairs[0].validation is late.pairs[0].validation


def test_a_loop_free_bound_computes_no_widening_thresholds(weather, monkeypatch):
    computed = []
    monkeypatch.setattr(
        IntervalConstDomain, "thresholds",
        property(lambda self: computed.append(self.program) or ()),
    )
    (program,) = shared_batch(1)
    assert costbound.program_cost_upper(program, weather.functions) is not None
    assert computed == []
    validate_consolidation([program], program, weather.functions)
    assert computed == []
