"""The derivation recorder and cost attribution (repro.provenance)."""

import importlib.util
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro.provenance.recorder as recorder_mod
import repro.provenance.render as render_mod
from repro.consolidation import add_query, consolidate_all, rebuild, remove_query
from repro.consolidation.algorithm import ConsolidationOptions, Consolidator
from repro.datasets import generate_weather
from repro.lang.cost import DEFAULT_COST_MODEL
from repro.provenance import (
    NULL_RECORDER,
    DerivationRecorder,
    attribute_costs,
)
from repro.lang.builder import add, lift, var
from repro.provenance.recorder import _strip_timings
from repro.provenance.render import MAX_TEXT, clamp, format_formula
from repro.queries import DOMAIN_QUERIES
from repro.service import QueryRegistry
from repro.smt.solver import Solver
from repro.smt.terms import TRUE_F, Num, Sym, fand, fnot, for_, le_f

from .helpers import shared_batch
from .test_smt_node_caches import formulas


@pytest.fixture(scope="module")
def weather():
    dataset = generate_weather(cities=12)
    # Seed 5: the first three queries share work, so their pairs merge.
    programs = DOMAIN_QUERIES["weather"].make_batch(dataset, "Mix", n=6, seed=5)
    return dataset, programs


class TestRecorderUnit:
    def test_scopes_nest_and_pop(self):
        rec = DerivationRecorder()
        rec.begin_pair("a", "b")
        with rec.rule("If5", "outer"):
            rec.leaf("Assign", "x := 1")
            with rec.rule("If3"):
                rec.entailment("entails", "psi", "q", True, 0.5, "smt")
            rec.rewrite("site", "x+0", "x", 3, 1)
        tree = rec.end_pair("a&b", 1.25)
        assert tree is rec.tree
        root = tree.root
        assert root.rule == "Ω"
        (if5,) = root.children
        assert [c.rule for c in if5.children] == ["Assign", "If3"]
        assert if5.children[1].entailments[0].verdict is True
        assert if5.rewrites[0].cost_delta == -2
        assert tree.rule_counts() == {"If5": 1, "Assign": 1, "If3": 1}
        assert tree.smt_seconds() == 0.5

    def test_events_outside_pair_are_dropped(self):
        rec = DerivationRecorder()
        rec.entailment("entails", "", "q", False, 0.0, "memo")
        rec.leaf("Assign")
        assert rec.end_pair("x", 0.0) is None
        assert rec.tree is None

    def test_to_dict_is_sparse_and_json_able(self):
        rec = DerivationRecorder()
        rec.begin_pair("a", "b")
        rec.leaf("Com")
        tree = rec.end_pair("a&b", 0.5)
        doc = tree.to_dict()
        json.dumps(doc)  # must be pure JSON types
        assert doc["root"]["children"] == [{"rule": "Com"}]
        assert doc["seconds"] == 0.5
        stripped = tree.to_dict(include_timings=False)
        assert stripped["seconds"] == 0.0

    def test_strip_timings_recurses(self):
        doc = {"seconds": 2.0, "inner": [{"seconds": 1.0, "keep": 7}]}
        assert _strip_timings(doc) == {
            "seconds": 0.0,
            "inner": [{"seconds": 0.0, "keep": 7}],
        }

    def test_recorder_renders_what_it_is_handed(self):
        """Producers pass expressions and formulas; text is the recorder's job."""

        rec = DerivationRecorder()
        rec.begin_pair("a", "b")
        x, psi = var("x"), le_f(Sym("m1"), Num(12))
        with rec.rule("If5", "if ({}) — test only", x):
            rec.leaf("Assign", "{} := {}", "x", add(x, 1))
            rec.entailment("equal", psi, ("{} = {}", x, lift(1)), True, 0.0, "memo")
            rec.entailment("loop2-iff", TRUE_F, psi, False, 0.0, "smt")
            rec.rewrite("assign-rhs", add(x, 0), x, 3, 1)
            rec.heuristic("embed-guard", "size {} > {}", False, 200, 160)
        (if5,) = rec.end_pair("a&b", 0.0).root.children
        assert if5.detail == "if (x) — test only"
        assert if5.children[0].detail == "x := x + 1"
        first, second = if5.entailments
        assert (first.psi, first.query) == ("m1 <= 12", "x = 1")
        assert (second.psi, second.query) == ("true", "m1 <= 12")
        assert (if5.rewrites[0].before, if5.rewrites[0].after) == ("x + 0", "x")
        assert if5.heuristics[0].detail == "size 200 > 160"

    def test_null_recorder_is_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.begin_pair("a", "b")
        with NULL_RECORDER.rule("If5"):
            NULL_RECORDER.leaf("Assign")
            NULL_RECORDER.entailment("entails", "", "q", True, 0.0, "smt")
        assert NULL_RECORDER.end_pair("x", 0.0) is None


class TestBoundedRendering:
    @given(formulas, st.integers(1, 80))
    def test_bounded_equals_clamp_of_the_full_rendering(self, f, limit):
        assert format_formula(f, limit) == clamp(format_formula(f), limit)

    def test_a_huge_context_costs_the_limit_not_its_size(self, monkeypatch):
        """A recorded Ψ is cut at MAX_TEXT characters; rendering must stop
        there too instead of walking all 5 000 conjuncts per event."""

        psi = fand(*(le_f(Sym(f"x{i}"), Num(i)) for i in range(5000)))
        expected = clamp(format_formula(psi))
        assert len(expected) == MAX_TEXT and expected.endswith("…")

        visited = []
        comparison = render_mod._comparison
        monkeypatch.setattr(
            render_mod, "_comparison", lambda t, op: visited.append(t) or comparison(t, op)
        )
        assert format_formula(psi, MAX_TEXT) == expected
        assert 0 < len(visited) <= MAX_TEXT

        del visited[:]
        rec = DerivationRecorder()
        rec.begin_pair("a", "b")
        rec.entailment("entails", psi, var("x"), False, 0.0, "smt")
        assert rec.end_pair("a&b", 0.0).root.entailments[0].psi == expected
        assert 0 < len(visited) <= MAX_TEXT

        # The budget reaches below the top level: one conjunct holding a
        # 3 000-way disjunction, and a negated 3 000-way conjunction.
        wide = [le_f(Sym(f"y{i}"), Num(i)) for i in range(3000)]
        for shape in (fand(le_f(Sym("a"), Num(0)), for_(*wide)), fnot(fand(*wide))):
            expected = clamp(format_formula(shape))
            assert len(expected) == MAX_TEXT
            del visited[:]
            assert format_formula(shape, MAX_TEXT) == expected
            assert 0 < len(visited) <= MAX_TEXT


class TestRecordedConsolidation:
    def test_derivations_land_on_report(self, weather):
        dataset, programs = weather
        report = consolidate_all(programs[:2], dataset.functions)
        assert len(report.derivations) == 1
        tree = report.derivations[0]
        assert tree.left == programs[0].pid and tree.right == programs[1].pid
        assert tree.merged == report.program.pid
        assert tree.seconds > 0
        counts = tree.rule_counts()
        assert counts, "at least one calculus rule must be recorded"
        # Every recorded rule is one the calculus actually has.
        known = {
            "Assign", "Step", "Com", "Seq", "If1", "If2", "If3", "If4", "If5",
            "Loop2", "Loop3", "LoopDrop",
        }
        assert set(counts) <= known, counts

    def test_entailments_have_contexts_and_sources(self, weather):
        dataset, programs = weather
        report = consolidate_all(programs[:2], dataset.functions)
        entailments = report.derivations[0].entailments()
        assert entailments
        assert {e.source for e in entailments} <= {
            "smt", "memo", "precheck", "syntactic"
        }
        smt = [e for e in entailments if e.source == "smt"]
        assert smt, "the Mix pair needs at least one real solver check"
        assert all(e.query for e in smt)
        assert all(e.seconds >= 0 for e in entailments)

    def test_one_tree_per_merged_pair_and_trees_pickle(self, weather):
        dataset, programs = weather
        report = consolidate_all(programs[:3], dataset.functions)
        assert len(report.derivations) == 2  # two pair merges for a batch of 3
        assert report.derivations[0] is report.pairs[0].derivation  # replayed once
        clones = pickle.loads(pickle.dumps(report.derivations))
        assert [t.merged for t in clones] == [t.merged for t in report.derivations]
        assert [t.to_dict() for t in clones] == [t.to_dict() for t in report.derivations]

    def test_recording_renders_nothing_until_read(self, weather, monkeypatch):
        """Events keep the nodes they were handed; text comes on first read."""

        def boom(*args, **kwargs):
            raise AssertionError("rendered while recording")

        monkeypatch.setattr(recorder_mod, "format_formula", boom)
        monkeypatch.setattr(recorder_mod, "format_expr", boom)
        dataset, programs = weather
        report = consolidate_all(programs[:2], dataset.functions)
        assert not report.degraded
        entailment = report.derivations[0].entailments()[0]
        monkeypatch.undo()

        held = entailment._psi
        assert not isinstance(held, str)
        assert entailment.psi == format_formula(held, MAX_TEXT)
        assert entailment._psi is entailment.psi  # rendered once, kept

    def test_a_read_touches_no_telemetry_of_the_merge(self, weather):
        from repro.config import ExecutionConfig
        from repro.telemetry import Telemetry

        dataset, programs = weather
        telemetry = Telemetry.capture(trace=True)
        config = ExecutionConfig(telemetry=telemetry)
        report = consolidate_all(programs[:3], dataset.functions, config=config)
        before = (telemetry.metrics.snapshot(), telemetry.tracer.to_dicts())
        assert report.derivations and report.validations
        assert (telemetry.metrics.snapshot(), telemetry.tracer.to_dicts()) == before

    def test_no_driver_builds_a_derivation_event_while_merging(self, weather, monkeypatch):
        """Merging records nothing, in any driver: not one recorder, rule
        node or event is built until a derivation is read."""

        def boom(*args, **kwargs):
            raise AssertionError("derivation object built while merging")

        for cls in (
            recorder_mod.DerivationRecorder,
            recorder_mod.DerivationTree,
            recorder_mod.RuleNode,
            recorder_mod.Entailment,
            recorder_mod.Rewrite,
            recorder_mod.Heuristic,
        ):
            monkeypatch.setattr(cls, "__init__", boom)
        dataset, _ = weather
        batch = shared_batch(8)
        report = consolidate_all(batch[:4], dataset.functions, keep_tree=True)
        added = add_query(report.merge_tree, batch[4], dataset.functions)
        removed = remove_query(added.tree, "q0", dataset.functions)
        _, rebuilt = rebuild(batch[:3], dataset.functions)
        registry = QueryRegistry(dataset.functions)
        for program in batch:
            registry.register(program)
        registry.unregister("q3")
        assert registry.stats["full_rebuilds"] >= 1
        assert registry.stats["incremental_patches"] >= 2
        patches = (report, added, removed, rebuilt, registry.last_patch)
        assert all(any(r.merged for r in p.pairs) for p in patches)
        monkeypatch.undo()

        for patch in patches:
            trees = patch.derivations
            assert len(trees) == sum(r.merged for r in patch.pairs) and trees
            assert all(tree.rule_counts() for tree in trees)


_spec = importlib.util.spec_from_file_location(
    "gen_golden_plans",
    Path(__file__).resolve().parent.parent / "tools" / "gen_golden_plans.py",
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("domain", sorted(golden.MIXED_FAMILY))
def test_a_replayed_tree_equals_one_recorded_inline(domain):
    """Each merged pair's derivation, replayed when read, is the tree a
    driver loop recording inline — one warm solver shared by its pairs, in
    plan order — builds for the same inputs."""

    programs, functions = golden.batches()[domain]
    report = consolidate_all(programs, functions, keep_tree=True)
    nodes, inputs = [report.merge_tree], {}
    for node in nodes:
        if not node.is_leaf:
            nodes.extend(c for c in (node.left, node.right) if c is not None)
            if node.ride is None:
                inputs[node.program.pid] = (node.left.program, node.right.program)
    merged = [r for r in report.pairs if r.merged]
    assert merged
    solver = Solver()
    for record in merged:
        recorder = DerivationRecorder()
        worker = Consolidator(
            functions, DEFAULT_COST_MODEL, ConsolidationOptions(), solver, recorder
        )
        assert worker.consolidate(*inputs[record.program.pid]) == record.program
        inline, replayed = recorder.tree, record.derivation
        assert replayed is not inline
        assert replayed.to_dict(include_timings=False) == inline.to_dict(include_timings=False)
        assert tuple(worker.trace) == record.rules


class TestAttribution:
    class _Stats:
        def __init__(self, records_in, udf_cost, seconds=0.01):
            self.records_in = records_in
            self.udf_cost = udf_cost
            self.seconds = seconds

    def test_flags(self):
        per_operator = {
            "whereMany[2]": self._Stats(100, 1000),     # observed 10
            "whereConsolidated[2]": self._Stats(100, 400),  # observed 4
            "loopy": self._Stats(100, 100),             # observed 1
            "input": self._Stats(100, 0),               # no prediction entry
        }
        predicted = {
            "whereMany[2]": 12,        # ratio 1.2 -> ok
            "whereConsolidated[2]": 2,  # ratio 0.5 -> bound violated
            "loopy": None,             # unbounded
        }
        out = {a.operator: a for a in attribute_costs(per_operator, predicted)}
        assert set(out) == {"whereMany[2]", "whereConsolidated[2]", "loopy"}
        assert out["whereMany[2]"].flag == "ok"
        assert out["whereMany[2]"].ratio == pytest.approx(1.2)
        assert out["whereConsolidated[2]"].flag == "bound-violated"
        assert out["whereConsolidated[2]"].mispredicted
        assert out["loopy"].flag == "unbounded"

    def test_loose_bound_threshold(self):
        per_operator = {"op": self._Stats(10, 10)}  # observed 1
        assert attribute_costs(per_operator, {"op": 4})[0].flag == "loose-bound"
        assert (
            attribute_costs(per_operator, {"op": 4}, loose_threshold=5.0)[0].flag
            == "ok"
        )

    def test_metrics_exported_on_live_telemetry(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        per_operator = {"op": self._Stats(10, 10)}
        attribute_costs(per_operator, {"op": 40}, telemetry=telemetry)
        snapshot = telemetry.metrics.snapshot()
        gauges = {g["name"]: g["value"] for g in snapshot["gauges"]}
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert gauges["provenance_attributed_operators"] == 1
        assert gauges["provenance_operator_cost_ratio"] == 40.0
        assert counters["provenance_mispredicted_operators_total"] == 1
