"""A local is named once: ``<leaf pid>/<source local>``, on the leaf's first merge.

Key claims under test:

* ``consolidate_all`` qualifies each leaf once and no merge renames a merged
  program again — eight qualifications for an eight-UDF batch, not two per
  pair merge;
* every local of every program in the merge tree is ``<leaf pid>/<local>``
  for a leaf that really has that local;
* so re-walking an already-merged program asks formulas the batch solver
  has already answered (its cache hits);
* the ``related`` probe order does not depend on how qualifiers spell
  (the weather Mix golden batch's root merge applies If 3 when its
  α-copy ``q7`` meets the calculus);
* a plan-cache hit moves the qualifiers with the pids, so a later
  registration reusing an old pid patches instead of rebuilding.
"""

import pytest

from repro.consolidation import ConsolidationOptions, add_query, consolidate_all
from repro.consolidation.algorithm import Consolidator
from repro.datasets import generate_twitter, generate_weather
from repro.lang import visitors
from repro.lang.ast import QUALIFIER
from repro.lang.cost import DEFAULT_COST_MODEL
from repro.lang.printer import program_to_str
from repro.lang.visitors import canonicalize, qualify_locals, stmt_vars
from repro.queries import DOMAIN_QUERIES
from repro.service import QueryRegistry
from repro.smt.solver import Solver


@pytest.fixture(scope="module")
def twitter_q2():
    """The ``scan`` workload's quick inputs: Twitter Q2, eight UDFs, family seed 0."""

    dataset = generate_twitter(tweets=400)
    return DOMAIN_QUERIES["twitter"].make_batch(dataset, "Q2", 8, 0), dataset.functions


def test_each_leaf_is_qualified_once_per_batch(monkeypatch):
    # Family seed 7 draws eight distinct UDFs: every leaf enters a pair
    # step (none rides), though some of those pairs are declined.
    dataset = generate_twitter(tweets=400)
    programs = DOMAIN_QUERIES["twitter"].make_batch(dataset, "Q2", 8, 7)
    functions = dataset.functions
    assert len({canonicalize(p) for p in programs}) == len(programs)
    assert all(stmt_vars(p.body) for p in programs)
    renames = []
    real = visitors.rename_vars
    monkeypatch.setattr(
        visitors, "rename_vars", lambda s, renaming: renames.append(renaming) or real(s, renaming)
    )
    report = consolidate_all(programs, functions)
    assert len(report.pairs) == 7 and report.rides == []
    # The α-grouping canonicalizes each leaf once (locals → _c0, _c1, …).
    canonical = [r for r in renames if r == {n: f"_c{i}" for i, n in enumerate(r)}]
    assert len(canonical) == len(programs)
    assert len(renames) - len(canonical) == len(programs)

    # A graft qualifies its one new leaf, and renames nothing else.
    tree = consolidate_all(programs[:7], functions, keep_tree=True).merge_tree
    renames.clear()
    patch = add_query(tree, programs[7], functions)
    assert patch.pair_merges == 1
    assert renames == [{n: f"{programs[7].pid}/{n}" for n in stmt_vars(programs[7].body)}]


def test_every_local_of_a_merged_program_is_leaf_qualified(twitter_q2):
    programs, functions = twitter_q2
    leaf_locals = {p.pid: stmt_vars(p.body) for p in programs}
    report = consolidate_all(programs, functions, keep_tree=True)
    nodes = [report.merge_tree]
    for node in nodes:
        nodes.extend(child for child in (node.left, node.right) if child is not None)
        for name in stmt_vars(node.program.body):
            pid, sep, local = name.partition(QUALIFIER)
            assert sep and local in leaf_locals[pid], name
    # A qualified local prints with a dot.
    assert "q1.t0 := sentiment_score(@row, 0);" in program_to_str(report.program)


def test_solver_cache_answers_the_rewalk_of_a_merged_program():
    # Family seed 1: the second level merges programs that share work (at
    # family seed 0 those pairs share none and are declined, so no merged
    # program is re-walked).
    dataset = generate_twitter(tweets=400)
    programs = DOMAIN_QUERIES["twitter"].make_batch(dataset, "Q2", 8, 1)
    report = consolidate_all(programs, dataset.functions)
    assert report.solver_stats["cache_hits"] > 0


def test_weather_mix_root_merge_applies_if3():
    """The golden weather Mix batch (clustered): with its α-copy ``q7``
    merged by the calculus, probing the six ``related`` pairs in name order
    alone picked If 4 at the root.  The driver now rides ``q7`` on ``q1``
    and declines its root pair, which shares no work; the calculus plan it
    replaced is rebuilt here pair by pair, by the calculus itself (the pair
    step would decline ``q2``/``q3`` and ``q6``/``q0``)."""

    dataset = generate_weather(cities=20)
    programs = DOMAIN_QUERIES["weather"].make_batch(dataset, "Mix", n=8, seed=3)
    report = consolidate_all(programs, dataset.functions)
    assert report.riders == {"q7": "q1"}
    assert report.pairs[-1].declined

    leaf = {p.pid: qualify_locals(p) for p in programs}
    solver = Solver()

    def merge(a, b):
        worker = Consolidator(dataset.functions, DEFAULT_COST_MODEL, ConsolidationOptions(), solver)
        worker.consolidate(a, b)
        return worker.record

    def quad(w, x, y, z):
        return merge(merge(leaf[w], leaf[x]).program, merge(leaf[y], leaf[z]).program).program

    root = merge(quad("q1", "q4", "q5", "q7"), quad("q2", "q3", "q6", "q0"))
    assert [r for r in root.rules if r.startswith("If")][0] == "If3"


def test_plan_cache_relabel_moves_the_qualifiers():
    dataset = generate_weather(cities=20)
    q0, q1, q2, q3 = DOMAIN_QUERIES["weather"].make_batch(dataset, "Q1", n=4, seed=3)

    def text(p, pid):
        return program_to_str(p).replace(p.pid, pid)

    registry = QueryRegistry(dataset.functions)
    for p, pid in ((q0, "a"), (q1, "b"), (q2, "x")):
        registry.register(text(p, pid))
    for pid in ("a", "b", "x"):
        registry.unregister(pid)
    for p, pid in ((q0, "c"), (q1, "d"), (q2, "y")):
        registry.register(text(p, pid))
    assert registry.stats["plan_cache_hits"] == 3
    registry.register(text(q3, "a"))
    assert registry.stats["full_rebuilds"] == 0
    live = set(registry.pids())
    assert live == {"a", "c", "d", "y"}
    for name in stmt_vars(registry.tree.program.body):
        assert name.partition(QUALIFIER)[0] in live, name
