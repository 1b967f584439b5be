"""The incremental re-consolidation equivalence suite.

The service's whole value rests on two claims, both tested here:

* **equivalence** — a plan maintained by incremental add/remove patches
  produces bucket-for-bucket identical notifications to (a) a full
  re-consolidation of the same membership and (b) the un-consolidated
  ``whereMany`` ground truth, across random registration orders drawn
  from the fuzz generator;
* **economy** — a single add/remove against a 50-query registry performs
  *strictly fewer* pair merges than the full re-consolidation would,
  asserted from provenance derivation records alone (one
  :class:`~repro.provenance.DerivationTree` per merge), with the merged
  program's cost never worse than the sequential composition (Theorem 1,
  which the paper guarantees only against the *sequential* baseline).

Failure handling is load-bearing too: a patch merges under the batch
driver's rules, so a fault injected at its ``consolidate.pair`` seam —
during a root graft, a path re-merge or a rebalance rebuild — keeps the
pair unmerged with the reason on its record, and the plan still notifies
as ``whereMany`` does.  And the registry must stay coherent under
concurrent register/unregister callers.
"""

import threading

import pytest

from repro.consolidation import divide_conquer
from repro.lang.ast import seq
from repro.consolidation.incremental import add_query, rebuild, remove_query
from repro.naiad import from_collection, run_where_many
from repro.queries import DOMAIN_QUERIES
from repro.service import QueryRegistry
from repro.testing.faults import fault_hook
from repro.testing.generator import case_inputs, generate_case, schema_dataset

from .helpers import shared_batch


@pytest.fixture(scope="module")
def weather():
    return schema_dataset("weather")


def weather_batch(dataset, n, family="Q1", seed=3):
    return DOMAIN_QUERIES["weather"].make_batch(dataset, family, n=n, seed=seed)


def buckets_of(result):
    """Notification buckets normalised for comparison (empty pids drop)."""

    return {pid: rows for pid, rows in result.buckets.items() if rows}


def run_tree(tree, pids, functions, rows):
    """Execute an already-consolidated merge tree (no re-consolidation)."""

    query = from_collection(rows).where_consolidated(
        tree.program, list(pids), functions
    )
    return query.run()


# ---------------------------------------------------------------------------
# equivalence across maintenance strategies


def test_incremental_adds_match_full_and_sequential(weather):
    programs = weather_batch(weather, n=6)
    rows = weather.rows[:60]

    tree = None
    for program in programs:
        tree = add_query(tree, program, weather.functions).tree
    full, _ = rebuild(programs, weather.functions)
    pids = [p.pid for p in programs]

    incremental = run_tree(tree, pids, weather.functions, rows)
    rebuilt = run_tree(full, pids, weather.functions, rows)
    ground_truth = run_where_many(rows, programs, weather.functions)

    assert buckets_of(incremental) == buckets_of(ground_truth)
    assert buckets_of(rebuilt) == buckets_of(ground_truth)
    # Theorem 1: the incrementally-maintained plan's UDF cost is never
    # worse than the sequential (whereMany) composition's.
    assert incremental.metrics.udf_cost <= ground_truth.metrics.udf_cost


def test_incremental_remove_matches_full(weather):
    programs = weather_batch(weather, n=7, family="Q2")
    rows = weather.rows[:60]
    tree, _ = rebuild(programs, weather.functions)

    removed = programs[3]
    remaining = [p for p in programs if p.pid != removed.pid]
    patched = remove_query(tree, removed.pid, weather.functions)
    full, _ = rebuild(remaining, weather.functions)
    pids = [p.pid for p in remaining]

    assert sorted(patched.tree.leaf_pids()) == sorted(pids)
    assert buckets_of(run_tree(patched.tree, pids, weather.functions, rows)) == (
        buckets_of(run_tree(full, pids, weather.functions, rows))
    )
    assert buckets_of(run_tree(patched.tree, pids, weather.functions, rows)) == (
        buckets_of(run_where_many(rows, remaining, weather.functions))
    )


@pytest.mark.parametrize("schema,seed", [("weather", 11), ("stock", 23), ("news", 5)])
def test_random_registration_orders_equivalent(schema, seed):
    """Fuzz-generated batches, registered in generator order, stay sound.

    The generator is free to emit programs the linter (rightly) rejects —
    admission is part of the surface under test, so rejected programs are
    simply skipped and equivalence is checked over the admitted subset.
    """

    from repro.service import AdmissionError

    programs = generate_case(seed, schema, size=2, n_programs=6)
    dataset = schema_dataset(schema)
    rows = [binding["row"] for binding in case_inputs(schema, limit=6)]

    registry = QueryRegistry(dataset.functions)
    admitted = []
    for program in programs:
        try:
            registry.register(program)
        except AdmissionError:
            continue
        admitted.append(program)
    assert len(admitted) >= 2, "seed produced too few admissible programs"

    ground_truth = run_where_many(rows, admitted, dataset.functions)
    assert buckets_of(registry.run(rows)) == buckets_of(ground_truth)

    # Remove one mid-membership query and re-check.
    registry.unregister(admitted[1].pid)
    remaining = [p for p in admitted if p.pid != admitted[1].pid]
    assert buckets_of(registry.run(rows)) == buckets_of(
        run_where_many(rows, remaining, dataset.functions)
    )


# ---------------------------------------------------------------------------
# the acceptance bar: strictly fewer merges than full, from provenance


@pytest.mark.slow
def test_single_patch_beats_full_reconsolidation_on_50_queries(weather):
    programs = weather_batch(weather, n=50, family="Mix", seed=7)
    tree, full_report = rebuild(programs, weather.functions)
    # One provenance derivation per calculus merge is the counting
    # instrument.  18 of the 50 are α-copies: they ride on their
    # representatives, so the batch pairs the 32 distinct UDFs 31 times;
    # 7 of those pairs share no work and are declined, with no derivation.
    assert len(full_report.pairs) == 31 and len(full_report.declined) == 7
    assert len(full_report.derivations) == full_report.pair_consolidations == 31 - 7
    assert len(full_report.rides) == 18

    extra = weather_batch(weather, n=51, family="Q1", seed=7)[50]
    added = add_query(tree, extra, weather.functions)
    assert len(added.derivations) == added.pair_merges
    assert len(added.derivations) < len(full_report.derivations)
    assert added.pair_merges == 1

    removed = remove_query(added.tree, programs[17].pid, weather.functions)
    assert len(removed.derivations) == removed.pair_merges
    assert len(removed.derivations) < len(full_report.derivations)
    # Removal re-merges only the leaf's root path: ~log2(n), not n-1.
    assert removed.pair_merges <= added.tree.depth()

    # The patched plans notify identically to ground truth.
    rows = weather.rows[:40]
    with_extra = programs + [extra]
    assert buckets_of(
        run_tree(added.tree, [p.pid for p in with_extra], weather.functions, rows)
    ) == buckets_of(run_where_many(rows, with_extra, weather.functions))
    after_removal = [p for p in with_extra if p.pid != programs[17].pid]
    patched_run = run_tree(
        removed.tree, [p.pid for p in after_removal], weather.functions, rows
    )
    sequential_run = run_where_many(rows, after_removal, weather.functions)
    assert buckets_of(patched_run) == buckets_of(sequential_run)
    # Theorem 1 cost bound for the patched plan.
    assert patched_run.metrics.udf_cost <= sequential_run.metrics.udf_cost


# ---------------------------------------------------------------------------
# failure: a faulted pair is kept unmerged, and the plan stays sound


def explode(site, payload):
    if site == "consolidate.pair":
        raise RuntimeError("injected pair fault")


def test_patch_fault_keeps_the_pair_unmerged(weather):
    programs = shared_batch(4)
    tree, _ = rebuild(programs[:3], weather.functions)
    programs, extra = programs[:3], programs[3]

    with fault_hook(divide_conquer, explode):
        patch = add_query(tree, extra, weather.functions)

    (pair,) = patch.pairs
    assert not pair.merged and "injected pair fault" in pair.skip_reason
    assert patch.tree.program.body == seq(tree.program.body, patch.tree.right.program.body)
    rows = weather.rows[:40]
    pids = [p.pid for p in programs + [extra]]
    assert buckets_of(run_tree(patch.tree, pids, weather.functions, rows)) == buckets_of(
        run_where_many(rows, programs + [extra], weather.functions)
    )


def _graft(registry, programs):
    for program in programs[:3]:
        registry.register(program)
    with fault_hook(divide_conquer, explode):
        registry.register(programs[3])
    return programs[:4]


def _path_remerge(registry, programs):
    for program in programs[:4]:
        registry.register(program)
    with fault_hook(divide_conquer, explode):
        registry.unregister(programs[1].pid)
    return [programs[0], *programs[2:4]]


def _rebalance(registry, programs):
    for program in programs[:7]:
        registry.register(program)
    with fault_hook(divide_conquer, explode):
        registry.register(programs[7])
    assert registry.last_patch.fallback.startswith("rebalance")
    return programs


@pytest.mark.parametrize("mutate", [_graft, _path_remerge, _rebalance])
def test_registry_keeps_faulted_pairs_unmerged(weather, mutate):
    # The batch has no α-copy, so the eighth graft is the one that trips
    # the depth bound (8 > 2 · ⌈log₂ 8⌉ + 1).
    programs = shared_batch(8)
    registry = QueryRegistry(weather.functions)
    live = mutate(registry, programs)

    patch = registry.last_patch
    assert patch.pairs
    for pair in patch.pairs:
        assert not pair.merged and "injected pair fault" in pair.skip_reason
    assert registry.stats["patch_fallbacks"] == len(patch.pairs)
    rows = weather.rows[:40]
    assert buckets_of(registry.run(rows)) == buckets_of(
        run_where_many(rows, live, weather.functions)
    )


def test_registry_keeps_serving_after_a_faulted_pair(weather):
    # A pair kept unmerged is an ordinary node of the tree: later patches
    # graft above it and re-merge the path through it without a fault.
    programs = shared_batch(6)
    registry = QueryRegistry(weather.functions)
    live = _graft(registry, programs)
    assert registry.stats["patch_fallbacks"] == 1

    registry.register(programs[4])
    assert registry.last_patch.pairs
    assert all(pair.merged for pair in registry.last_patch.pairs)
    registry.unregister(programs[3].pid)
    assert registry.last_patch.pairs
    assert all(pair.merged for pair in registry.last_patch.pairs)
    live = [*live[:3], programs[4]]

    assert registry.stats["patch_fallbacks"] == 1
    assert registry.stats["full_rebuilds"] == 0
    rows = weather.rows[:40]
    assert buckets_of(registry.run(rows)) == buckets_of(
        run_where_many(rows, live, weather.functions)
    )


def test_remove_unknown_leaf_raises(weather):
    tree, _ = rebuild(weather_batch(weather, n=3), weather.functions)
    with pytest.raises(ValueError, match="not a leaf"):
        remove_query(tree, "ghost", weather.functions)


# ---------------------------------------------------------------------------
# concurrency: the registry serialises mutations, state stays coherent


def test_concurrent_register_unregister_stress(weather):
    programs = weather_batch(weather, n=12, family="Q2", seed=9)
    registry = QueryRegistry(weather.functions)
    errors: list[BaseException] = []
    barrier = threading.Barrier(4)

    def churn(worker: int) -> None:
        try:
            barrier.wait()
            for program in programs[worker * 3 : worker * 3 + 3]:
                registry.register(program)
            # Each worker removes one of its own registrations.
            registry.unregister(programs[worker * 3].pid)
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert len(registry) == 8
    survivors = sorted(registry.pids())
    assert sorted(registry.tree.leaf_pids()) == survivors
    rows = weather.rows[:40]
    remaining = [p for p in programs if p.pid in set(survivors)]
    assert buckets_of(registry.run(rows)) == buckets_of(
        run_where_many(rows, remaining, weather.functions)
    )
