"""The service core: fingerprints, admission, plan cache, event log.

Key claims under test:

* canonical fingerprints mod out local names and pids (alpha-equivalent
  queries share one), but not semantics or cost model;
* admission rejects with SARIF diagnostics identical in shape to
  ``repro lint --format sarif``;
* re-registering an alpha-renamed batch hits the plan cache — *zero* new
  pair merges, verified by provenance-backed counters;
* the event log replays to byte-identical plan fingerprints, drops a torn
  final append and refuses corruption anywhere else;
* a spindly tree (adds graft at the root) trips the rebalance policy and
  the registry performs a recorded, validated full rebuild, never a
  silent one;
* the plan cache keeps the most recently used plans, and an evicted
  membership goes through the patch path again.
"""

import json

import pytest

from repro.config import ExecutionConfig
from repro.datasets import generate_weather
from repro.lang.cost import CostModel
from repro.lang.parser import parse_program
from repro.lang.printer import program_to_str
from repro.queries import DOMAIN_QUERIES
from repro.service import (
    AdmissionError,
    DuplicateQueryError,
    QueryRegistry,
    RegistryError,
    UnknownQueryError,
    admit,
    canonicalize,
    fingerprint,
    plan_key,
)
from repro.service.registry import PLAN_CACHE_SIZE, REBALANCE_FACTOR

from .helpers import shared_batch


@pytest.fixture(scope="module")
def weather():
    return generate_weather(cities=20)


def weather_batch(dataset, n=4, family="Q1", seed=3):
    return DOMAIN_QUERIES["weather"].make_batch(dataset, family, n=n, seed=seed)


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_ignores_local_names_and_pid():
    a = parse_program("program q1(row) { t := @row + 1; notify q1 (t > 10); }")
    b = parse_program("program zz(row) { speed := @row + 1; notify zz (speed > 10); }")
    assert fingerprint(a) == fingerprint(b)
    assert program_to_str(canonicalize(a)) == program_to_str(canonicalize(b))


def test_fingerprint_distinguishes_semantics():
    a = parse_program("program q1(row) { notify q1 (@row > 10); }")
    b = parse_program("program q1(row) { notify q1 (@row > 11); }")
    assert fingerprint(a) != fingerprint(b)


def test_fingerprint_depends_on_cost_model():
    a = parse_program("program q1(row) { notify q1 (@row > 10); }")
    assert fingerprint(a) != fingerprint(a, CostModel(cmp=99))


def test_plan_key_is_order_independent():
    fps = ["aa", "bb", "cc"]
    assert plan_key(fps) == plan_key(reversed(fps))
    assert plan_key(fps) != plan_key(fps[:2])


# ---------------------------------------------------------------------------
# admission


def test_admission_rejects_parse_error_with_sarif(weather):
    with pytest.raises(AdmissionError) as excinfo:
        admit("program broken(row) {", weather.functions)
    sarif = excinfo.value.diagnostics
    assert sarif["version"] == "2.1.0"
    results = sarif["runs"][0]["results"]
    assert any(r["ruleId"] == "parse-error" for r in results)


def test_admission_rejects_lint_error_with_sarif(weather):
    # `row` without @ is an unassigned local — the linter's use-before-def.
    with pytest.raises(AdmissionError) as excinfo:
        admit("program q(row) { notify q (row > 1); }", weather.functions)
    results = excinfo.value.diagnostics["runs"][0]["results"]
    assert any(r["ruleId"] == "use-before-def" for r in results)


def test_admission_rejects_a_dotted_pid_naming_the_collision(weather):
    source = "program q1.a(row) { notify q1.a (@row > 1); }"
    with pytest.raises(AdmissionError) as excinfo:
        admit(source, weather.functions)
    assert "query 'q1''s local 'a.x' and query 'q1.a''s local 'x'" in str(excinfo.value)
    results = excinfo.value.diagnostics["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["dotted-pid"]
    # The id a Python-source submission is given is checked the same way.
    with pytest.raises(AdmissionError):
        admit("def notify(row):\n    return row > 1\n", weather.functions, pid="t.q")
    # Library callers bypass admission; the consolidator keeps its own refusal.
    from repro.consolidation import ConsolidationError, Consolidator
    from repro.lang.parser import parse_program

    left = parse_program("program q1(row) { a.x := 1; notify q1 (a.x > @row); }")
    right = parse_program("program q1.a(row) { x := 2; notify q1.a (x > @row); }")
    with pytest.raises(ConsolidationError, match="share locals after renaming"):
        Consolidator(weather.functions).consolidate(left, right)


def test_admission_accepts_python_source(weather):
    decision = admit(
        "def notify(row):\n    return monthly_avg_temp(row, 3) > 50\n",
        weather.functions,
        pid="py1",
    )
    assert decision.program.pid == "py1"


def test_admission_warning_policy(weather):
    # A dead store lints as a warning: admitted by default, rejected
    # under the strict policy.
    source = "program w(row) { t := @row + 1; notify w (@row > 2); }"
    decision = admit(source, weather.functions)
    assert decision.warnings
    with pytest.raises(AdmissionError):
        admit(source, weather.functions, admit_warnings=False)


def test_admission_reports_a_type_error_once(weather):
    with pytest.raises(AdmissionError) as excinfo:
        admit("program q1(row) { x := 1 + true; notify q1 (x > 0); }", weather.functions)
    results = excinfo.value.diagnostics["runs"][0]["results"]
    assert [r["ruleId"] for r in results].count("type-error") == 1
    assert str(excinfo.value).count("type-error") == 1


# ---------------------------------------------------------------------------
# registry + plan cache


def test_register_patches_incrementally(weather):
    registry = QueryRegistry(weather.functions)
    for program in shared_batch(4):
        registry.register(program)
    assert len(registry) == 4
    # After the second registration every add is exactly one pair merge.
    assert registry.last_patch.action == "add"
    assert registry.last_patch.pair_merges == 1
    assert registry.stats["full_rebuilds"] == 0
    assert sorted(registry.tree.leaf_pids()) == sorted(registry.pids())


def test_duplicate_pid_rejected(weather):
    registry = QueryRegistry(weather.functions)
    program = weather_batch(weather, n=1)[0]
    registry.register(program)
    with pytest.raises(DuplicateQueryError):
        registry.register(program)
    assert len(registry) == 1


def test_mismatched_params_rejected(weather):
    registry = QueryRegistry(weather.functions)
    registry.register("program a(row) { notify a (@row > 1); }")
    with pytest.raises(RegistryError, match="consolidates over"):
        registry.register("program b(x, y) { notify b (@x > @y); }")


def test_unregister_unknown_pid(weather):
    registry = QueryRegistry(weather.functions)
    with pytest.raises(UnknownQueryError):
        registry.unregister("ghost")


def test_plan_cache_hit_on_alpha_renamed_reregistration(weather):
    batch = weather_batch(weather)
    registry = QueryRegistry(weather.functions)
    for program in batch:
        registry.register(program)
    plan_before = registry.plan()

    # Tear the whole registry down and re-register alpha-renamed twins in
    # a different order: every membership along the way was cached, so no
    # new pair merge may happen.
    for program in batch:
        registry.unregister(program.pid)
    assert registry.tree is None
    baseline_merges = registry.stats["pair_merges_total"]
    renamed = [
        parse_program(
            program_to_str(program).replace(program.pid, f"re_{program.pid}")
        )
        for program in reversed(batch)
    ]
    for program in renamed:
        registry.register(program)

    assert registry.stats["pair_merges_total"] == baseline_merges
    assert registry.stats["plan_cache_hits"] > 0
    plan_after = registry.plan()
    assert plan_after.fingerprint == plan_before.fingerprint
    assert sorted(plan_after.pids) == sorted(f"re_{p.pid}" for p in batch)
    # The relabelled plan actually notifies the new pids.
    result = registry.run(weather.rows[:30])
    assert set(result.buckets) <= set(plan_after.pids)


def test_last_patch_describes_a_plan_cache_hit(weather):
    # register ×3, unregister the middle query (a cache miss → "remove"
    # patch), re-register it (a cache hit).  The hit produced the live
    # tree, so it is what last_patch — and /v1/explain — must describe.
    registry = QueryRegistry(weather.functions)
    batch = shared_batch(3)
    for program in batch:
        registry.register(program)
    registry.unregister(batch[1].pid)
    assert registry.explain()["last_patch"]["action"] == "remove"
    assert registry.explain()["last_patch"]["pair_merges"] >= 1

    registry.register(batch[1])
    assert registry.stats["plan_cache_hits"] == 1
    last = registry.explain()["last_patch"]
    assert (last["action"], last["pair_merges"], last["fallback"]) == ("add", 0, None)
    assert registry.last_patch.tree is registry.tree

    # The remove path answers a hit the same way.
    registry.unregister(batch[1].pid)
    assert registry.stats["plan_cache_hits"] == 2
    last = registry.explain()["last_patch"]
    assert (last["action"], last["pair_merges"]) == ("remove", 0)
    # A hit merges nothing, so it validates nothing: not a vacuous "certified".
    assert (last["certified"], last["validated"]) == (None, 0)


def test_explain_certifies_every_merge_of_the_patch(weather):
    registry = QueryRegistry(weather.functions)
    for program in shared_batch(2):
        registry.register(program)
    last = registry.explain()["last_patch"]
    assert (last["pair_merges"], last["certified"], last["validated"]) == (1, True, 1)


def test_a_register_completes_while_an_explain_computes(weather, monkeypatch):
    """``explain()`` computes certificates and derivations after releasing
    the registry lock, so a mutation from another thread does not wait."""

    import threading

    import repro.provenance

    registry = QueryRegistry(weather.functions)
    batch = shared_batch(3)
    for program in batch[:2]:
        registry.register(program)
    registered = threading.Event()
    other = threading.Thread(target=lambda: (registry.register(batch[2]), registered.set()))
    summary = repro.provenance.derivation_summary

    def register_meanwhile(trees):
        trees = list(trees)  # the derivations replay here
        other.start()
        # Under the lock the register could only finish after explain.
        assert registered.wait(timeout=20), "register waited for explain"
        return summary(trees)

    monkeypatch.setattr(repro.provenance, "derivation_summary", register_meanwhile)
    try:
        doc = registry.explain()
    finally:
        other.join()
    assert doc["queries"] == 2 and doc["last_patch"]["derivations"]["pairs"] == 1
    assert len(registry) == 3


def register_until_rebalance(registry, programs):
    """Register ``programs`` in order up to the first rebalance, and return
    the stats from just before it.  Eight distinct queries grafted one by
    one make a spine of depth 8: past 2 · ⌈log₂ 8⌉ + 1 = 7."""

    for program in programs:
        before = dict(registry.stats)
        registry.register(program)
        if registry.last_patch.fallback is not None:
            return before
    raise AssertionError("no registration rebalanced")


def test_explain_certifies_a_validated_rebalance(weather):
    registry = QueryRegistry(weather.functions)
    register_until_rebalance(registry, shared_batch(8))
    last = registry.explain()["last_patch"]
    assert last["fallback"].startswith("rebalance") and last["pair_merges"] > 1
    assert last["validated"] == last["pair_merges"] >= 1
    assert last["certified"] is all(v.certified for v in registry.last_patch.validations)


def test_plan_cache_evicts_the_least_recently_used_plan(weather):
    # One-query memberships are plans that cost no pair merge.
    registry = QueryRegistry(weather.functions)
    programs = [
        parse_program(f"program c{i}(row) {{ notify c{i} (@row > {i}); }}")
        for i in range(PLAN_CACHE_SIZE + 1)
    ]
    for program in programs:
        registry.register(program)
        registry.unregister(program.pid)
    assert registry.explain()["cache"]["size"] == PLAN_CACHE_SIZE
    assert registry.stats["plan_cache_hits"] == 0

    registry.register(programs[-1])  # still cached
    assert registry.stats["plan_cache_hits"] == 1
    registry.unregister(programs[-1].pid)
    misses = registry.stats["plan_cache_misses"]
    registry.register(programs[0])  # evicted: the patch path builds it again
    assert registry.stats["plan_cache_hits"] == 1
    assert registry.stats["plan_cache_misses"] == misses + 1
    assert registry.last_patch.tree is registry.tree
    assert registry.tree.leaf_pids() == [programs[0].pid]


def test_rebalance_triggers_recorded_rebuild(weather):
    # The root-grafted spine outgrows the balanced depth: the rebuild must
    # be recorded, not silent.
    registry = QueryRegistry(weather.functions)
    for program in weather_batch(weather, n=8):
        registry.register(program)
    assert registry.stats["full_rebuilds"] == 1
    assert registry.stats["patch_fallbacks"] == 0  # no pair was kept unmerged
    assert registry.last_patch.fallback.startswith("rebalance: depth 8 exceeded")
    assert registry.tree.depth() <= REBALANCE_FACTOR * 3 + 1


def test_rebalancing_register_merges_once(weather):
    # The depth of a root graft is known before merging: the registration
    # that trips the bound pays the rebuild's n - 1 merges, not a graft the
    # rebuild then throws away.
    registry = QueryRegistry(weather.functions)
    before = register_until_rebalance(registry, shared_batch(8))
    patch = registry.last_patch
    assert patch.fallback.startswith("rebalance: depth 8 exceeded")
    n = len(registry)
    assert registry.stats["pair_merges_total"] - before["pair_merges_total"] == n - 1
    assert registry.stats["incremental_patches"] == before["incremental_patches"]
    assert registry.stats["full_rebuilds"] == before["full_rebuilds"] + 1
    assert patch.pair_merges == len(patch.pairs) == n - 1
    assert patch.patched_pids == [registry.tree.program.pid]


def test_explain_shape(weather):
    registry = QueryRegistry(weather.functions)
    for program in shared_batch(3):
        registry.register(program)
    doc = registry.explain()
    assert doc["queries"] == 3
    assert doc["tree"] is not None
    assert doc["last_patch"]["action"] == "add"
    assert doc["last_patch"]["pair_merges"] == 1
    assert doc["last_patch"]["declined"] == []
    assert doc["last_patch"]["derivations"]["pairs"] == 1
    assert doc["last_patch"]["derivations"]["rules"]
    assert doc["cache"]["misses"] >= 1


def test_explain_names_a_declined_graft(weather):
    # q0 reads monthly_avg_temp(@row, 7) and q1 (@row, 6): nothing shared.
    registry = QueryRegistry(weather.functions)
    q0, q1 = weather_batch(weather, n=2)
    registry.register(q0)
    registry.register(q1)
    last = registry.explain()["last_patch"]
    assert last["pair_merges"] == 0 and last["declined"] == [["q0", "q1"]]
    assert (last["certified"], last["validated"], last["derivations"]["pairs"]) == (None, 0, 0)
    assert registry.stats["patch_fallbacks"] == 0
    assert registry.stats["pair_merges_total"] == 0
    assert registry.stats["incremental_patches"] == 1  # the graft is still a patch


def test_a_rebalance_with_declines_validates_every_merge(weather):
    # weather_batch mixes months: the rebuild declines some pairs and
    # merges others, and only the merges are counted, validated and derived.
    registry = QueryRegistry(weather.functions)
    before = register_until_rebalance(registry, weather_batch(weather, n=8))
    patch, last = registry.last_patch, registry.explain()["last_patch"]
    assert last["fallback"].startswith("rebalance")
    assert last["declined"] and last["pair_merges"] >= 1
    assert len(patch.pairs) == len(registry) - 1
    assert last["pair_merges"] == len(patch.pairs) - len(last["declined"])
    assert last["validated"] == last["derivations"]["pairs"] == last["pair_merges"]
    assert last["certified"] is True
    merged = registry.stats["pair_merges_total"] - before["pair_merges_total"]
    assert merged == last["pair_merges"]


# ---------------------------------------------------------------------------
# event log


def test_event_log_replay_restores_identical_fingerprints(tmp_path, weather):
    log = tmp_path / "events.jsonl"
    registry = QueryRegistry(weather.functions, event_log=str(log))
    batch = weather_batch(weather, n=5)
    for program in batch:
        registry.register(program)
    registry.unregister(batch[1].pid)
    plan = registry.plan()
    entries = {q.pid: q.fingerprint for q in registry.queries()}

    replayed = QueryRegistry(weather.functions, event_log=str(log))
    assert {q.pid: q.fingerprint for q in replayed.queries()} == entries
    assert replayed.plan().fingerprint == plan.fingerprint
    assert replayed.plan().pids == plan.pids


def test_event_log_survives_multiple_generations(tmp_path, weather):
    log = tmp_path / "events.jsonl"
    first = QueryRegistry(weather.functions, event_log=str(log))
    first.register("program g1(row) { notify g1 (@row > 5); }")

    second = QueryRegistry(weather.functions, event_log=str(log))
    second.register("program g2(row) { notify g2 (@row > 50); }")

    third = QueryRegistry(weather.functions, event_log=str(log))
    assert sorted(third.pids()) == ["g1", "g2"]
    assert third.plan().fingerprint == second.plan().fingerprint


TORN_APPEND = '{"seq": 4, "op": "regis'


def _journal_three(log, weather):
    registry = QueryRegistry(weather.functions, event_log=str(log))
    for program in weather_batch(weather, n=3):
        registry.register(program)
    return {q.pid: q.fingerprint for q in registry.queries()}, registry.plan().fingerprint


def test_event_log_drops_a_torn_final_append(tmp_path, weather):
    log = tmp_path / "events.jsonl"
    entries, plan = _journal_three(log, weather)
    acknowledged = log.read_bytes()
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(TORN_APPEND)

    replayed = QueryRegistry(weather.functions, event_log=str(log))
    assert {q.pid: q.fingerprint for q in replayed.queries()} == entries
    assert replayed.plan().fingerprint == plan
    assert log.read_bytes() == acknowledged


def test_event_log_appends_cleanly_after_a_torn_tail(tmp_path, weather):
    log = tmp_path / "events.jsonl"
    entries, _ = _journal_three(log, weather)
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(TORN_APPEND)

    second = QueryRegistry(weather.functions, event_log=str(log))
    second.register("program g9(row) { notify g9 (@row > 5); }")
    third = QueryRegistry(weather.functions, event_log=str(log))
    assert sorted(third.pids()) == sorted([*entries, "g9"])
    assert third.plan().fingerprint == second.plan().fingerprint
    lines = log.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["seq"] for line in lines] == [1, 2, 3, 4]


def test_event_log_refuses_corruption_before_the_tail(tmp_path, weather):
    log = tmp_path / "events.jsonl"
    _journal_three(log, weather)
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1][:20] + "\n"
    log.write_text("".join(lines), encoding="utf-8")

    with pytest.raises(RegistryError, match="line 2"):
        QueryRegistry(weather.functions, event_log=str(log))


def test_admission_failure_leaves_no_state(tmp_path, weather):
    log = tmp_path / "events.jsonl"
    registry = QueryRegistry(weather.functions, event_log=str(log))
    with pytest.raises(AdmissionError):
        registry.register("program bad(row) { notify bad (oops > 1); }")
    assert len(registry) == 0
    assert registry.stats["admission_rejects_total"] == 1
    # Nothing journalled → a replay starts empty.
    assert len(QueryRegistry(weather.functions, event_log=str(log))) == 0


def test_telemetry_counters_flow(weather):
    from repro.telemetry import Telemetry

    telemetry = Telemetry.capture()
    registry = QueryRegistry(
        weather.functions, config=ExecutionConfig(telemetry=telemetry)
    )
    for program in weather_batch(weather, n=3):
        registry.register(program)
    snapshot = telemetry.snapshot()["metrics"]
    names = {counter["name"] for counter in snapshot["counters"]}
    assert "service_registered_total" in names
    assert "service_incremental_patches_total" in names
    assert "service_pair_merges_total" in names
