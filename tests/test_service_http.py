"""The HTTP transport: server routes, typed client, restart replay.

The promise under test: the wire changes *nothing*.  The client returns
typed result objects, raises the same exception classes (with the same
SARIF diagnostics) the in-process facade raises, and a server restarted
over its event log serves byte-identical plan fingerprints.  The stress
test hammers one server with concurrent register/unregister clients and
checks the registry never desynchronises from its merge tree.
"""

import threading

import pytest

from repro.config import ServiceConfig
from repro.datasets import generate_weather
from repro.lang.printer import program_to_str
from repro.queries import DOMAIN_QUERIES
from repro.service import (
    AdmissionError,
    Client,
    DuplicateQueryError,
    HealthInfo,
    PlanInfo,
    QueryRegistry,
    RegisterResult,
    RunInfo,
    ServiceError,
    UnknownQueryError,
    serve,
)
from repro.testing.generator import alpha_copy

from .helpers import shared_batch


@pytest.fixture(scope="module")
def weather():
    return generate_weather(cities=20)


@pytest.fixture()
def server(weather):
    instance = serve(weather.functions, service=ServiceConfig(port=0))
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture()
def client(server):
    return Client(port=server.port)


def weather_sources(dataset, n=4, family="Q1", seed=3):
    batch = DOMAIN_QUERIES["weather"].make_batch(dataset, family, n=n, seed=seed)
    return [program_to_str(p) for p in batch], [p.pid for p in batch]


def shared_sources(n):
    """Sources of ``n`` queries whose every pair shares work, so each
    registration after the first merges."""

    batch = shared_batch(n)
    return [program_to_str(p) for p in batch], [p.pid for p in batch]


# ---------------------------------------------------------------------------
# typed results


def test_health_and_register_return_typed_objects(client, weather):
    health = client.health()
    assert isinstance(health, HealthInfo)
    assert health.status == "ok"

    sources, pids = shared_sources(2)
    result = client.register(sources[0], tenant="acme")
    assert isinstance(result, RegisterResult)
    assert result.query.pid == pids[0]
    assert result.query.tenant == "acme"
    assert len(result.query.fingerprint) == 16
    assert isinstance(result.plan, PlanInfo)
    assert result.plan.pids == (pids[0],)
    assert result.patch.action == "add"
    assert result.patch.pair_merges == 0  # first leaf needs no merge

    second = client.register(sources[1])
    assert second.patch.pair_merges == 1
    assert client.plan().queries == 2
    assert sorted(client.plan().pids) == sorted(pids[:2])


def test_run_returns_buckets_and_costs(client, weather):
    sources, pids = shared_sources(3)
    for source in sources:
        client.register(source)
    result = client.run(list(weather.rows[:40]))
    assert isinstance(result, RunInfo)
    assert set(result.buckets) <= set(pids)
    assert result.udf_cost > 0
    assert result.total_cost >= result.udf_cost
    doc = client.explain()
    assert doc["queries"] == 3
    assert doc["last_patch"]["pair_merges"] == 1


def test_explain_names_riders_over_the_wire(client, weather):
    batch = DOMAIN_QUERIES["weather"].make_batch(weather, "Q1", n=2, seed=3)
    for program in batch:
        client.register(program_to_str(program))
    twin = alpha_copy(batch[0], "twin")
    assert client.register(program_to_str(twin)).patch.pair_merges == 0
    assert client.explain()["riders"] == {"twin": batch[0].pid}
    buckets = client.run(list(weather.rows[:40])).buckets
    assert buckets.get("twin", []) == buckets.get(batch[0].pid, [])


def test_python_source_registration(client):
    result = client.register(
        "def notify(row):\n    return monthly_avg_temp(row, 2) > 60\n"
    )
    assert result.query.pid  # translated with a generated pid
    assert client.health().queries == 1


# ---------------------------------------------------------------------------
# exception mapping: same types as the in-process facade


def test_admission_error_crosses_the_wire_with_sarif(client):
    with pytest.raises(AdmissionError) as excinfo:
        client.register("program bad(row) { notify bad (mystery > 3); }")
    assert excinfo.value.code == "admission"
    sarif = excinfo.value.diagnostics
    assert sarif["version"] == "2.1.0"
    assert sarif["runs"][0]["results"]


def test_duplicate_and_unknown_map_to_typed_errors(client, weather):
    sources, pids = weather_sources(weather, n=1)
    client.register(sources[0])
    with pytest.raises(DuplicateQueryError):
        client.register(sources[0])
    with pytest.raises(UnknownQueryError):
        client.unregister("ghost")
    # An empty registry has no plan: 404 maps to the same typed error.
    client.unregister(pids[0])
    with pytest.raises(UnknownQueryError):
        client.plan()


def test_unknown_route_and_bad_payload(client):
    with pytest.raises(ServiceError):
        client._request("GET", "/v9/nope")
    with pytest.raises(ServiceError, match="'program'"):
        client._request("POST", "/v1/queries", {"nope": 1})
    with pytest.raises(ServiceError, match="'rows'"):
        client._request("POST", "/v1/run", {})


def test_run_with_empty_registry_is_typed(client):
    with pytest.raises(ServiceError):
        client.run([1, 2, 3])


# ---------------------------------------------------------------------------
# restart replay


def test_restart_replays_event_log_to_identical_fingerprints(tmp_path, weather):
    log = tmp_path / "events.jsonl"
    service = ServiceConfig(port=0)
    sources, pids = weather_sources(weather, n=5, family="Q2")

    def durable():
        registry = QueryRegistry(weather.functions, service=service, event_log=str(log))
        return serve(weather.functions, service=service, registry=registry)

    first = durable()
    thread = threading.Thread(target=first.serve_forever, daemon=True)
    thread.start()
    client = Client(port=first.port)
    fingerprints = {}
    for source in sources:
        result = client.register(source)
        fingerprints[result.query.pid] = result.query.fingerprint
    client.unregister(pids[2])
    del fingerprints[pids[2]]
    plan_before = client.plan()
    first.shutdown()
    first.server_close()

    second = durable()
    thread = threading.Thread(target=second.serve_forever, daemon=True)
    thread.start()
    try:
        revived = Client(port=second.port)
        assert revived.health().queries == 4
        assert {
            q.pid: q.fingerprint for q in revived.queries()
        } == fingerprints
        plan_after = revived.plan()
        assert plan_after.fingerprint == plan_before.fingerprint
        assert plan_after.pids == plan_before.pids
        assert plan_after.program == plan_before.program
    finally:
        second.shutdown()
        second.server_close()


# ---------------------------------------------------------------------------
# concurrent clients


def test_concurrent_clients_stress(server, weather):
    sources, pids = weather_sources(weather, n=12, family="Q2", seed=9)
    errors: list[BaseException] = []
    barrier = threading.Barrier(4)

    def churn(worker: int) -> None:
        try:
            barrier.wait()
            mine = range(worker * 3, worker * 3 + 3)
            client = Client(port=server.port)
            for index in mine:
                client.register(sources[index])
            client.unregister(pids[worker * 3])
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    client = Client(port=server.port)
    assert client.health().queries == 8
    plan = client.plan()
    assert plan.queries == 8
    assert sorted(plan.pids) == sorted(
        pid for i, pid in enumerate(pids) if i % 3 != 0
    )
    result = client.run(list(weather.rows[:30]))
    assert set(result.buckets) <= set(plan.pids)


# ---------------------------------------------------------------------------
# /metrics


def test_metrics_serve_the_registry_counters_in_both_formats(client, server, weather):
    import urllib.request

    sources, _ = weather_sources(weather, n=2)
    for source in sources:
        client.register(source)
    doc = client.metrics()
    assert doc["registered_total"] == 2
    # Counters only: there is no planner to name and no model to age.
    assert all(type(value) is int for value in doc.values()), doc
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/metrics", headers={"Accept": "text/plain"}
    )
    with urllib.request.urlopen(request) as response:
        text = response.read().decode()
    assert "# TYPE service_registered_total counter" in text
    assert "service_registered_total 2" in text
    assert "planner" not in text and "calibration" not in text and "service_info" not in text
