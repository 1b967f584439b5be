"""End-to-end smoke of the consolidation service across a restart.

What CI's ``service-smoke`` job runs:

1. start ``python -m repro serve`` as a real subprocess on an ephemeral
   port with an ``--event-log`` journal;
2. register one query from each of the weather domain's five families
   (Q1–Q4 and Mix) through the typed HTTP client;
3. record every query fingerprint and the consolidated plan fingerprint,
   run the plan once over dataset rows;
4. scrape ``/metrics`` twice — once as JSON, once with an ``Accept:
   text/plain`` header — and assert both content types serve the same
   counters (JSON document vs Prometheus text exposition);
5. GET ``/v1/explain`` and assert the last patch has at least one
   derivation and is certified, with one certificate per pair merge
   (derivations and certificates are computed when ``/v1/explain`` reads
   them);
6. register an α-copy of the first query (new pid, locals renamed) and
   assert it rides on it — no pair merge, named in ``/v1/explain``'s
   ``riders``, the same bucket; unregister the original (the copy takes
   its place), register it again (it now rides on the copy), then one
   query no live query is a copy of (a certified merge);
7. kill the server, append a torn line (an append that crashed before it
   was acknowledged) to the journal, start a fresh server over it;
8. assert the replayed registry serves byte-identical query and
   plan-cache fingerprints and an identical consolidated program, the
   same riders and the copy's bucket, and that its ``/v1/explain`` still
   reports a derived, certified patch;
9. register one more query and assert every journal line parses: the torn
   tail was cut away, not built on.

Exit status 0 only when every assertion holds.

Usage::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets import generate_weather  # noqa: E402
from repro.lang.printer import program_to_str  # noqa: E402
from repro.queries import DOMAIN_QUERIES  # noqa: E402
from repro.service import Client  # noqa: E402
from repro.testing.generator import alpha_copy  # noqa: E402

SERVE_PATTERN = re.compile(r"serving on http://[\d.]+:(\d+)")
TORN_APPEND = '{"seq": 99, "op": "regis'


def start_server(event_log: str) -> tuple[subprocess.Popen, int]:
    """Launch ``repro serve`` on an ephemeral port; return (proc, port)."""

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--domain",
            "weather",
            "--port",
            "0",
            "--event-log",
            event_log,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"serve exited early with status {proc.wait()}"
            )
        match = SERVE_PATTERN.search(line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise SystemExit("serve did not print its port within 60s")


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def check_metrics(port: int) -> None:
    """Scrape ``/metrics`` in both content types and cross-check them."""

    url = f"http://127.0.0.1:{port}/metrics"
    with urllib.request.urlopen(url) as response:
        assert response.headers.get_content_type() == "application/json", (
            f"default /metrics content type: {response.headers.get_content_type()}"
        )
        doc = json.loads(response.read())
    assert doc["registered_total"] >= 1, doc

    request = urllib.request.Request(url, headers={"Accept": "text/plain"})
    with urllib.request.urlopen(request) as response:
        assert response.headers.get_content_type() == "text/plain", (
            f"negotiated /metrics content type: {response.headers.get_content_type()}"
        )
        text = response.read().decode()
    assert "# TYPE service_registered_total counter" in text, text
    assert f'service_registered_total {doc["registered_total"]}' in text, text
    print("  /metrics serves JSON by default and Prometheus text on Accept")


def check_explain(client: Client, when: str) -> None:
    """``/v1/explain`` accounts for the last patch: derived, and certified
    merge by merge."""

    last = client.explain()["last_patch"]
    derivations = last["derivations"]
    assert derivations["pairs"] >= 1, (when, last)
    assert last["certified"] is True, (when, last)
    assert last["validated"] == last["pair_merges"], (when, last)
    print(f"  /v1/explain {when}: {last['action']} patch, {derivations['pairs']} "
          f"derived merge(s), {derivations['entailments']} entailments, certified")


def check_alpha_copy(client: Client, module, dataset, first, fingerprints: dict) -> str:
    """Step 6: an α-copy rides, outlives its original, and is ridden on.

    Returns the copy's pid; ``fingerprints`` gains every query registered.
    """

    rows = list(dataset.rows[:50])
    before = client.run(rows).buckets.get(first.pid, [])
    twin = alpha_copy(first, f"{first.pid}_twin")
    result = client.register(program_to_str(twin))
    fingerprints[twin.pid] = result.query.fingerprint
    assert result.query.fingerprint == fingerprints[first.pid], "copy fingerprint differs"
    assert result.patch.pair_merges == 0, result.patch
    assert client.explain()["riders"] == {twin.pid: first.pid}
    assert client.run(rows).buckets.get(twin.pid, []) == before
    print(f"  {twin.pid} rides on {first.pid}: no pair merge, same bucket")

    client.unregister(first.pid)
    assert client.explain()["riders"] == {}
    assert client.run(rows).buckets.get(twin.pid, []) == before
    client.register(program_to_str(first))
    assert client.explain()["riders"] == {first.pid: twin.pid}
    print(f"  {first.pid} left and came back: it now rides on {twin.pid}")

    for program in module.make_batch(dataset, "Mix", n=8, seed=5):
        if program.pid not in fingerprints:
            result = client.register(program_to_str(program))
            # A merge the calculus ran, not a pair declined for sharing no work.
            if client.explain()["last_patch"]["derivations"]["pairs"]:
                fingerprints[program.pid] = result.query.fingerprint
                print(f"  registered {program.pid}: {result.patch.pair_merges} merge(s)")
                return twin.pid
            client.unregister(program.pid)
    raise AssertionError("no query that is not a copy of a live one")


def main() -> int:
    dataset = generate_weather(cities=20)
    module = DOMAIN_QUERIES["weather"]
    sources = {}
    for index, family in enumerate(module.FAMILY_NAMES):
        # Seed 3: the Mix query shares work with the Q3/Q4 ones, so its
        # graft is a recorded merge, not a declined pair.
        program = module.make_batch(dataset, family, n=index + 1, seed=3)[index]
        sources[program.pid] = program_to_str(program)
    print(f"registering {len(sources)} queries, one per family: "
          f"{', '.join(module.FAMILY_NAMES)}")

    with tempfile.TemporaryDirectory() as tmp:
        event_log = os.path.join(tmp, "events.jsonl")

        proc, port = start_server(event_log)
        try:
            client = Client(port=port)
            fingerprints = {}
            for pid, source in sources.items():
                result = client.register(source)
                fingerprints[pid] = result.query.fingerprint
                print(f"  registered {pid}: fingerprint {result.query.fingerprint}, "
                      f"patch {result.patch.action} ({result.patch.pair_merges} merges)")
            plan = client.plan()
            print(f"plan {plan.fingerprint}: {plan.queries} queries, depth {plan.depth}")
            run = client.run(list(dataset.rows[:50]))
            print(f"run: buckets for {sorted(run.buckets)} (udf cost {run.udf_cost})")
            assert plan.queries == len(sources)
            check_metrics(port)
            check_explain(client, "before the restart")
            first = module.make_batch(dataset, module.FAMILY_NAMES[0], n=1, seed=3)[0]
            twin = check_alpha_copy(client, module, dataset, first, fingerprints)
            riders = client.explain()["riders"]
            check_explain(client, "after the α-copy")
            plan = client.plan()
            run = client.run(list(dataset.rows[:50]))
            assert run.buckets.get(twin, []) == run.buckets.get(first.pid, [])
        finally:
            stop_server(proc)
        with open(event_log, "a", encoding="utf-8") as handle:
            handle.write(TORN_APPEND)
        print("server killed; torn append added; restarting over the journal")

        proc, port = start_server(event_log)
        try:
            revived = Client(port=port)
            assert revived.health().queries == len(fingerprints), "membership lost"
            replayed = {q.pid: q.fingerprint for q in revived.queries()}
            assert replayed == fingerprints, (
                f"query fingerprints diverged after replay:\n"
                f"  before: {fingerprints}\n  after:  {replayed}"
            )
            replayed_plan = revived.plan()
            assert replayed_plan.fingerprint == plan.fingerprint, (
                f"plan fingerprint diverged: {plan.fingerprint} -> "
                f"{replayed_plan.fingerprint}"
            )
            assert replayed_plan.program == plan.program, "merged program diverged"
            rerun = revived.run(list(dataset.rows[:50]))
            assert rerun.buckets == run.buckets, "notification buckets diverged"
            assert revived.explain()["riders"] == riders, "riders diverged"
            assert rerun.buckets.get(twin, []) == rerun.buckets.get(first.pid, [])
            check_explain(revived, "after the replay")
            revived.register("program late(row) { notify late (@row > 5); }")
            with open(event_log, encoding="utf-8") as handle:
                journal = [json.loads(line) for line in handle]
            assert journal[-1]["pid"] == "late", journal[-1]
            print("  registered late after the torn tail: "
                  f"all {len(journal)} journal lines parse")
        finally:
            stop_server(proc)

    print("service smoke OK: restart replay restored identical fingerprints")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
