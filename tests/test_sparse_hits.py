"""The kernel's sparse output, seen from the operators: nothing observable moved.

The batch kernel returns per-pid hit lists (rows that broadcast ``true``)
instead of per-row value and latency columns, and ``_UdfOperator`` hands
each pid's records to ``Worker.notify_all`` in one call.  These tests pin
what a record-at-a-time loop would observe: the error a record that never
notified raises, the traced run's per-operator notification counts, and
a merged run's buckets and cost.  The expected numbers were read off the
per-column kernel this output replaced.
"""

import pytest

from repro import datasets as ds
from repro.config import ExecutionConfig
from repro.lang import parse_program
from repro.naiad import run_where_consolidated, run_where_many
from repro.queries import DOMAIN_QUERIES
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def weather():
    return ds.generate_weather(cities=15)


SKIPPER = parse_program("program p(row) { if (@row < 2) { notify p true; } else { skip; } }")


@pytest.mark.parametrize("backend", ["compiled", "interp"])
@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_a_record_that_never_notified_raises_keyerror(backend, traced):
    """Row 5 takes the ``skip`` arm: ``RunResult.notification('p')`` raises
    there, and so does the run, whichever worker and rung serve it."""

    cfg = ExecutionConfig(backend=backend, telemetry=Telemetry.capture() if traced else None)
    with pytest.raises(KeyError, match="'p'"):
        run_where_many([0, 1, 5, 0], [SKIPPER], None, config=cfg)


def test_records_that_all_notified_run():
    result = run_where_many([0, 1, -3], [SKIPPER], None)
    assert result.buckets == {"p": [0, 1, -3]}


# Per family: the traced run's notification count on whereMany and on
# whereConsolidated (n = 4, seed 7, all 15 cities).
NOTIFICATIONS = {"Q1": 45, "Q2": 26, "Q3": 45, "Q4": 24, "Mix": 55}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("family", sorted(NOTIFICATIONS))
def test_traced_notification_counts(weather, family, workers):
    batch = DOMAIN_QUERIES["weather"].make_batch(weather, family, n=4, seed=7)
    cfg = ExecutionConfig(telemetry=Telemetry.capture(), workers=workers)
    many = run_where_many(weather.rows, batch, weather.functions, config=cfg)
    cons, _ = run_where_consolidated(weather.rows, batch, weather.functions, config=cfg)
    want = NOTIFICATIONS[family]
    assert {k: v.notifications for k, v in many.metrics.per_operator.items()} == {
        "input": 0, "whereMany[4]": want,
    }
    assert {k: v.notifications for k, v in cons.metrics.per_operator.items()} == {
        "input": 0, "whereConsolidated[4]": want,
    }
    assert sum(map(len, many.buckets.values())) == want


TOTAL_SRC = """
program f{k}(row) {{
  t := monthly_avg_temp(@row, 1);
  if ({th} < t) {{ notify f{k} (t > {th} + 5); }} else {{ notify f{k} false; }}
}}
"""


@pytest.mark.parametrize("workers", [1, 3])
def test_total_pids_where_consolidated(weather, workers):
    """Every pid notifies on every row; ``false`` keeps a row out of its bucket."""

    programs = [parse_program(TOTAL_SRC.format(k=k, th=th)) for k, th in enumerate((40, 55, 70))]
    cfg = ExecutionConfig(workers=workers)
    result, _ = run_where_consolidated(weather.rows, programs, weather.functions, config=cfg)
    assert {pid: len(rows) for pid, rows in result.buckets.items()} == {"f0": 8, "f1": 6, "f2": 2}
    assert result.metrics.udf_cost == 926
