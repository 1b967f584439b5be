"""Property-based contracts of the columnar backend.

Three invariants the mask machinery must hold for *every* program and
every record set, not just the curated fixtures:

* **batch-size invariance** — a batch is a unit of scheduling, never of
  semantics.  Splitting the records at any point and running two batches
  yields record-for-record identical costs and notifications.
* **degenerate batches** — the empty batch and the fully-guard-rejected
  batch are first-class: no kernels crash on zero rows, no cost leaks.
* **one-sided masks** — an ``If`` whose condition column is all-true or
  all-false (the partition produces one empty arm) must still match the
  interpreter exactly; the empty arm contributes nothing.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.config import ExecutionConfig
from repro.lang import parse_program
from repro.lang.interp import Interpreter
from repro.lang.vectorize import columns_from_records, vectorize_program
from repro.naiad import run_where_many
from repro.testing import case_inputs, generate_case, schema_dataset

WEATHER = schema_dataset("weather")
ROWS = [args["row"] for args in case_inputs("weather", limit=12)]


def _per_record(batch, n):
    return [(batch.costs[i], batch.notifications_at(i)) for i in range(n)]


def _interp_rows(program, rows):
    """Ground-truth outcomes; None when some record errors (assume away)."""

    interp = Interpreter(WEATHER.functions)
    out = []
    for row in rows:
        try:
            r = interp.run(program, {program.params[0]: row})
        except Exception:
            return None
        out.append((r.cost, r.notifications))
    return out


@given(seed=st.integers(0, 40), split=st.integers(0, len(ROWS)))
@settings(max_examples=40)
def test_batch_split_invariance(seed, split):
    """Splitting the record stream anywhere changes nothing observable."""

    for program in generate_case(seed, "weather", 3, n_programs=2):
        want = _interp_rows(program, ROWS)
        assume(want is not None)
        vp = vectorize_program(program, WEATHER.functions)
        whole = vp.run_batch(
            columns_from_records(program, ROWS), len(ROWS)
        )
        left_rows, right_rows = ROWS[:split], ROWS[split:]
        left = vp.run_batch(
            columns_from_records(program, left_rows), len(left_rows)
        )
        right = vp.run_batch(
            columns_from_records(program, right_rows), len(right_rows)
        )
        rejoined = _per_record(left, len(left_rows)) + _per_record(
            right, len(right_rows)
        )
        assert rejoined == _per_record(whole, len(ROWS))
        assert rejoined == want


@given(seed=st.integers(0, 40))
@settings(max_examples=15)
def test_empty_batch_is_a_noop(seed):
    for program in generate_case(seed, "weather", 3, n_programs=2):
        vp = vectorize_program(program, WEATHER.functions)
        batch = vp.run_batch(columns_from_records(program, []), 0)
        assert batch.n == 0
        assert batch.costs == []
        assert all(hits == [] for hits in batch.hits.values())
        assert all(not any(mask) for mask in batch.partial.values())


GUARDED_SRC = """
program gq(row) {{
  t := yearly_avg_temp(@row);
  if (t > {threshold}) {{
    notify gq (t > {threshold} + 5);
  }} else {{
    notify gq false;
  }}
}}
"""


@given(
    threshold=st.one_of(
        st.just(-(10 ** 6)),  # all-true mask: else-arm positions empty
        st.just(10 ** 6),  # all-false mask: then-arm positions empty
        st.integers(-100, 150),
    )
)
@settings(max_examples=30)
def test_one_sided_and_mixed_if_masks(threshold):
    program = parse_program(GUARDED_SRC.format(threshold=threshold))
    vp = vectorize_program(program, WEATHER.functions)
    assert vp.vectorized
    batch = vp.run_batch(columns_from_records(program, ROWS), len(ROWS))
    assert not batch.fallback
    assert _per_record(batch, len(ROWS)) == _interp_rows(program, ROWS)


@given(threshold=st.sampled_from([-(10 ** 6), 10 ** 6]))
@settings(max_examples=4)
def test_all_masked_out_where_many_batch(threshold):
    """A guard that is false (or true) on every record keeps the operator
    in lockstep with the interpreter rung."""

    program = parse_program(GUARDED_SRC.format(threshold=threshold))
    compiled = run_where_many(
        ROWS, [program], WEATHER.functions,
        config=ExecutionConfig(backend="interp"),
    )
    vectorized = run_where_many(
        ROWS, [program], WEATHER.functions,
        config=ExecutionConfig(backend="vectorized"),
    )
    assert {p: list(map(repr, rs)) for p, rs in vectorized.buckets.items()} == {
        p: list(map(repr, rs)) for p, rs in compiled.buckets.items()
    }
    assert vectorized.metrics.udf_cost == compiled.metrics.udf_cost
    assert vectorized.metrics.total_cost == compiled.metrics.total_cost
