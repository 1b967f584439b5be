"""Golden plan equivalence: the merge driver against its recorded decisions.

``tests/golden/consolidation_plans.json`` was written by
``tools/gen_golden_plans.py`` at the commit before the driver was collapsed
to one level loop over a pairing policy (and regenerated, α-equivalent,
when locals stopped being re-prefixed per level, and for its weather rows
when α-copies came to ride on their representative and when the pair step
came to decline pairs that share no work).  Every row is replayed through
the current driver and must come out byte for byte: the merged program's
text, the pair count and depth, the merge tree's shape and the pairs
declined; each merge-tree node must also be declined exactly when its two
children share no work.  Every row is also replayed from an unpickled copy of
its batch: such a copy carries none of the node caches (hashes, feature
sets, sizes) that earlier replays filled in, so the plan may not depend on
them.
"""

import importlib.util
import json
import pickle
from pathlib import Path

import pytest

from .helpers import assert_declines_obey_the_rule

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "gen_golden_plans", REPO_ROOT / "tools" / "gen_golden_plans.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

GOLDEN = json.loads(gen.GOLDEN_PATH.read_text())
RECORDED = ("program", "pair_consolidations", "tree_depth", "shape", "declined")


@pytest.fixture(scope="module")
def batches():
    return gen.batches()


def _replays():
    for row in GOLDEN["plans"]:
        yield pytest.param(row, id=f"{row['domain']}-{row['order']}")


def test_golden_file_covers_the_matrix():
    assert GOLDEN["families"] == gen.MIXED_FAMILY
    assert len(GOLDEN["plans"]) == len(gen.MIXED_FAMILY) * len(gen.ORDERS)
    assert any(row["declined"] for row in GOLDEN["plans"]), "no golden row declines a pair"


@pytest.mark.parametrize("row", _replays())
def test_plan_replays_byte_for_byte(batches, row):
    programs, functions = batches[row["domain"]]
    report = gen.plan_report(programs, functions, row["order"])
    record = gen.plan_record(report)
    for key in RECORDED:
        assert record[key] == row[key], f"{key} differs from the golden plan"
    assert_declines_obey_the_rule(report)


@pytest.mark.parametrize("row", _replays())
def test_plan_replays_from_unpickled_programs(batches, row):
    programs, functions = batches[row["domain"]]
    cold = pickle.loads(pickle.dumps(programs))
    assert cold == programs
    record = gen.plan_record(gen.plan_report(cold, functions, row["order"]))
    for key in RECORDED:
        assert record[key] == row[key], f"{key} differs from the golden plan"


@pytest.mark.parametrize("domain", sorted(GOLDEN["incremental"]))
def test_incremental_script_replays(batches, domain):
    programs, functions = batches[domain]
    assert gen.incremental_record(programs, functions) == GOLDEN["incremental"][domain]


@pytest.fixture(scope="module")
def loop_batches():
    return gen.loop_batches()


@pytest.mark.parametrize(
    "row", GOLDEN["loop_plans"], ids=lambda row: f"weather-Q3-seed{row['seed']}-{row['order']}"
)
def test_loop_plan_replays_byte_for_byte(loop_batches, row):
    """Weather Q3 fuses its loops (Loop 2): the invariant is inferred and
    the fused body consolidated over the loop-head store."""

    programs, functions = loop_batches[row["seed"]]
    report = gen.plan_report(programs, functions, row["order"])
    record = gen.plan_record(report)
    loops_in = sum(gen.program_to_str(p).count("while") for p in programs)
    assert 0 < record["program"].count("while") < loops_in  # fused, not sequenced
    for key in RECORDED:
        assert record[key] == row[key], f"{key} differs from the golden plan"
    assert_declines_obey_the_rule(report)
