"""Golden consolidation plans: what the merge driver decides, without timings.

Writes ``tests/golden/consolidation_plans.json``, which
``tests/test_golden_plans.py`` replays through the current driver and
compares byte for byte.  The file was generated at the commit *before* the
driver was collapsed to one level loop (PR 14), so it pins that rewrite —
and any later one — to the pairing decisions, merge order and merged
programs of the forked driver it replaced.
It was regenerated twice since: when a leaf's locals came to be qualified
once instead of re-prefixed at every tree level (only the spelling of the
locals changed — with locals α-renamed, every plan and incremental step
equals the one it replaced), when the SMT budget went (its
``smt_budget_seconds=0`` rows and key were dropped; every other row is
unchanged), and when α-copies came to ride on their representative
instead of entering the calculus (only the weather rows changed: ``q7``
is an α-copy of ``q1``, the only copy in the five batches), and when the
chain of ride nodes became one ride node with a rider map (only the
shapes that hold riders changed; every program and digest is the same),
and when the pair step came to decline pairs that share no work and the
calibrated planner went (its rows were dropped; CHANGES.md lists each
plan's cost before and after).

Per domain, one mixed family at n=8 is consolidated under each ``order`` ∈
{clustered, tree, fold, priority}, and one add/remove script runs through
``repro.consolidation.incremental``.
Weather's bounded-loop family ``Q3`` is consolidated too (``loop_plans``,
n=8, two batch seeds, the ``clustered`` and ``fold`` orders): its merges
fuse loops (Loop 2), so they pin the loop-invariant path of the calculus.
Those rows were added by running this script at the commit before the
context became a symbolic store, with every other row unchanged.
Every recorded field is a pure function of the inputs: program text, pair
merge counts (declined pairs excluded), tree shapes and the ``(left,
right)`` of each declined pair — no durations.

Regenerate only when a change is *meant* to alter plans::

    PYTHONPATH=src python tools/gen_golden_plans.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.consolidation import add_query, consolidate_all, rebuild, remove_query  # noqa: E402
from repro.experiments.figure9 import make_datasets  # noqa: E402
from repro.lang.printer import program_to_str  # noqa: E402
from repro.lang.visitors import canonicalize  # noqa: E402
from repro.queries import DOMAIN_QUERIES  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "golden" / "consolidation_plans.json"

# The mixed family of each domain (Section 6.2): the batches whose members
# share least, so pairing decisions matter most.
MIXED_FAMILY = {
    "weather": "Mix",
    "flight": "Mix",
    "news": "BC",
    "twitter": "BC",
    "stock": "BC",
}
N_UDFS = 8
BATCH_SEED = 3
LOOP_FAMILY = ("weather", "Q3")
LOOP_SEEDS = (1, 3)
LOOP_ORDERS = ("clustered", "fold")
ORDERS = ("clustered", "tree", "fold", "priority")


def batches() -> dict:
    """``{domain: (programs, functions)}`` for the five mixed families."""

    datasets = make_datasets(scale=0.02)
    return {
        domain: (
            DOMAIN_QUERIES[domain].make_batch(
                datasets[domain], family, n=N_UDFS, seed=BATCH_SEED
            ),
            datasets[domain].functions,
        )
        for domain, family in MIXED_FAMILY.items()
    }


def loop_batches() -> dict:
    """``{seed: (programs, functions)}`` for the bounded-loop family."""

    domain, family = LOOP_FAMILY
    dataset = make_datasets(scale=0.02)[domain]
    return {
        seed: (
            DOMAIN_QUERIES[domain].make_batch(dataset, family, n=N_UDFS, seed=seed),
            dataset.functions,
        )
        for seed in LOOP_SEEDS
    }


def loop_plans() -> list:
    return [
        {"seed": seed, "order": order, **plan_record(plan_report(programs, functions, order))}
        for seed, (programs, functions) in loop_batches().items()
        for order in LOOP_ORDERS
    ]


def priority_of(programs) -> list:
    """The priority list the ``priority`` rows use: last query first, then
    the third — both away from the front, so the reorder is visible."""

    return [programs[-1].pid, programs[2].pid]


def plan_report(programs, functions, order):
    """Consolidate one batch as its golden row does, keeping the merge tree."""

    return consolidate_all(
        list(programs),
        functions,
        order=order,
        priority=priority_of(programs) if order == "priority" else None,
        keep_tree=True,
    )


def plan_record(report) -> dict:
    """Project a batch's report onto its plan."""

    return {
        "program": program_to_str(report.program),
        "pair_consolidations": report.pair_consolidations,
        "tree_depth": report.tree_depth,
        "shape": report.merge_tree.shape(),
        "declined": [list(pair) for pair in report.declined],
    }


def incremental_record(programs, functions) -> list:
    """Rebuild over the first five queries, graft the other three (an
    α-copy rides on its twin), then unlink a deep leaf, a shallow leaf and
    the newest graft."""

    steps = []

    def step(op, pid, tree, pair_merges):
        steps.append(
            {
                "op": op,
                "pid": pid,
                "pair_merges": pair_merges,
                "shape": tree.shape(),
                # The shapes are the subject here; the digest still makes
                # the replay a byte-equality check on the patched program.
                "program_sha256": hashlib.sha256(
                    program_to_str(tree.program).encode()
                ).hexdigest(),
            }
        )

    tree, report = rebuild(list(programs[:5]), functions)
    step("rebuild", None, tree, report.pair_consolidations)
    for i, program in enumerate(programs[5:], start=5):
        # An α-copy names its twin, as the registry does from fingerprints.
        key = canonicalize(program)
        twin = next((p.pid for p in programs[:i] if canonicalize(p) == key), None)
        patch = add_query(tree, program, functions, twin=twin)
        tree = patch.tree
        step("add", program.pid, tree, patch.pair_merges)
    for pid in (programs[1].pid, programs[4].pid, programs[7].pid):
        patch = remove_query(tree, pid, functions)
        tree = patch.tree
        step("remove", pid, tree, patch.pair_merges)
    return steps


def build() -> dict:
    plans = []
    incremental = {}
    for domain, (programs, functions) in batches().items():
        for order in ORDERS:
            record = plan_record(plan_report(programs, functions, order))
            plans.append({"domain": domain, "order": order, **record})
        incremental[domain] = incremental_record(programs, functions)
    return {
        "families": MIXED_FAMILY,
        "n_udfs": N_UDFS,
        "batch_seed": BATCH_SEED,
        "plans": plans,
        "incremental": incremental,
        "loop_plans": loop_plans(),
    }


def main() -> int:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
