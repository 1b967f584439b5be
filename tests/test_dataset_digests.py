"""Every generated dataset is pinned bit for bit.

A generator's draw sequence is part of its dataset's identity: the
benchmark's inputs, the golden plans and every Figure 9 / Figure 10 number
rest on the exact rows, ``meta`` and library-function values it produces.
Each case below hashes all three — every ``LibraryFunction`` on every row,
parameterised ones over the arguments the query families pass — and
compares the sha256 against ``tests/golden/dataset_digests.json``.

A change that is *meant* to move a dataset is a re-baseline; regenerate
the file with ``PYTHONPATH=src python tests/test_dataset_digests.py``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
from pathlib import Path
from typing import Callable

import pytest

from repro.datasets import (
    MONTHS,
    SENTIMENTS,
    TOPICS,
    Dataset,
    generate_flights,
    generate_news,
    generate_twitter,
    generate_weather,
)
from repro.experiments.figure9 import make_datasets

GOLDEN = Path(__file__).parent / "golden" / "dataset_digests.json"

# The extra arguments each parameterised accessor is checked over: the
# values the query families draw from (`repro.queries`).
EXTRA_ARGS: dict[str, Callable[[Dataset], list[tuple[int, ...]]]] = {
    "contains_word": lambda ds: [(w,) for w in sorted(set(ds.meta["word_ids"].values()))],
    "sentiment_score": lambda ds: [(s,) for s in range(len(SENTIMENTS))],
    "topic_score": lambda ds: [(t,) for t in range(len(TOPICS))],
    "monthly_avg_temp": lambda ds: [(m,) for m in MONTHS],
    "monthly_rainfall": lambda ds: [(m,) for m in MONTHS],
    **{
        name: lambda ds: list(itertools.product(range(ds.meta["cities"]), repeat=2))
        for name in (
            "has_direct", "direct_price", "has_connection", "connecting_price", "avg_price"
        )
    },
}


@functools.cache
def _figure9_datasets() -> dict[str, Dataset]:
    return make_datasets(0.05)


def _figure9(domain: str) -> Callable[[], Dataset]:
    return lambda: _figure9_datasets()[domain]


# The four gate workloads' generator arguments, Figure 9's default scale,
# and News at the paper's size.
CASES: dict[str, Callable[[], Dataset]] = {
    "loops": generate_weather,
    "bc_smt": lambda: generate_news(articles=2000),
    "scan": lambda: generate_twitter(tweets=8000),
    "service_churn": generate_flights,
    **{
        f"figure9-0.05-{domain}": _figure9(domain)
        for domain in ("weather", "flight", "news", "twitter", "stock")
    },
    "news-paper": generate_news,
}


def dataset_digest(dataset: Dataset) -> str:
    """sha256 over the rows, ``meta`` and every accessor's value on every row."""

    digest = hashlib.sha256()

    def put(value: object) -> None:
        digest.update(json.dumps(value, sort_keys=True).encode())
        digest.update(b"\n")

    put([dataset.name, dataset.rows, dataset.meta])
    for function in sorted(dataset.functions, key=lambda f: f.name):
        for args in EXTRA_ARGS.get(function.name, lambda ds: [()])(dataset):
            values = [function.fn(row, *args) for row in dataset.rows]
            put([function.name, function.cost, list(args), values])
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_dataset_matches_its_golden_digest(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert dataset_digest(CASES[case]()) == golden[case]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    digests = {case: dataset_digest(make()) for case, make in CASES.items()}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
