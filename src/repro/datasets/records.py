"""Common dataset machinery.

A :class:`Dataset` is a collection of opaque *row handles* (integers)
plus a :class:`~repro.lang.functions.FunctionTable` of accessor functions
that UDFs call on a handle (``monthly_avg_temp(row, month)``, …).  This is
exactly how the IR sees data: rows are argument values, field access is a
pure library call.

Accessor *costs* model the paper's execution economics: accessors that
aggregate or scan (string containment, yearly averages, standard
deviations) are expensive, plain field reads cheap.  The Python
implementations are O(1) dictionary lookups over values precomputed at
generation time, so the declared IR cost — which the cost semantics
charges — is decoupled from host-interpreter speed; both the cost clock
and wall-clock then reward executing *fewer IR operations*, which is the
effect consolidation produces.

All generators are seeded and deterministic: the same seed yields the same
dataset, making every benchmark run reproducible.  The *order* of the draws
is part of that identity: a faster generator makes the same draws in fewer
Python steps (News: one ``bisect`` per word over a cached Zipf CDF), never
different ones.  Size 0 gives an empty dataset; a negative size raises ValueError.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

from ..lang.functions import FunctionTable

__all__ = ["Dataset", "check_size", "zipf_cdf", "zipf_sample"]


@dataclass
class Dataset:
    """Rows (opaque integer handles) plus the accessors UDFs may call."""

    name: str
    rows: list[int]
    functions: FunctionTable
    description: str = ""
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)


def check_size(name: str, value: int) -> None:
    """Reject a negative generator size; 0 means an empty dataset."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def zipf_sample(rng: random.Random, vocabulary: int, s: float = 1.1) -> int:
    """A Zipf-distributed index in [0, vocabulary) via inverse CDF sampling.

    Word frequencies in natural-language corpora follow Zipf's law; the news
    generator uses this so that containment-query selectivities
    resemble the real Reuters/Many-Eyes data the paper used.
    """

    return bisect_left(zipf_cdf(vocabulary, s), rng.random(), 0, vocabulary - 1)


def zipf_cdf(vocabulary: int, s: float = 1.1) -> list[float]:
    """The cumulative Zipf distribution over [0, vocabulary), cached."""

    cdf = _ZIPF_CACHE.get((vocabulary, s))
    if cdf is None:
        weights = [1.0 / ((i + 1) ** s) for i in range(vocabulary)]
        total = sum(weights)
        cdf = _ZIPF_CACHE[(vocabulary, s)] = list(accumulate(w / total for w in weights))
    return cdf


_ZIPF_CACHE: dict[tuple[int, float], list[float]] = {}
