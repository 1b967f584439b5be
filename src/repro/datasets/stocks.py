"""Synthetic stock data (Section 6.2, Stock).

The paper used Yahoo Finance history for the Nasdaq-100: 377,423 daily
rows, each with open/close/adjusted-close, high/low and volume.  Queries
filter *companies*, so rows here are company handles and the daily series
live behind aggregate accessors (average volume, maximum value, standard
deviation) computed at generation time over a seeded geometric-random-walk
price history of the same total row count.

Prices are fixed-point cents; standard deviation is likewise x100.
"""

from __future__ import annotations

import math
import random

from ..lang.functions import FunctionTable, LibraryFunction
from .records import Dataset, check_size

__all__ = ["generate_stocks"]


def generate_stocks(
    companies: int = 100, total_daily_rows: int = 377423, seed: int = 100
) -> Dataset:
    check_size("companies", companies)
    rng = random.Random(seed)
    days = max(2, total_daily_rows // max(1, companies))

    avg_volume: list[int] = []
    max_close: list[int] = []
    min_close: list[int] = []
    stddev_x100: list[int] = []
    last_close: list[int] = []

    for _ in range(companies):
        price = rng.uniform(5.0, 400.0)
        drift = rng.gauss(0.0002, 0.0004)
        vol = rng.uniform(0.005, 0.04)
        base_volume = rng.uniform(2e5, 5e7)
        closes: list[float] = []
        volumes: list[float] = []
        for _d in range(days):
            price = max(0.5, price * math.exp(drift + vol * rng.gauss(0, 1)))
            closes.append(price)
            volumes.append(base_volume * math.exp(rng.gauss(0, 0.4)))
        mean = sum(closes) / len(closes)
        var = sum((c - mean) ** 2 for c in closes) / len(closes)
        avg_volume.append(int(sum(volumes) / len(volumes)))
        max_close.append(round(max(closes) * 100))
        min_close.append(round(min(closes) * 100))
        stddev_x100.append(round(math.sqrt(var) * 100))
        last_close.append(round(closes[-1] * 100))

    functions = FunctionTable(
        [
            # Aggregations over ~3,800 daily rows per company are the
            # expensive operations in this domain.
            LibraryFunction("avg_volume", lambda c: avg_volume[c], cost=130),
            LibraryFunction("max_stock_value", lambda c: max_close[c], cost=130),
            LibraryFunction("min_stock_value", lambda c: min_close[c], cost=130),
            LibraryFunction("stddev", lambda c: stddev_x100[c], cost=200),
            LibraryFunction("last_close", lambda c: last_close[c], cost=30),
        ]
    )
    return Dataset(
        name="stock",
        rows=list(range(companies)),
        functions=functions,
        description=(
            f"{companies} companies x {days} trading days "
            f"(~{companies * days} daily rows, Nasdaq-100 scale); "
            "prices fixed-point cents"
        ),
        meta={"days": days},
    )
