"""Synthetic weather data (Section 6.2, Weather).

The paper generated hourly weather for two years across 500 cities, with
average hourly temperature in [-1, 10] and rainfall in [0, 200] mm.  We
generate the same population: per-city hourly series are drawn with a
seasonal sinusoid plus noise, then the per-month and per-year aggregates
the query families consume are materialised.  Accessor costs reflect that
aggregating a month of hourly data is expensive and a year more so.

Rows are city handles ``0..cities-1``.
"""

from __future__ import annotations

import math
import random

from ..lang.functions import FunctionTable, LibraryFunction
from .records import Dataset, check_size

__all__ = ["generate_weather", "MONTHS"]

MONTHS = list(range(1, 13))

_HOURS_PER_MONTH = 30 * 24


def generate_weather(cities: int = 500, years: int = 2, seed: int = 2014) -> Dataset:
    """Deterministic weather dataset with per-month / per-year aggregates."""

    check_size("cities", cities)
    rng = random.Random(seed)
    monthly_temp: dict[tuple[int, int], int] = {}
    monthly_rain: dict[tuple[int, int], int] = {}
    yearly_temp: dict[int, int] = {}
    yearly_rain: dict[int, int] = {}

    for city in range(cities):
        base = rng.uniform(1.0, 8.0)  # city's climate offset
        wet = rng.uniform(20.0, 160.0)
        temp_total = 0.0
        rain_total = 0.0
        for month in MONTHS:
            season = 4.0 * math.sin((month - 1) / 12.0 * 2 * math.pi)
            # Average the (simulated) hourly draws analytically: the mean of
            # `base + season + noise` over a month of hours is the mean plus
            # an O(1/sqrt(n)) wobble, which we draw directly.
            wobble = rng.gauss(0.0, 0.4)
            t = max(-1.0, min(10.0, base + season + wobble))
            r = max(0.0, min(200.0, wet + 40.0 * math.sin(month / 12.0 * 2 * math.pi) + rng.gauss(0, 15)))
            # Aggregates are exposed as integers (fixed-point x10 for temp).
            monthly_temp[(city, month)] = round(t * 10)
            monthly_rain[(city, month)] = round(r)
            temp_total += t * years
            rain_total += r * years
        yearly_temp[city] = round(temp_total / (12 * years) * 10)
        yearly_rain[city] = round(rain_total / years)

    functions = FunctionTable(
        [
            LibraryFunction(
                "monthly_avg_temp",
                lambda c, m: monthly_temp[(c, m)],
                cost=40,
            ),
            LibraryFunction(
                "monthly_rainfall",
                lambda c, m: monthly_rain[(c, m)],
                cost=40,
            ),
            LibraryFunction(
                "yearly_avg_temp",
                lambda c: yearly_temp[c],
                cost=150,
            ),
            LibraryFunction(
                "yearly_rainfall",
                lambda c: yearly_rain[c],
                cost=150,
            ),
        ]
    )
    return Dataset(
        name="weather",
        rows=list(range(cities)),
        functions=functions,
        description=(
            f"{cities} cities x {years} years of synthetic hourly weather, "
            "exposed through monthly/yearly aggregate accessors "
            "(temperatures are fixed-point x10 integers)"
        ),
        meta={
            "hours_simulated": cities * years * 12 * _HOURS_PER_MONTH,
            "temp_scale": 10,
        },
    )
