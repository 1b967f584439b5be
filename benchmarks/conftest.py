"""Shared fixtures for the ablation benchmarks (``bench_ablation_*.py``).

Datasets are generated once per session at a reduced (but structurally
faithful) scale so that ``pytest benchmarks/bench_ablation_*.py
--benchmark-only`` completes in minutes; the ablations compare cost-unit
ratios, which are scale-independent.  The paper-scale cardinalities are
the generator defaults (see ``repro.datasets``) and can be restored with
``--bench-scale=1.0``.
"""

import pytest

from repro.datasets import generate_news, generate_stocks, generate_weather

BENCH_SEED = 1


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        action="store",
        default="0.02",
        help="dataset scale factor relative to the paper's cardinalities",
    )


@pytest.fixture(scope="session")
def bench_scale(request):
    return float(request.config.getoption("--bench-scale"))


@pytest.fixture(scope="session")
def weather_ds(bench_scale):
    return generate_weather(cities=max(30, int(500 * bench_scale)))


@pytest.fixture(scope="session")
def news_ds(bench_scale):
    return generate_news(articles=max(100, int(19043 * bench_scale)))


@pytest.fixture(scope="session")
def stock_ds(bench_scale):
    return generate_stocks(
        companies=max(20, int(100 * bench_scale)), total_daily_rows=max(2000, int(377423 * bench_scale))
    )
