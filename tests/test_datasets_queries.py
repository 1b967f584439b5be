"""Tests for dataset generators and query families."""

import pytest

from repro.datasets import (
    generate_flights,
    generate_news,
    generate_stocks,
    generate_twitter,
    generate_weather,
)
from repro.lang import Interpreter, check_program, run_program
from repro.queries import DOMAIN_QUERIES
from repro.queries.families import hoist_calls
from repro.lang.builder import and_, arg, call, eq, gt, lt


SMALL = {
    "weather": lambda: generate_weather(cities=30),
    "flight": lambda: generate_flights(airlines=30),
    "news": lambda: generate_news(articles=80),
    "twitter": lambda: generate_twitter(tweets=80),
    "stock": lambda: generate_stocks(companies=15, total_daily_rows=3000),
}


@pytest.fixture(scope="module")
def datasets():
    return {name: make() for name, make in SMALL.items()}


class TestGenerators:
    def test_deterministic(self):
        a = generate_weather(cities=10, seed=7)
        b = generate_weather(cities=10, seed=7)
        fa, fb = a.functions["monthly_avg_temp"], b.functions["monthly_avg_temp"]
        assert [fa.fn(c, m) for c in range(10) for m in range(1, 13)] == [
            fb.fn(c, m) for c in range(10) for m in range(1, 13)
        ]

    def test_seed_changes_data(self):
        a = generate_weather(cities=10, seed=7)
        b = generate_weather(cities=10, seed=8)
        fa, fb = a.functions["monthly_avg_temp"], b.functions["monthly_avg_temp"]
        assert any(fa.fn(c, 1) != fb.fn(c, 1) for c in range(10))

    def test_weather_ranges(self):
        ds = generate_weather(cities=20)
        temp = ds.functions["monthly_avg_temp"]
        rain = ds.functions["monthly_rainfall"]
        for c in range(20):
            for m in range(1, 13):
                assert -10 <= temp.fn(c, m) <= 100  # fixed-point x10 of [-1, 10]
                assert 0 <= rain.fn(c, m) <= 200

    def test_flight_price_law_deterministic(self):
        ds = generate_flights(airlines=10)
        price = ds.functions["direct_price"]
        assert price.fn(3, 0, 1) == price.fn(3, 0, 1)
        assert price.fn(3, 0, 1) != price.fn(3, 1, 0) or True  # directional fares

    def test_flight_connection_superset_of_direct(self):
        ds = generate_flights(airlines=30)
        direct = ds.functions["has_direct"]
        conn = ds.functions["has_connection"]
        for a in range(30):
            for s in range(5):
                for d in range(5):
                    if s != d and direct.fn(a, s, d):
                        assert conn.fn(a, s, d)

    def test_news_zipf_selectivity_ordering(self):
        """Frequent words appear in more articles than rare words."""

        ds = generate_news(articles=400)
        contains = ds.functions["contains_word"]
        counts = {
            w: sum(contains.fn(a, w) for a in range(400)) for w in (0, 1, 2000, 3000)
        }
        assert counts[0] > counts[2000]
        assert counts[1] > counts[3000]

    @pytest.mark.parametrize("vocabulary, s", [(1, 1.1), (2, 1.1), (7, 0.5), (5000, 1.1)])
    def test_zipf_sample_is_the_reference_binary_search(self, vocabulary, s):
        """The C-level bisect makes the draws the Python search it replaced made,
        including the clamp to the last index when ``u`` exceeds the CDF."""

        import random

        from repro.datasets.records import zipf_cdf, zipf_sample

        def reference(rng):
            cdf, u = zipf_cdf(vocabulary, s), rng.random()
            lo, hi = 0, vocabulary - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cdf[mid] < u:
                    lo = mid + 1
                else:
                    hi = mid
            return lo

        mine, theirs = random.Random(7), random.Random(7)
        draws = [zipf_sample(mine, vocabulary, s) for _ in range(3000)]
        assert draws == [reference(theirs) for _ in range(3000)]
        assert zipf_cdf(vocabulary, s)[-1] == pytest.approx(1.0)

    def test_news_avg_word_length_positive(self):
        ds = generate_news(articles=50)
        avg = ds.functions["avg_word_length"]
        assert all(15 <= avg.fn(a) <= 120 for a in range(50))

    def test_twitter_scores_in_range(self):
        ds = generate_twitter(tweets=100)
        s = ds.functions["sentiment_score"]
        assert all(0 <= s.fn(t, k) <= 100 for t in range(100) for k in range(6))

    def test_stock_consistency(self):
        ds = generate_stocks(companies=10, total_daily_rows=2000)
        lo, hi = ds.functions["min_stock_value"], ds.functions["max_stock_value"]
        assert all(lo.fn(c) <= hi.fn(c) for c in range(10))

    def test_paper_scale_defaults(self):
        # Don't generate them (slow); just check the declared defaults.
        import inspect

        assert inspect.signature(generate_news).parameters["articles"].default == 19043
        assert inspect.signature(generate_twitter).parameters["tweets"].default == 31152
        assert (
            inspect.signature(generate_stocks).parameters["total_daily_rows"].default
            == 377423
        )
        assert inspect.signature(generate_weather).parameters["cities"].default == 500
        assert inspect.signature(generate_flights).parameters["airlines"].default == 500

    @pytest.mark.parametrize(
        "generate, size",
        [
            (generate_weather, "cities"),
            (generate_flights, "airlines"),
            (generate_news, "articles"),
            (generate_twitter, "tweets"),
            (generate_stocks, "companies"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_size_zero_is_empty_and_negative_is_refused(self, generate, size):
        assert len(generate(**{size: 0})) == 0
        with pytest.raises(ValueError, match=f"{size} must be >= 0"):
            generate(**{size: -3})


class TestQueryFamilies:
    @pytest.mark.parametrize("domain", list(SMALL))
    def test_all_families_generate_and_run(self, datasets, domain):
        ds = datasets[domain]
        module = DOMAIN_QUERIES[domain]
        interp = Interpreter(ds.functions)
        for family in module.FAMILY_NAMES:
            batch = module.make_batch(ds, family, n=6, seed=3)
            assert len(batch) == 6
            pids = {p.pid for p in batch}
            assert len(pids) == 6  # unique notification ids
            for p in batch:
                check_program(p, ds.functions)
                result = interp.run(p, {"row": ds.rows[0]})
                assert set(result.notifications) == {p.pid}

    @pytest.mark.parametrize("domain", list(SMALL))
    def test_batches_deterministic(self, datasets, domain):
        ds = datasets[domain]
        module = DOMAIN_QUERIES[domain]
        fam = module.FAMILY_NAMES[0]
        assert module.make_batch(ds, fam, n=5, seed=9) == module.make_batch(ds, fam, n=5, seed=9)

    @pytest.mark.parametrize("domain", list(SMALL))
    def test_unknown_family_rejected(self, datasets, domain):
        with pytest.raises(ValueError):
            DOMAIN_QUERIES[domain].make_batch(datasets[domain], "Q99", n=3, seed=0)

    def test_families_have_varied_selectivity(self, datasets):
        """Query instances differ (parameters actually vary)."""

        ds = datasets["news"]
        module = DOMAIN_QUERIES["news"]
        batch = module.make_batch(ds, "Q1", n=20, seed=5)
        bodies = {p.body for p in batch}
        assert len(bodies) > 3


class TestHoisting:
    def test_each_call_hoisted_once(self):
        pred = and_(
            eq(call("f", arg("row")), 1), lt(call("f", arg("row")), call("g", arg("row")))
        )
        stmts, rewritten = hoist_calls(pred)
        assert len(stmts) == 2  # f(row) once, g(row) once
        from repro.lang.visitors import expr_calls

        assert not expr_calls(rewritten)

    def test_nested_calls_hoist_inner_first(self):
        pred = gt(call("f", call("g", arg("row"))), 0)
        stmts, rewritten = hoist_calls(pred)
        assert len(stmts) == 2
        # The outer call must reference the inner hoisted variable.
        from repro.lang.visitors import expr_vars

        assert expr_vars(stmts[1].expr)

    def test_semantics_preserved(self):
        from repro.lang import FunctionTable, LibraryFunction
        from repro.queries.families import expr_to_program

        ft = FunctionTable(
            [
                LibraryFunction("f", lambda r: r + 3, cost=10),
                LibraryFunction("g", lambda r: r * 2, cost=10),
            ]
        )
        pred = gt(call("f", call("g", arg("row"))), 10)
        p = expr_to_program("q", pred)
        for row in range(8):
            assert run_program(p, {"row": row}, ft).notifications == {
                "q": (row * 2 + 3) > 10
            }
