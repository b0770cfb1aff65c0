"""End-to-end integration tests over the realistic workload generators.

These tests exercise the full pipeline -- generator -> schema/interface ->
discovery algorithm -> result verification -- at small but realistic scale,
including the paper's cross-cutting claims (filtering attributes are
harmless, the ranking function does not affect completeness, the dispatcher
handles every taxonomy the generators produce).
"""

import numpy as np
import pytest

from repro import (
    Discoverer,
    LinearRanker,
    Query,
    TopKInterface,
    discover,
)
from repro.datagen import (
    autos_table,
    diamonds_table,
    flight_instance,
    flights_mixed_table,
    flights_pq_table,
    flights_range_table,
)


def _truth(table):
    return frozenset(
        tuple(int(v) for v in row)
        for row in table.matrix[table.skyline_indices()]
    )


class TestFlightsPipeline:
    def test_range_interface(self):
        table = flights_range_table(5000, 4, seed=3)
        result = discover(TopKInterface(table, k=10))
        assert result.complete
        assert result.skyline_values == _truth(table)

    def test_pq_interface(self):
        table = flights_pq_table(5000, 3, seed=3)
        result = discover(TopKInterface(table, k=10))
        assert result.skyline_values == _truth(table)

    def test_mixed_interface(self):
        table = flights_mixed_table(5000, 2, 2, seed=3)
        result = discover(TopKInterface(table, k=10))
        assert result.skyline_values == _truth(table)

    def test_filtering_condition_scopes_discovery(self):
        """Skyline subject to a filtering condition (§2.1): append the
        condition to every query and get the sub-database's skyline."""
        table = flights_range_table(5000, 3, seed=4)
        carrier = 5
        base = Query.select_all().and_filter("carrier", carrier)
        result = discover(TopKInterface(table, k=10))
        scoped = Discoverer().run(
            TopKInterface(table, k=10), "rq", base_query=base
        )
        keep = [
            rid for rid in range(table.n)
            if table.filter_value("carrier", rid) == carrier
        ]
        sub_matrix = table.matrix[keep]
        from repro.core.dominance import skyline_indices

        sub_truth = frozenset(
            tuple(int(v) for v in sub_matrix[i])
            for i in skyline_indices(sub_matrix)
        )
        assert scoped.skyline_values == sub_truth
        # The scoped skyline is generally different from the global one.
        assert result.skyline_values != sub_truth


class TestMarketplacePipelines:
    def test_diamonds_price_ranking(self):
        table = diamonds_table(3000, seed=5)
        interface = TopKInterface(
            table, ranker=LinearRanker.single_attribute(0, 5), k=50
        )
        result = discover(interface)
        assert result.skyline_values == _truth(table)
        # The paper's headline: a few queries per discovered skyline tuple.
        assert result.total_cost <= 10 * result.skyline_size

    def test_autos_skyband_pipeline(self):
        table = autos_table(2000, seed=6)
        interface = TopKInterface(
            table, ranker=LinearRanker.single_attribute(0, 3), k=50
        )
        band = Discoverer().skyband(interface, 2, "rq")
        truth = frozenset(
            tuple(int(v) for v in row)
            for row in table.matrix[table.skyband_indices(2)]
        )
        assert band.skyband_values == truth

    def test_gflights_within_quota(self):
        for seed in range(5):
            table = flight_instance(seed=seed)
            interface = TopKInterface(
                table, ranker=LinearRanker.single_attribute(1, 4), k=1
            )
            result = discover(interface)
            assert result.skyline_values == _truth(table)
            assert result.total_cost <= 50

    def test_baseline_agrees_with_discovery(self):
        # Discovery beats crawling in the paper's regime |S| << n; on tiny
        # tables where a fifth of the tuples are skyline, crawling can win.
        table = flights_range_table(8000, 4, seed=7)
        k = 20
        discovery = discover(TopKInterface(table, k=k))
        baseline = Discoverer().run(TopKInterface(table, k=k), "baseline")
        assert discovery.skyline_values == baseline.skyline_values
        assert discovery.total_cost < baseline.total_cost


class TestCrossRankerAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_all_rankers_find_the_same_skyline(self, seed):
        """The skyline is ranking-independent; discovery must be too."""
        from repro.hiddendb import LexicographicRanker, RandomSkylineRanker

        table = flights_mixed_table(3000, 2, 1, seed=seed)
        results = set()
        for ranker in (
            LinearRanker(),
            LinearRanker.single_attribute(0, 3),
            LexicographicRanker([2, 0, 1]),
            RandomSkylineRanker(seed=seed),
        ):
            result = discover(TopKInterface(table, ranker=ranker, k=5))
            results.add(result.skyline_values)
        assert len(results) == 1
        assert results.pop() == _truth(table)


class TestScalability:
    def test_cost_decoupled_from_n(self):
        """The library's core promise: query cost tracks |S|, not n."""
        small = flights_range_table(2000, 4, seed=8)
        large = flights_range_table(40_000, 4, seed=8)
        cost_small = discover(TopKInterface(small, k=10)).total_cost
        cost_large = discover(TopKInterface(large, k=10)).total_cost
        assert cost_large < 100 * cost_small
        assert cost_large < large.n / 10  # nowhere near crawling
