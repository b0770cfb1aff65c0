"""Tests for SQ-DB-SKY (one-ended range interfaces)."""

import numpy as np
import pytest

from repro import Discoverer
from repro.core.analysis import expected_cost_recurrence
from repro.hiddendb import (
    InterfaceKind,
    LexicographicRanker,
    LinearRanker,
    Query,
    RandomSkylineRanker,
    TopKInterface,
)

from ..conftest import make_table, random_table, truth_values


class TestPaperExample:
    def test_figure_2_skyline(self, simple_table):
        """The running example of Figures 2-3: t1, t3, t4 are on the skyline."""
        sq = simple_table.with_kinds(
            {a.name: InterfaceKind.SQ for a in simple_table.schema.ranking_attributes}
        )
        interface = TopKInterface(sq, k=1)
        result = Discoverer().run(interface, "sq")
        assert result.skyline_values == {(5, 1, 9), (1, 3, 7), (3, 2, 3)}
        assert result.complete


class TestCompleteness:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 3])
    def test_random_instances(self, seed, k):
        rng = np.random.default_rng(seed)
        table = random_table(rng, [InterfaceKind.SQ] * 3, n=150, domain=8)
        interface = TopKInterface(table, k=k)
        result = Discoverer().run(interface, "sq")
        assert result.skyline_values == truth_values(table)

    @pytest.mark.parametrize(
        "ranker",
        [LinearRanker(), LexicographicRanker(), RandomSkylineRanker(seed=2)],
    )
    def test_any_domination_consistent_ranker(self, ranker):
        rng = np.random.default_rng(10)
        table = random_table(rng, [InterfaceKind.SQ] * 3, n=120, domain=7)
        interface = TopKInterface(table, ranker=ranker, k=1)
        result = Discoverer().run(interface, "sq")
        assert result.skyline_values == truth_values(table)

    def test_empty_database(self):
        table = make_table(np.empty((0, 2), dtype=np.int64), domain=5,
                           kinds=InterfaceKind.SQ)
        result = Discoverer().run(TopKInterface(table, k=1), "sq")
        assert result.skyline_values == frozenset()
        assert result.total_cost == 1  # SELECT * only

    def test_single_tuple(self):
        table = make_table([(2, 3)], domain=5, kinds=InterfaceKind.SQ)
        result = Discoverer().run(TopKInterface(table, k=1), "sq")
        assert result.skyline_values == {(2, 3)}

    def test_duplicated_skyline_vectors(self):
        table = make_table([(1, 1), (1, 1), (2, 2)], domain=5,
                           kinds=InterfaceKind.SQ)
        result = Discoverer().run(TopKInterface(table, k=1), "sq")
        assert result.skyline_values == {(1, 1)}

    def test_with_base_query_filter(self):
        table = make_table(
            [(0, 5), (5, 0), (3, 3)],
            kinds=InterfaceKind.SQ,
            domain=10,
            filters={"city": [0, 1, 1]},
            filter_domains={"city": 2},
        )
        base = Query.select_all().and_filter("city", 1)
        result = Discoverer().run(
            TopKInterface(table, k=1), "sq", base_query=base
        )
        assert result.skyline_values == {(5, 0), (3, 3)}


class TestQueryCostProperties:
    def test_single_skyline_costs_m_plus_one(self):
        # A sole skyline tuple with non-zero values: root plus m empty
        # branches, the paper's C_1 = m + 1.
        table = make_table([(1, 1, 1), (2, 2, 2)], domain=5,
                           kinds=InterfaceKind.SQ)
        result = Discoverer().run(TopKInterface(table, k=1), "sq")
        assert result.total_cost == 4

    def test_larger_k_never_hurts(self):
        rng = np.random.default_rng(3)
        table = random_table(rng, [InterfaceKind.SQ] * 3, n=300, domain=10)
        costs = []
        for k in (1, 5, 20):
            result = Discoverer().run(TopKInterface(table, k=k), "sq")
            assert result.skyline_values == truth_values(table)
            costs.append(result.total_cost)
        assert costs[0] >= costs[1] >= costs[2]

    def test_average_case_recurrence_matches_simulation(self):
        """Monte-Carlo check of Eq. (4) under the random-skyline ranker.

        Uses an anti-chain of skyline tuples with all values >= 1 so every
        branch is issuable, matching the counting convention of the analysis.
        """
        m, s = 2, 3
        # Skyline {(1,4), (2,3), (3,2), (4,1)} restricted to s = 3 points.
        table = make_table([(1, 4), (2, 3), (3, 2)], domain=6,
                           kinds=InterfaceKind.SQ)
        expected = float(expected_cost_recurrence(m, s))
        costs = []
        for seed in range(400):
            interface = TopKInterface(
                table, ranker=RandomSkylineRanker(seed=seed), k=1
            )
            costs.append(Discoverer().run(interface, "sq").total_cost)
        average = sum(costs) / len(costs)
        assert abs(average - expected) / expected < 0.08

    def test_anytime_trace_prefixes_are_true_skyline(self):
        rng = np.random.default_rng(8)
        table = random_table(rng, [InterfaceKind.SQ] * 3, n=200, domain=10)
        result = Discoverer().run(TopKInterface(table, k=2), "sq")
        truth = truth_values(table)
        for entry in result.trace:
            assert entry.row.values in truth

    def test_budget_exhaustion_is_partial_but_sound(self):
        rng = np.random.default_rng(9)
        table = random_table(rng, [InterfaceKind.SQ] * 4, n=400, domain=12)
        full = Discoverer().run(TopKInterface(table, k=1), "sq")
        budget = max(full.total_cost // 3, 1)
        partial = Discoverer().run(
            TopKInterface(table, k=1, budget=budget), "sq"
        )
        assert not partial.complete
        assert partial.skyline_values <= full.skyline_values
