"""Tests for PQ-DB-SKY (higher-dimensional point interfaces)."""

import numpy as np
import pytest

from repro import Discoverer
from repro.core.pq import choose_plane_attributes, plane_combinations
from repro.hiddendb import (
    InterfaceKind,
    LexicographicRanker,
    TopKInterface,
)

from ..conftest import make_table, random_table, truth_values


class TestPlaneSelection:
    def test_largest_domains_chosen(self):
        assert choose_plane_attributes((3, 11, 4, 12)) == (1, 3)

    def test_tie_breaks_by_index(self):
        assert choose_plane_attributes((5, 5, 5)) == (0, 1)

    def test_requires_two_attributes(self):
        with pytest.raises(ValueError):
            choose_plane_attributes((4,))

    def test_combinations_sorted_by_dominance_sum(self):
        combos = plane_combinations((2, 9, 9, 3), others=[0, 3])
        sums = [sum(combo) for combo in combos]
        assert sums == sorted(sums)
        assert combos[0] == (0, 0)
        assert len(combos) == 6

    def test_no_other_attributes_yields_single_plane(self):
        assert plane_combinations((9, 9), others=[]) == [()]


class TestCorrectness:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 3])
    def test_random_instances(self, m, k):
        rng = np.random.default_rng(m * 10 + k)
        table = random_table(rng, [InterfaceKind.PQ] * m, n=120, domain=6)
        result = Discoverer().run(TopKInterface(table, k=k), "pq")
        assert result.skyline_values == truth_values(table)

    def test_single_attribute_database(self):
        table = make_table([(3,), (1,), (4,), (1,)], kinds=InterfaceKind.PQ,
                           domain=6)
        result = Discoverer().run(TopKInterface(table, k=1), "pq")
        assert result.skyline_values == {(1,)}
        # Probes 0 (empty) then 1 (hit): exactly two queries.
        assert result.total_cost == 2

    def test_empty_database(self):
        table = make_table(np.empty((0, 3), dtype=np.int64),
                           kinds=InterfaceKind.PQ, domain=4)
        result = Discoverer().run(TopKInterface(table, k=1), "pq")
        assert result.skyline_values == frozenset()

    def test_underflowing_select_star_finishes_in_one_query(self):
        table = make_table([(1, 2, 3), (3, 2, 1)], kinds=InterfaceKind.PQ,
                           domain=4)
        result = Discoverer().run(TopKInterface(table, k=5), "pq")
        assert result.total_cost == 1
        assert result.skyline_values == {(1, 2, 3), (3, 2, 1)}

    def test_ill_behaved_ranker(self):
        rng = np.random.default_rng(60)
        table = random_table(rng, [InterfaceKind.PQ] * 3, n=100, domain=5)
        interface = TopKInterface(table, ranker=LexicographicRanker([2, 1, 0]), k=1)
        result = Discoverer().run(interface, "pq")
        assert result.skyline_values == truth_values(table)

    def test_plane_attribute_override(self):
        rng = np.random.default_rng(61)
        table = random_table(rng, [InterfaceKind.PQ] * 3, n=100, domain=5)
        result = Discoverer().run(
            TopKInterface(table, k=2), "pq",
            options={"plane_attributes": (0, 1)},
        )
        assert result.skyline_values == truth_values(table)

    def test_identical_plane_attributes_rejected(self):
        table = make_table([(1, 1, 1)], kinds=InterfaceKind.PQ, domain=4)
        with pytest.raises(ValueError):
            Discoverer().run(
                TopKInterface(table, k=1), "pq",
                options={"plane_attributes": (1, 1)},
            )

    def test_plane_limit_guard(self):
        table = make_table([(1, 1, 1, 1)], kinds=InterfaceKind.PQ, domain=4)
        # Force overflow on SELECT * so the plane machinery engages.
        big = make_table([(i % 4, i % 3, (i * 2) % 4, i % 2) for i in range(50)],
                         kinds=InterfaceKind.PQ, domain=4)
        with pytest.raises(ValueError):
            Discoverer().run(
                TopKInterface(big, k=1), "pq", options={"plane_limit": 2}
            )
        del table


class TestCostBehaviour:
    def test_corner_tuple_prunes_every_plane(self):
        values = [(0, 0, 0)] + [(3, 3, 3), (2, 3, 1)]
        table = make_table(values, kinds=InterfaceKind.PQ, domain=4)
        result = Discoverer().run(TopKInterface(table, k=1), "pq")
        assert result.skyline_values == {(0, 0, 0)}
        assert result.total_cost == 1

    def test_cost_grows_with_dimensions_not_n(self):
        rng = np.random.default_rng(62)
        costs = {}
        for m in (3, 4):
            table = random_table(rng, [InterfaceKind.PQ] * m, n=400, domain=5)
            result = Discoverer().run(TopKInterface(table, k=3), "pq")
            costs[m] = result.total_cost
        assert costs[4] > costs[3]

    def test_cost_independent_of_duplicating_tuples(self):
        rng = np.random.default_rng(63)
        base = rng.integers(0, 5, (60, 3))
        small = make_table(base, kinds=InterfaceKind.PQ, domain=5)
        big = make_table(np.vstack([base] * 5), kinds=InterfaceKind.PQ, domain=5)
        cost_small = Discoverer().run(TopKInterface(small, k=3), "pq").total_cost
        cost_big = Discoverer().run(TopKInterface(big, k=3), "pq").total_cost
        assert cost_big == cost_small

    def test_anytime_trace_is_true_skyline(self):
        rng = np.random.default_rng(64)
        table = random_table(rng, [InterfaceKind.PQ] * 3, n=150, domain=6)
        result = Discoverer().run(TopKInterface(table, k=2), "pq")
        truth = truth_values(table)
        for entry in result.trace:
            assert entry.row.values in truth

    def test_budget_partial_is_sound(self):
        rng = np.random.default_rng(65)
        table = random_table(rng, [InterfaceKind.PQ] * 3, n=200, domain=6)
        full = Discoverer().run(TopKInterface(table, k=1), "pq")
        if full.total_cost <= 2:
            pytest.skip("instance too easy to test budgets")
        partial = Discoverer().run(
            TopKInterface(table, k=1, budget=full.total_cost // 2), "pq"
        )
        assert not partial.complete
        assert partial.skyline_values <= full.skyline_values
