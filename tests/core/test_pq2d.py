"""Tests for PQ-2D-SKY (instance-optimal 2-D point interfaces)."""

import numpy as np
import pytest

from repro import Discoverer
from repro.core.analysis import pq_2d_cost
from repro.hiddendb import (
    InterfaceKind,
    LexicographicRanker,
    LinearRanker,
    TopKInterface,
)

from ..conftest import make_table, random_table, truth_values


def _pq_table(values, domain):
    return make_table(values, kinds=InterfaceKind.PQ, domain=domain)


class TestCorrectness:
    def test_staircase(self):
        table = _pq_table([(0, 4), (1, 3), (2, 2), (3, 1), (4, 0), (3, 3)], 5)
        result = Discoverer().run(TopKInterface(table, k=1), "pq2d")
        assert result.skyline_values == {(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)}

    def test_requires_two_attributes(self):
        table = make_table([(1, 1, 1)], kinds=InterfaceKind.PQ, domain=5)
        with pytest.raises(ValueError):
            Discoverer().run(TopKInterface(table, k=1), "pq2d")

    def test_empty_database(self):
        table = _pq_table(np.empty((0, 2), dtype=np.int64), 5)
        result = Discoverer().run(TopKInterface(table, k=1), "pq2d")
        assert result.skyline_values == frozenset()
        assert result.total_cost == 1

    def test_corner_tuple_dominates_everything(self):
        table = _pq_table([(0, 0), (3, 4), (2, 2)], 5)
        result = Discoverer().run(TopKInterface(table, k=1), "pq2d")
        assert result.skyline_values == {(0, 0)}
        assert result.total_cost == 1  # both residual rectangles are empty

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 3])
    def test_random_instances(self, seed, k):
        rng = np.random.default_rng(seed)
        table = random_table(rng, [InterfaceKind.PQ] * 2, n=80, domain=9)
        result = Discoverer().run(TopKInterface(table, k=k), "pq2d")
        assert result.skyline_values == truth_values(table)

    def test_ill_behaved_ranker(self):
        rng = np.random.default_rng(40)
        table = random_table(rng, [InterfaceKind.PQ] * 2, n=60, domain=8)
        interface = TopKInterface(table, ranker=LexicographicRanker([1, 0]), k=1)
        result = Discoverer().run(interface, "pq2d")
        assert result.skyline_values == truth_values(table)


class TestInstanceOptimalCost:
    """PQ-2D-SKY's cost must equal Eq. (11) plus the initial SELECT *."""

    def _check_cost(self, values, domain, expect_cheap=False):
        table = _pq_table(values, domain)
        result = Discoverer().run(TopKInterface(table, k=1), "pq2d")
        skyline = sorted(
            {tuple(int(v) for v in row) for row in
             table.matrix[table.skyline_indices()]}
        )
        formula = pq_2d_cost(skyline, domain, domain)
        assert result.total_cost == formula + 1
        if expect_cheap:
            assert result.total_cost <= 2 * len(skyline) + 1

    def test_cost_formula_staircase(self):
        self._check_cost([(0, 4), (2, 2), (4, 0)], 5)

    def test_cost_formula_single_point(self):
        self._check_cost([(2, 3)], 6)

    @pytest.mark.parametrize("seed", range(10))
    def test_cost_formula_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        values = [tuple(rng.integers(0, 10, 2)) for _ in range(n)]
        self._check_cost(values, 10)

    def test_cost_bounds_from_paper(self):
        """C <= t1[A2], C <= t_S[A1], C <= min_i (t_i[A1] + t_i[A2])."""
        rng = np.random.default_rng(50)
        for _ in range(5):
            table = random_table(rng, [InterfaceKind.PQ] * 2, n=50, domain=12)
            if table.skyline_indices().size == 0:
                continue
            result = Discoverer().run(TopKInterface(table, k=1), "pq2d")
            skyline = sorted(result.skyline_values)
            bound = min(x + y for x, y in skyline)
            assert result.total_cost - 1 <= bound


class TestDenseDomains:
    def test_fully_occupied_domains_are_cheap(self):
        """With every domain value occupied the cost stays near 2|S| -- the
        practical argument of §5.1 for real PQ attributes."""
        domain = 8
        values = [(x, y) for x in range(domain) for y in range(domain)]
        table = _pq_table(values, domain)
        result = Discoverer().run(TopKInterface(table, k=1), "pq2d")
        assert result.skyline_values == {(0, 0)}
        assert result.total_cost == 1
