"""Tests for RQ-DB-SKY (two-ended range interfaces)."""

import numpy as np
import pytest

from repro import Discoverer
from repro.hiddendb import (
    InterfaceKind,
    LexicographicRanker,
    LinearRanker,
    RandomSkylineRanker,
    TopKInterface,
)

from ..conftest import make_table, random_table, truth_values


class TestPaperExample:
    def test_figure_2_skyline(self, simple_interface, simple_table):
        result = Discoverer().run(simple_interface, "rq")
        assert result.skyline_values == {(5, 1, 9), (1, 3, 7), (3, 2, 3)}

    def test_each_skyline_tuple_retrieved_once_with_k1(self, simple_table):
        """With mutually exclusive branches every skyline tuple is returned
        by exactly one issued query (§4.1)."""
        result = Discoverer().run(
            TopKInterface(simple_table, k=1), "rq", record_log=True
        )
        returned = [
            row.rid for answer in result.query_log for row in answer.rows
        ]
        skyline_rids = {row.rid for row in result.skyline}
        for rid in skyline_rids:
            assert returned.count(rid) == 1


class TestCompleteness:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 4])
    def test_random_instances(self, seed, k):
        rng = np.random.default_rng(seed)
        table = random_table(rng, [InterfaceKind.RQ] * 3, n=200, domain=9)
        result = Discoverer().run(TopKInterface(table, k=k), "rq")
        assert result.skyline_values == truth_values(table)

    @pytest.mark.parametrize(
        "ranker",
        [LinearRanker(), LexicographicRanker([1, 0, 2]), RandomSkylineRanker(seed=4)],
    )
    def test_any_domination_consistent_ranker(self, ranker):
        rng = np.random.default_rng(20)
        table = random_table(rng, [InterfaceKind.RQ] * 3, n=150, domain=8)
        result = Discoverer().run(
            TopKInterface(table, ranker=ranker, k=1), "rq"
        )
        assert result.skyline_values == truth_values(table)

    def test_empty_database(self):
        table = make_table(np.empty((0, 2), dtype=np.int64), domain=5)
        result = Discoverer().run(TopKInterface(table, k=1), "rq")
        assert result.skyline_values == frozenset()

    def test_mixed_sq_rq_attributes(self):
        """two_ended restricted to a subset (the MQ range phase)."""
        rng = np.random.default_rng(21)
        kinds = [InterfaceKind.SQ, InterfaceKind.RQ, InterfaceKind.SQ]
        table = random_table(rng, kinds, n=200, domain=8)
        # Branch in schema order; by default the runner would branch on the
        # two-ended attribute first.
        result = Discoverer().run(
            TopKInterface(table, k=2),
            "rq",
            options={"branch_attributes": (0, 1, 2), "two_ended": (1,)},
        )
        assert result.skyline_values == truth_values(table)

    def test_two_ended_must_be_subset_of_branches(self):
        table = make_table([(1, 1)], domain=5)
        with pytest.raises(ValueError):
            Discoverer().run(
                TopKInterface(table, k=1),
                "rq",
                options={"branch_attributes": (0,), "two_ended": (1,)},
            )


class TestEarlyTermination:
    def test_disabled_matches_sq_traversal(self):
        """The ablation: without the seen-tuple check RQ-DB-SKY issues the
        same one-ended queries as SQ-DB-SKY."""
        rng = np.random.default_rng(30)
        table = random_table(rng, [InterfaceKind.RQ] * 3, n=200, domain=8)
        sq = Discoverer().run(TopKInterface(table, k=1), "sq")
        ablated = Discoverer().run(
            TopKInterface(table, k=1),
            "rq",
            options={"early_termination": False},
        )
        assert ablated.skyline_values == sq.skyline_values
        assert ablated.total_cost == sq.total_cost

    def test_rq_never_much_worse_than_sq(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            table = random_table(rng, [InterfaceKind.RQ] * 3,
                                 n=int(rng.integers(50, 400)), domain=10)
            disc = Discoverer()
            rq_cost = disc.run(TopKInterface(table, k=1), "rq").total_cost
            sq_cost = disc.run(TopKInterface(table, k=1), "sq").total_cost
            assert rq_cost <= sq_cost

    @pytest.mark.parametrize("seed", range(4))
    def test_rq_wins_on_anticorrelated_data(self, seed):
        """Large skylines are where early termination pays (Figure 6)."""
        from repro.datagen.synthetic import correlated

        table = correlated(300, 3, domain=12, rho=-0.8, seed=seed)
        rq_cost = Discoverer().run(TopKInterface(table, k=1), "rq").total_cost
        sq_cost = Discoverer().run(TopKInterface(table, k=1), "sq").total_cost
        assert rq_cost < sq_cost

    def test_cost_bounded_by_tree_over_tuples(self):
        """Worst case O(m * min(|S|^(m+1), n)): interior nodes are bounded by
        the number of tuples, so cost <= (m + 1) * (n + 1) always holds."""
        rng = np.random.default_rng(32)
        table = random_table(rng, [InterfaceKind.RQ] * 2, n=100, domain=50)
        result = Discoverer().run(TopKInterface(table, k=1), "rq")
        assert result.total_cost <= 3 * 101


class TestAnytime:
    def test_trace_prefixes_are_true_skyline(self):
        rng = np.random.default_rng(33)
        table = random_table(rng, [InterfaceKind.RQ] * 3, n=300, domain=12)
        result = Discoverer().run(TopKInterface(table, k=3), "rq")
        truth = truth_values(table)
        for entry in result.trace:
            assert entry.row.values in truth

    def test_budget_partial_is_subset(self):
        from repro.datagen.synthetic import correlated

        table = correlated(300, 3, domain=12, rho=-0.8, seed=1)
        full = Discoverer().run(TopKInterface(table, k=1), "rq")
        assert full.total_cost > 4  # the budget below must actually bite
        partial = Discoverer().run(
            TopKInterface(table, k=1, budget=max(full.total_cost // 2, 1)),
            "rq",
        )
        assert not partial.complete
        assert partial.skyline_values <= full.skyline_values
