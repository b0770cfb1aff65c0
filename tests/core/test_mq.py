"""Tests for MQ-DB-SKY (mixed interfaces) and the universal dispatcher."""

import numpy as np
import pytest

from repro import Discoverer
from repro.core import DiscoverySession, discover, rq_db_sky
from repro.hiddendb import InterfaceKind, LinearRanker, TopKInterface

from ..conftest import make_table, random_table, truth_values

K = InterfaceKind


class TestDispatch:
    def test_pure_sq_routes_to_sq(self):
        table = make_table([(1, 1)], kinds=K.SQ, domain=4)
        assert discover(TopKInterface(table, k=1)).algorithm == "SQ-DB-SKY"

    def test_pure_rq_routes_to_rq(self):
        table = make_table([(1, 1)], kinds=K.RQ, domain=4)
        assert discover(TopKInterface(table, k=1)).algorithm == "RQ-DB-SKY"

    def test_sq_rq_mixture_routes_to_rq(self):
        table = make_table([(1, 1)], kinds=[K.SQ, K.RQ], domain=4)
        assert discover(TopKInterface(table, k=1)).algorithm == "RQ-DB-SKY"

    def test_pure_pq_routes_to_pq(self):
        table = make_table([(1, 1, 1)], kinds=K.PQ, domain=4)
        assert discover(TopKInterface(table, k=1)).algorithm == "PQ-DB-SKY"

    def test_two_d_pq_reports_2d_name(self):
        table = make_table([(1, 1)], kinds=K.PQ, domain=4)
        assert discover(TopKInterface(table, k=1)).algorithm == "PQ-2D-SKY"

    def test_true_mixture_routes_to_mq(self):
        table = make_table([(1, 1)], kinds=[K.RQ, K.PQ], domain=4)
        assert discover(TopKInterface(table, k=1)).algorithm == "MQ-DB-SKY"


class TestRangeDominationGap:
    def test_point_beating_tuple_is_found(self):
        """The §6 motivating case: a tuple range-dominated by a discovered
        skyline tuple but better on a point attribute must not be missed."""
        # (range, point): (1, 3) is on the skyline; (2, 0) is range-dominated
        # by it but beats it on the point attribute.
        table = make_table([(1, 3), (2, 0), (3, 3)], kinds=[K.RQ, K.PQ],
                           domain=5)
        result = Discoverer().run(TopKInterface(table, k=1), "mq")
        assert result.skyline_values == {(1, 3), (2, 0)}

    def test_range_only_phase_would_miss_it(self):
        # Under a ranker favouring the range attribute, (2, 0) is never the
        # top answer of any range-only query, so the range phase misses it.
        table = make_table([(1, 3), (2, 0), (3, 3)], kinds=[K.RQ, K.PQ],
                           domain=5)
        ranker = LinearRanker([1.0, 0.1])
        # RQ-DB-SKY's taxonomy excludes point attributes, so the range
        # phase runs on a bare session.
        session = DiscoverySession(TopKInterface(table, ranker=ranker, k=1))
        rq_db_sky(session, branch_attributes=(0,), two_ended=(0,))
        range_only = session.result("RQ-DB-SKY")
        assert (2, 0) not in range_only.skyline_values
        full = Discoverer().run(TopKInterface(table, ranker=ranker, k=1), "mq")
        assert (2, 0) in full.skyline_values


class TestCompleteness:
    @pytest.mark.parametrize("kinds", [
        [K.RQ, K.PQ],
        [K.SQ, K.PQ],
        [K.RQ, K.RQ, K.PQ],
        [K.SQ, K.RQ, K.PQ],
        [K.RQ, K.PQ, K.PQ],
        [K.SQ, K.SQ, K.PQ, K.PQ],
    ])
    @pytest.mark.parametrize("k", [1, 3])
    def test_random_instances(self, kinds, k):
        rng = np.random.default_rng(len(kinds) * 100 + k)
        table = random_table(rng, kinds, n=180, domain=7)
        result = Discoverer().run(TopKInterface(table, k=k), "mq")
        assert result.skyline_values == truth_values(table)

    def test_degenerate_no_point_attributes(self):
        rng = np.random.default_rng(5)
        table = random_table(rng, [K.RQ, K.SQ], n=100, domain=8)
        result = Discoverer().run(TopKInterface(table, k=2), "mq")
        assert result.skyline_values == truth_values(table)

    def test_degenerate_no_range_attributes(self):
        rng = np.random.default_rng(6)
        table = random_table(rng, [K.PQ, K.PQ, K.PQ], n=100, domain=5)
        result = Discoverer().run(TopKInterface(table, k=2), "mq")
        assert result.skyline_values == truth_values(table)

    def test_empty_database(self):
        table = make_table(np.empty((0, 2), dtype=np.int64),
                           kinds=[K.RQ, K.PQ], domain=4)
        result = Discoverer().run(TopKInterface(table, k=1), "mq")
        assert result.skyline_values == frozenset()

    def test_price_ascending_default_ranking(self):
        """The live-site configuration: single-attribute default ranking."""
        rng = np.random.default_rng(7)
        table = random_table(rng, [K.RQ, K.RQ, K.PQ], n=200, domain=7)
        interface = TopKInterface(
            table, ranker=LinearRanker.single_attribute(0, 3), k=5
        )
        result = Discoverer().run(interface, "mq")
        assert result.skyline_values == truth_values(table)

    def test_deep_point_recursion(self):
        """Several PQ attributes force the recursive overflow resolution."""
        rng = np.random.default_rng(8)
        table = random_table(rng, [K.RQ, K.PQ, K.PQ, K.PQ], n=300, domain=4)
        result = Discoverer().run(TopKInterface(table, k=1), "mq")
        assert result.skyline_values == truth_values(table)

    def test_budget_partial_is_sound(self):
        rng = np.random.default_rng(9)
        table = random_table(rng, [K.RQ, K.PQ, K.PQ], n=250, domain=6)
        full = Discoverer().run(TopKInterface(table, k=1), "mq")
        if full.total_cost <= 2:
            pytest.skip("instance too easy")
        partial = Discoverer().run(
            TopKInterface(table, k=1, budget=full.total_cost // 2), "mq"
        )
        assert not partial.complete
        assert partial.skyline_values <= full.skyline_values
