"""Tests for the BASELINE crawler."""

import numpy as np
import pytest

from repro import Discoverer
from repro.core import crawl_all
from repro.core.base import DiscoverySession
from repro.hiddendb import InterfaceKind, Query, TopKInterface

from ..conftest import make_table, random_table, truth_values

K = InterfaceKind


class TestCrawlCompleteness:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 5])
    def test_crawl_retrieves_every_tuple(self, seed, k):
        rng = np.random.default_rng(seed)
        table = random_table(rng, [K.RQ] * 3, n=120, domain=10,
                             distinct=True)
        interface = TopKInterface(table, k=k)
        session = DiscoverySession(interface)
        complete = crawl_all(session)
        if k > 1:
            assert complete
        # At k = 1 a fully-specified cell always *looks* overflowing (the
        # exactly-k proxy), so the crawl cannot certify completeness -- but
        # it still retrieves every tuple.
        assert len(session.retrieved_rows) == table.n

    def test_crawl_with_pq_attribute(self):
        rng = np.random.default_rng(9)
        table = random_table(rng, [K.RQ, K.PQ], n=30, domain=6,
                             distinct=True)
        session = DiscoverySession(TopKInterface(table, k=2))
        assert crawl_all(session)
        assert len(session.retrieved_rows) == table.n

    def test_crawl_pure_pq(self):
        rng = np.random.default_rng(10)
        table = random_table(rng, [K.PQ, K.PQ], n=30, domain=6,
                             distinct=True)
        session = DiscoverySession(TopKInterface(table, k=2))
        assert crawl_all(session)
        assert len(session.retrieved_rows) == table.n

    def test_crawl_scoped_to_root(self):
        table = make_table([(0, 0), (3, 3), (7, 7)], domain=10)
        session = DiscoverySession(TopKInterface(table, k=1))
        root = Query.select_all().and_upper(0, 5)
        crawl_all(session, root=root)
        assert {row.values for row in session.retrieved_rows} == {(0, 0), (3, 3)}

    def test_duplicate_pileup_reports_incomplete(self):
        # 5 identical tuples through a top-2 interface: no split can separate
        # them, so the crawl must flag incompleteness.
        table = make_table([(1, 1)] * 5, domain=3)
        session = DiscoverySession(TopKInterface(table, k=2))
        assert not crawl_all(session)

    def test_empty_database(self):
        table = make_table(np.empty((0, 2), dtype=np.int64), domain=4)
        session = DiscoverySession(TopKInterface(table, k=1))
        assert crawl_all(session)
        assert session.cost == 1


class TestBaselineSkyline:
    def test_skyline_matches_truth(self):
        rng = np.random.default_rng(11)
        table = random_table(rng, [K.RQ] * 3, n=150, domain=8)
        result = Discoverer().run(TopKInterface(table, k=5), "baseline")
        assert result.skyline_values == truth_values(table)
        assert result.algorithm == "BASELINE"

    def test_cost_scales_with_n_not_skyline(self):
        rng = np.random.default_rng(12)
        small = random_table(rng, [K.RQ] * 2, n=100, domain=50)
        large = random_table(rng, [K.RQ] * 2, n=800, domain=50)
        disc = Discoverer()
        cost_small = disc.run(TopKInterface(small, k=5), "baseline").total_cost
        cost_large = disc.run(TopKInterface(large, k=5), "baseline").total_cost
        assert cost_large > 3 * cost_small

    def test_baseline_loses_to_rq_discovery(self):
        """The headline comparison of Figures 13/22/24."""
        rng = np.random.default_rng(13)
        table = random_table(rng, [K.RQ] * 3, n=600, domain=12)
        k = 10
        disc = Discoverer()
        rq_cost = disc.run(TopKInterface(table, k=k), "rq").total_cost
        baseline_cost = disc.run(
            TopKInterface(table, k=k), "baseline"
        ).total_cost
        assert baseline_cost > 2 * rq_cost

    def test_budget_cutoff_yields_partial(self):
        rng = np.random.default_rng(14)
        table = random_table(rng, [K.RQ] * 3, n=400, domain=10)
        result = Discoverer().run(
            TopKInterface(table, k=2, budget=10), "baseline"
        )
        assert not result.complete
        assert len(result.retrieved) <= 20
