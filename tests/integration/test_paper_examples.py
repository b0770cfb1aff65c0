"""Worked examples taken verbatim from the paper's text.

Each test encodes a concrete instance the paper walks through and checks
that our implementation behaves as the prose says it must.
"""

import pytest

from repro.core import Discoverer, discover
from repro.hiddendb import (
    InterfaceKind,
    LinearRanker,
    Query,
    TopKInterface,
)

from ..conftest import make_table

K = InterfaceKind


class TestFigure2RunningExample:
    """Figures 2/3/5: the 4-tuple, 3-attribute example database."""

    DATA = [(5, 1, 9), (4, 4, 8), (1, 3, 7), (3, 2, 3)]
    SKYLINE = {(5, 1, 9), (1, 3, 7), (3, 2, 3)}  # t1, t3, t4; t2 dominated by t4

    def test_t2_is_dominated_by_t4(self):
        from repro.core.dominance import dominates

        assert dominates((3, 2, 3), (4, 4, 8))

    @pytest.mark.parametrize("kind,algo", [
        (K.SQ, "sq"), (K.RQ, "rq"),
    ])
    def test_range_discovery(self, kind, algo):
        table = make_table(self.DATA, kinds=kind, domain=10)
        result = Discoverer().run(TopKInterface(table, k=1), algo)
        assert result.skyline_values == self.SKYLINE

    def test_rq_retrieves_each_skyline_tuple_exactly_once(self):
        """§4.1: with mutually exclusive branches 'every skyline tuple is
        returned by exactly one node in the tree'."""
        table = make_table(self.DATA, kinds=K.RQ, domain=10)
        result = Discoverer().run(
            TopKInterface(table, k=1), "rq", record_log=True
        )
        returns = [
            row.rid for answer in result.query_log for row in answer.rows
        ]
        for row in result.skyline:
            assert returns.count(row.rid) == 1


class TestSection3TreeExpansion:
    """§3.1: the root's children append A_i < t1[A_i] for each attribute."""

    def test_root_children_queries(self):
        table = make_table([(5, 1, 9), (4, 4, 8), (1, 3, 7), (3, 2, 3)],
                           kinds=K.SQ, domain=10)
        # Force t1 = (5, 1, 9) to be the root answer via a matching ranker.
        ranker = LinearRanker([0.1, 10.0, 0.1])
        log = Discoverer().run(
            TopKInterface(table, ranker=ranker, k=1), "sq", record_log=True
        ).query_log
        assert log[0].query == Query.select_all()
        assert log[0].top.values == (5, 1, 9)
        # The next three queries are exactly q2, q3, q4 of §3.1.
        expected = {
            Query.select_all().and_upper(0, 4),   # A1 < 5
            Query.select_all().and_upper(1, 0),   # A2 < 1
            Query.select_all().and_upper(2, 8),   # A3 < 9
        }
        assert {log[1].query, log[2].query, log[3].query} == expected


class TestSection52NegativeExample:
    """§5.2 / Figure 8: the 3-D, k = 2 instance showing 2-D queries can hide
    skyline tuples.  The database contains (1,1,1), (2,2,2), (2,0,0),
    (0,2,0), (0,0,2); its skyline is the four tuples besides (2,2,2)."""

    DATA = [(1, 1, 1), (2, 2, 2), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    SKYLINE = {(1, 1, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)}

    def test_ground_truth(self):
        table = make_table(self.DATA, kinds=K.PQ, domain=3)
        values = {
            tuple(int(v) for v in row)
            for row in table.matrix[table.skyline_indices()]
        }
        assert values == self.SKYLINE

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pq_discovery_complete_despite_hidden_tuples(self, k):
        table = make_table(self.DATA, kinds=K.PQ, domain=3)
        result = Discoverer().run(TopKInterface(table, k=k), "pq")
        assert result.skyline_values == self.SKYLINE

    def test_three_query_oracle_plan_exists(self):
        """The paper's optimal plan: SELECT *, z = 0, and x = 0 AND y = 0
        retrieve every skyline tuple when k = 2.  The paper's assumed
        answers rely on per-query ranking functions (which §5.2 explicitly
        allows); under a single global order (2,2,2) can never outrank its
        dominators, so this test uses the closest consistent fixed-priority
        ranking -- implemented as a custom Ranker, the extension point real
        reproductions of quirky site rankings would use."""
        import numpy as np

        from repro.hiddendb.ranking import BoundRanker, Ranker
        from repro.hiddendb.ranking import is_domination_consistent_order

        class FixedPriorityRanker(Ranker):
            """Rank rows by an explicit rid priority list."""

            def __init__(self, priority):
                self._rank = {rid: pos for pos, rid in enumerate(priority)}

            def bind(self, table):
                rank = self._rank

                class Bound(BoundRanker):
                    def top(self, indices, k):
                        ordered = sorted(indices, key=lambda r: rank[int(r)])
                        return np.asarray(ordered[:k], dtype=np.int64)

                return Bound()

        table = make_table(self.DATA, kinds=K.PQ, domain=3)
        ranker = FixedPriorityRanker([0, 2, 3, 4, 1])
        order = ranker.bind(table).top(np.arange(table.n), table.n)
        assert is_domination_consistent_order(table.matrix, order)
        interface = TopKInterface(table, ranker=ranker, k=2)
        assert interface.query(Query.select_all()).rows[0].values == (1, 1, 1)
        retrieved = set()
        for query in (
            Query.select_all(),
            Query.from_point({2: 0}),
            Query.from_point({0: 0, 1: 0}),
        ):
            for row in interface.query(query).rows:
                retrieved.add(row.values)
        assert self.SKYLINE <= retrieved


class TestSection2InterfaceTaxonomy:
    """§2.2: the laptop-store motivation — memory as SQ, price as RQ."""

    def test_memory_rejects_lower_bound_price_accepts(self):
        table = make_table([(1, 1)], kinds=[K.SQ, K.RQ], domain=10)
        interface = TopKInterface(table, k=1)
        from repro.hiddendb import UnsupportedQueryError

        price_band = Query.select_all().and_lower(1, 3, 10)
        interface.query(price_band)  # two-ended: fine
        memory_floor = Query.select_all().and_lower(0, 3, 10)
        with pytest.raises(UnsupportedQueryError):
            interface.query(memory_floor)

    def test_le_and_lt_reducible(self):
        """§2.2: A <= v and A < v are interchangeable on integer domains."""
        table = make_table([(3,), (4,), (5,)], kinds=K.SQ, domain=10)
        interface = TopKInterface(table, k=5)
        le_4 = interface.query(Query.select_all().and_upper(0, 4))
        lt_5 = interface.query(Query.select_all().and_upper(0, 5 - 1))
        assert [r.rid for r in le_4.rows] == [r.rid for r in lt_5.rows]


class TestSection6MixedExample:
    """§6.1: discovering with ranges only misses range-dominated tuples;
    MQ's pruned point phase recovers them."""

    def test_mixed_discovery_recovers_range_dominated_tuple(self):
        # Range attribute A, point attribute B.  u = (2, 0) is dominated on
        # A by t0 = (1, 3) but beats it on B, so u is on the skyline.
        table = make_table([(1, 3), (2, 0), (4, 4)], kinds=[K.RQ, K.PQ],
                           domain=5)
        result = discover(TopKInterface(table, k=1))
        assert result.skyline_values == {(1, 3), (2, 0)}
        assert result.algorithm == "MQ-DB-SKY"
