"""Data-plane parity: the fast engines are bit-identical to the scan path.

The contract of :mod:`repro.hiddendb.dataplane` is that ``rank`` and
``sqlite`` answer every query with the *same* :class:`QueryResult` rows
(rids, values, order and overflow flag) the O(n) ``scan`` reference
produces, under every ranker with a query-independent total order.  These
tests gate that contract three ways: direct per-query probes, the full
algorithm x engine x strategy discovery grid, and the billing semantics
of the vectorised batch path.
"""

import numpy as np
import pytest

from repro import Discoverer, TopKInterface
from repro.hiddendb import (
    ENGINE_CHOICES,
    Interval,
    LexicographicRanker,
    LinearRanker,
    Query,
    QueryBudgetExceeded,
    RandomSkylineRanker,
    SQLTable,
    UnknownAttributeError,
    build_sqltable,
    default_ranker,
    make_engine,
)

from ..conftest import (
    DATAPLANE_ENGINES,
    PARITY_TABLES,
    build_engine_interface,
    make_table,
    parity_run_engine_strategy_params,
)

def ranker_for(name, m):
    """Build the named ranker shaped for an ``m``-attribute table."""
    if name == "sum":
        return LinearRanker()
    if name == "weighted":
        return LinearRanker([2.0, 1.0, 0.5][:m] + [1.0] * max(0, m - 3))
    if name == "one-hot":
        weights = [0.0] * m
        weights[m - 1] = 1.0
        return LinearRanker(weights)
    return LexicographicRanker(list(reversed(range(m))))


RANKER_NAMES = ("sum", "weighted", "one-hot", "lexicographic")


def probe_queries(table, rng):
    """A query battery spanning the interesting answer shapes."""
    domain = table.schema.ranking_attributes[0].domain_size
    yield Query()  # unconstrained: pure top-k
    yield Query(ranges={0: Interval(0, 0), 1: Interval(0, 0)})  # likely empty
    yield Query(ranges={0: Interval(0, domain - 1)})  # no-op range
    for _ in range(20):
        ranges = {}
        for index in range(table.m):
            if rng.random() < 0.6:
                lo = int(rng.integers(0, domain))
                hi = int(rng.integers(lo, domain))
                ranges[index] = Interval(lo, hi)
        yield Query(ranges=ranges)


class TestQueryParity:
    @pytest.mark.parametrize("ranker_name", RANKER_NAMES)
    @pytest.mark.parametrize("name", sorted(PARITY_TABLES))
    def test_every_engine_answers_bit_identically(
        self, tmp_path, name, ranker_name
    ):
        table = PARITY_TABLES[name]
        ranker = ranker_for(ranker_name, table.m)
        reference = build_engine_interface(
            table, "scan", tmp_path, ranker=ranker, k=5, validate=False
        )
        candidates = {
            engine: build_engine_interface(
                table, engine, tmp_path, ranker=ranker, k=5, validate=False
            )
            for engine in DATAPLANE_ENGINES
        }
        rng = np.random.default_rng(7)
        for query in probe_queries(table, rng):
            expected = reference.query(query)
            for engine, interface in candidates.items():
                got = interface.query(query)
                assert got.rows == expected.rows, (engine, query)
                assert got.overflow == expected.overflow, (engine, query)
                assert got.sequence == expected.sequence, (engine, query)

    @pytest.mark.parametrize("engine", DATAPLANE_ENGINES)
    def test_filter_queries_match_scan(self, tmp_path, engine):
        table = make_table(
            [(i % 7, (i * 3) % 5, (i * 11) % 13) for i in range(120)],
            filters={"color": [i % 3 for i in range(120)]},
        )
        reference = TopKInterface(table, k=4, engine="scan")
        candidate = build_engine_interface(table, engine, tmp_path, k=4)
        for value in range(3):
            for ranges in ({}, {0: Interval(1, 5)}, {2: Interval(0, 4)}):
                query = Query(ranges=ranges, filters={"color": value})
                assert candidate.query(query).rows == reference.query(query).rows

    @pytest.mark.parametrize("engine", ("scan", "rank"))
    def test_unknown_filter_raises_on_every_engine(self, engine):
        table = make_table([(1, 2, 3), (4, 5, 6)])
        # validate=False lets the bogus filter reach the engine itself.
        interface = TopKInterface(table, k=2, engine=engine, validate=False)
        with pytest.raises(UnknownAttributeError):
            interface.query(Query(filters={"nope": 1}))

    def test_unknown_filter_raises_on_sqlite(self, tmp_path):
        table = make_table([(1, 2, 3), (4, 5, 6)])
        path = tmp_path / "t.sqlite"
        build_sqltable(path, table)
        interface = TopKInterface(SQLTable(path), k=2, validate=False)
        with pytest.raises(UnknownAttributeError):
            interface.query(Query(filters={"nope": 1}))

    def test_k_past_the_chunk_boundaries(self, tmp_path):
        # Answers spanning several growth chunks of the rank scan must
        # splice together in exact rank order.
        table = PARITY_TABLES["rq3"]
        k = table.n  # forces the scan through every chunk
        reference = TopKInterface(table, k=k, engine="scan")
        fast = TopKInterface(table, k=k, engine="rank")
        query = Query(ranges={0: Interval(0, 6)})
        assert fast.query(query).rows == reference.query(query).rows


class TestDiscoveryGrid:
    @pytest.mark.parametrize(
        "algorithm,table,engine,strategy,config",
        parity_run_engine_strategy_params(),
    )
    def test_algorithm_engine_strategy_matches_reference(
        self, tmp_path, algorithm, table, engine, strategy, config
    ):
        reference = Discoverer().run(
            TopKInterface(table, k=5, engine="scan"), algorithm
        )
        interface = build_engine_interface(table, engine, tmp_path, k=5)
        result = Discoverer(config).run(interface, algorithm)
        # The pre-change discovery outcome is the gate: same skyline, same
        # billed cost, same completeness.  Under the serial strategy the
        # crawl is fully deterministic, so the engines must additionally
        # reproduce the exact retrieval sequence row for row.
        assert result.skyline_values == reference.skyline_values
        assert result.total_cost == reference.total_cost
        assert result.complete == reference.complete
        if strategy == "serial":
            assert result.skyline == reference.skyline
            assert result.retrieved == reference.retrieved


class TestEngineDispatch:
    def test_auto_picks_rank_for_total_order_rankers(self):
        table = PARITY_TABLES["rq3"]
        assert TopKInterface(table, k=2).engine == "rank"
        assert TopKInterface(
            table, LexicographicRanker(), k=2
        ).engine == "rank"

    def test_auto_falls_back_to_scan_for_random_ranker(self):
        table = PARITY_TABLES["rq3"]
        interface = TopKInterface(table, RandomSkylineRanker(seed=3), k=2)
        assert interface.engine == "scan"

    def test_forcing_rank_with_random_ranker_raises(self):
        table = PARITY_TABLES["rq3"]
        with pytest.raises(ValueError, match="total order"):
            TopKInterface(table, RandomSkylineRanker(), k=2, engine="rank")

    def test_forcing_sqlite_on_memory_table_raises(self):
        with pytest.raises(ValueError, match="not SQLite-backed"):
            TopKInterface(PARITY_TABLES["rq3"], k=2, engine="sqlite")

    def test_unknown_engine_name_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine(PARITY_TABLES["rq3"], LinearRanker(), "warp")
        assert set(ENGINE_CHOICES) == {"auto", "scan", "rank", "sqlite"}

    def test_auto_on_sqltable_is_sql_native(self, tmp_path):
        table = PARITY_TABLES["rq3"]
        path = tmp_path / "t.sqlite"
        build_sqltable(path, table, LinearRanker([1.0, 2.0, 3.0]))
        sql = SQLTable(path)
        # Default ranker is reconstructed from the persisted label ...
        interface = TopKInterface(sql, k=3)
        assert interface.engine == "sqlite"
        assert interface.ranking_label == "LinearRanker(weights=[1.0, 2.0, 3.0])"
        assert isinstance(default_ranker(sql), LinearRanker)

    def test_sqltable_under_foreign_ranker_degrades_to_memory(self, tmp_path):
        # A ranking other than the persisted one cannot use the rank
        # index; the table is materialised and served by the rank engine,
        # still bit-identical to scan.
        table = PARITY_TABLES["rq3"]
        path = tmp_path / "t.sqlite"
        build_sqltable(path, table, LinearRanker())
        sql = SQLTable(path)
        foreign = LexicographicRanker([1])
        interface = TopKInterface(sql, foreign, k=3)
        assert interface.engine == "rank"
        reference = TopKInterface(table, foreign, k=3, engine="scan")
        query = Query(ranges={0: Interval(1, 6)})
        assert interface.query(query).rows == reference.query(query).rows
        with pytest.raises(ValueError, match="rank index was built for"):
            TopKInterface(sql, foreign, k=3, engine="sqlite")

    def test_random_seeded_ranker_is_reproducible_on_scan(self):
        table = PARITY_TABLES["rq3"]
        first = TopKInterface(table, RandomSkylineRanker(seed=11), k=3)
        second = TopKInterface(table, RandomSkylineRanker(seed=11), k=3)
        query = Query(ranges={0: Interval(0, 5)})
        assert first.query(query).rows == second.query(query).rows


class TestBatchSemantics:
    @pytest.mark.parametrize("engine", ("scan",) + DATAPLANE_ENGINES)
    def test_batch_matches_sequential_issue(self, tmp_path, engine):
        table = PARITY_TABLES["rq3"]
        queries = [Query(ranges={0: Interval(0, hi)}) for hi in range(6)]
        sequential = build_engine_interface(table, engine, tmp_path, k=5)
        batched = build_engine_interface(table, engine, tmp_path, k=5)
        expected = tuple(sequential.query(q) for q in queries)
        assert batched.batch_query(queries) == expected
        assert batched.queries_issued == sequential.queries_issued

    @pytest.mark.parametrize("engine", ("scan",) + DATAPLANE_ENGINES)
    def test_batch_budget_exhaustion_carries_partial_results(
        self, tmp_path, engine
    ):
        table = PARITY_TABLES["rq3"]
        queries = [Query(ranges={0: Interval(0, hi)}) for hi in range(6)]
        interface = build_engine_interface(
            table, engine, tmp_path, k=5, budget=4
        )
        with pytest.raises(QueryBudgetExceeded) as info:
            interface.batch_query(queries)
        partial = info.value.partial_results
        assert len(partial) == 4
        assert [r.sequence for r in partial] == [1, 2, 3, 4]
        assert interface.queries_issued == 4  # the failing item never bills

    def test_batch_invalid_query_aborts_without_billing_it(self):
        table = PARITY_TABLES["sq3"]  # SQ attributes reject range predicates
        good = Query.from_point({0: 1})
        bad = Query(ranges={0: Interval(1, 5)})
        interface = TopKInterface(table, k=2)
        from repro.hiddendb import UnsupportedQueryError

        with pytest.raises(UnsupportedQueryError) as info:
            interface.batch_query([good, good, bad, good])
        assert len(info.value.partial_results) == 2
        assert interface.queries_issued == 2

    def test_unvalidated_interface_keeps_per_item_loop(self):
        # validate=False means execution itself may raise, so billing must
        # stay interleaved per item: the bad query IS billed (exactly as
        # issuing it alone would), and later items are never charged.
        table = make_table([(1, 2, 3), (4, 5, 6)])
        good = Query()
        bad = Query(filters={"nope": 1})
        interface = TopKInterface(table, k=1, validate=False)
        with pytest.raises(UnknownAttributeError) as info:
            interface.batch_query([good, bad, good])
        assert len(info.value.partial_results) == 1
        assert interface.queries_issued == 2

    def test_batched_answers_reach_the_query_log(self, tmp_path):
        # Every answer of a batching run is in the run's log, in merge
        # order, and each is the scan engine's answer to its query.
        table = PARITY_TABLES["rq3"]
        result = Discoverer().run(
            build_engine_interface(table, "rank", tmp_path, k=3),
            "baseline", workers=2, batch_size=4, record_log=True,
        )
        assert result.stats.batched > 0
        assert len(result.query_log) == result.total_cost
        scan = build_engine_interface(table, "scan", tmp_path, k=3)
        for answer in result.query_log:
            assert answer.rows == scan.query(answer.query).rows
