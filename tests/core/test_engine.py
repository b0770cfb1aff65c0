"""Tests for the frontier execution engine (repro.core.engine)."""

import threading

import numpy as np
import pytest

from repro import Discoverer, DiscoveryConfig, TopKInterface
from repro.cli import DATASETS
from repro.core import all_algorithms
from repro.core.base import DiscoverySession
from repro.core.engine import (
    AsyncStrategy,
    EngineStats,
    ExecutionStrategy,
    SerialStrategy,
    make_strategy,
)
from repro.datagen import diamonds_table
from repro.hiddendb import InterfaceKind, Query

from ..conftest import (
    PARITY_TABLES as TABLES,
    parity_run_params as run_params,
    parity_run_strategy_params,
    parity_strategy_params,
    random_table,
    truth_band_values,
    truth_values,
)

SQ = InterfaceKind.SQ
RQ = InterfaceKind.RQ
PQ = InterfaceKind.PQ


def dataset_grid_params(n: int = 200):
    """``(algorithm, table)`` params: every CLI dataset (seed 0, ``n``
    rows) x every algorithm that supports it."""
    for dataset, make in sorted(DATASETS.items()):
        table = make(n, 0)
        for spec in all_algorithms():
            if spec.supports(table.schema):
                yield pytest.param(
                    spec.name, table, id=f"{dataset}-{spec.name}"
                )


class TestEngineStats:
    def test_serial_run_attaches_stats(self):
        table = TABLES["rq3"]
        result = Discoverer().run(TopKInterface(table, k=5))
        assert isinstance(result.stats, EngineStats)
        assert result.stats.strategy == "serial"
        assert result.stats.workers == 1
        assert result.stats.issued == result.total_cost
        assert result.stats.deduped == 0
        assert result.stats.batched == 0
        assert result.stats.max_in_flight == 1

    def test_concurrent_run_reports_strategy_and_concurrency(self):
        table = TABLES["rq3"]
        result = Discoverer(DiscoveryConfig(workers=4)).run(
            TopKInterface(table, k=5), "baseline"
        )
        assert result.stats.strategy == "async"
        assert result.stats.workers == 4
        assert result.stats.issued == result.total_cost
        # The crawl's region splits are independent waves: concurrency and
        # batching (TopKInterface.batch_query) must both show up.
        assert result.stats.max_in_flight > 1
        assert result.stats.batches > 0
        assert result.stats.batched <= result.stats.issued

    def test_stats_helpers(self):
        stats = EngineStats(issued=6, deduped=2, batched=4, batches=2)
        assert stats.dedup_rate == pytest.approx(0.25)
        assert stats.as_dict()["issued"] == 6
        assert EngineStats().dedup_rate == 0.0

    def test_wall_time_and_throughput(self):
        table = TABLES["rq3"]
        result = Discoverer().run(TopKInterface(table, k=5))
        stats = result.stats
        assert stats.wall_time_s > 0.0
        assert stats.queries_per_sec == pytest.approx(
            stats.issued / stats.wall_time_s
        )
        payload = stats.as_dict()
        assert payload["wall_time_s"] == stats.wall_time_s
        assert payload["queries_per_sec"] == stats.queries_per_sec
        # Degenerate stats never divide by zero.
        assert EngineStats().queries_per_sec == 0.0


class TestStrategyParity:
    """Satellite: every algorithm x every strategy, identical results.

    Serial and async both run the shared drain core, so the
    skyline value set and the billable query cost must be identical under
    every strategy, batched or one query per task (the remote half lives
    in tests/service).
    """

    @pytest.mark.parametrize(
        "algorithm,table,strategy,config", parity_run_strategy_params()
    )
    def test_in_process_parity(self, algorithm, table, strategy, config):
        serial = Discoverer().run(TopKInterface(table, k=5), algorithm)
        result = Discoverer(config).run(TopKInterface(table, k=5), algorithm)
        assert result.stats.strategy == config.strategy
        if config.batch_size == 1:
            assert result.stats.batches == 0
        assert result.skyline_values == serial.skyline_values
        assert result.total_cost == serial.total_cost
        assert result.complete == serial.complete

    @pytest.mark.parametrize("strategy,config", parity_strategy_params())
    def test_parity_with_dedup(self, strategy, config):
        table = TABLES["sq3"]
        serial = Discoverer(DiscoveryConfig(dedup=True)).run(
            TopKInterface(table, k=5), "sq"
        )
        result = Discoverer(config.replace(dedup=True)).run(
            TopKInterface(table, k=5), "sq"
        )
        assert result.skyline_values == serial.skyline_values
        assert result.total_cost == serial.total_cost
        assert result.stats.deduped == serial.stats.deduped

    @pytest.mark.parametrize("strategy,config", parity_strategy_params())
    def test_skyband_parity(self, strategy, config):
        table = TABLES["sq3"]
        serial = Discoverer().skyband(TopKInterface(table, k=5), 2, "sq")
        result = Discoverer(config).skyband(
            TopKInterface(table, k=5), 2, "sq"
        )
        assert result.skyband_values == serial.skyband_values
        assert result.total_cost == serial.total_cost


class TestDedup:
    def test_dedup_preserves_results_and_splits_cost(self):
        # SQ's overlapping tree re-derives identical queries through
        # different branch orders; with dedup on each distinct query is
        # billed once and the repeats surface as stats.deduped.
        table = diamonds_table(150, seed=3)
        plain = Discoverer().run(TopKInterface(table, k=10), "sq")
        deduped = Discoverer(DiscoveryConfig(dedup=True)).run(
            TopKInterface(table, k=10), "sq"
        )
        assert deduped.skyline_values == plain.skyline_values
        assert deduped.stats.deduped > 0
        assert (
            deduped.total_cost + deduped.stats.deduped == plain.total_cost
        )

    @pytest.mark.parametrize("algorithm,table", dataset_grid_params())
    def test_dedup_bills_each_distinct_query_once(self, algorithm, table):
        # The memo catches every repeat: a dedup run asks the plain run's
        # queries in the same order and bills each distinct one once.
        plain = Discoverer(DiscoveryConfig(record_log=True)).run(
            TopKInterface(table, k=10), algorithm
        )
        deduped = Discoverer(
            DiscoveryConfig(dedup=True, record_log=True)
        ).run(TopKInterface(table, k=10), algorithm)
        asked = [answer.query.canonical_key() for answer in plain.query_log]
        assert len(asked) == plain.total_cost
        assert [
            answer.query.canonical_key() for answer in deduped.query_log
        ] == asked
        assert deduped.total_cost == len(set(asked))
        assert deduped.stats.deduped == len(asked) - len(set(asked))
        assert deduped.skyline_values == plain.skyline_values

    def test_dedup_off_by_default_for_discovery(self):
        table = TABLES["sq3"]
        result = Discoverer().run(TopKInterface(table, k=5), "sq")
        assert result.stats.deduped == 0

    def test_memo_hits_do_not_consume_budget(self):
        table = diamonds_table(150, seed=3)
        reference = Discoverer(DiscoveryConfig(dedup=True)).run(
            TopKInterface(table, k=10), "sq"
        )
        # A budget of exactly the deduped billable cost completes: memo
        # hits are free and must not trip the session allowance.
        result = Discoverer(
            DiscoveryConfig(dedup=True, budget=reference.total_cost)
        ).run(TopKInterface(table, k=10), "sq")
        assert result.complete
        assert result.total_cost == reference.total_cost


class TestSkybandSharedMemo:
    """Satellite regression: overlapping subspace roots dedupe.

    RQ-DB-SKYBAND re-runs the range tree over the domination subspace of
    every band tuple; neighbouring subspaces overlap and re-derive many
    identical queries.  The session-shared memoizer must count each
    distinct query once.
    """

    @pytest.fixture(scope="class")
    def diamonds(self):
        # Large enough that value collisions across domination subspaces
        # produce syntactically identical queries (the price/carat domains
        # are huge, so small catalogues never repeat a query).
        return diamonds_table(800, seed=3)

    def test_diamonds_band3_dedupes_cross_subspace_queries(self, diamonds):
        interface = TopKInterface(diamonds, k=10)
        result = Discoverer().skyband(interface, 3)
        assert result.algorithm == "RQ-DB-SKYBAND"
        assert result.stats.deduped > 0
        assert result.total_cost == result.stats.issued

    def test_dedup_savings_do_not_change_the_band(self, diamonds):
        deduped = Discoverer().skyband(TopKInterface(diamonds, k=10), 3)
        rebilled = Discoverer(DiscoveryConfig(dedup=False)).skyband(
            TopKInterface(diamonds, k=10), 3
        )
        assert deduped.skyband_values == rebilled.skyband_values
        assert deduped.skyband_values == truth_band_values(diamonds, 3)
        # Every absorbed duplicate is a query the un-memoized run re-bills.
        assert rebilled.stats.deduped == 0
        assert (
            deduped.total_cost + deduped.stats.deduped
            == rebilled.total_cost
        )
        assert deduped.total_cost < rebilled.total_cost


class TestFrontierOrdering:
    def test_serial_fifo_preserves_submission_order(self):
        table = TABLES["rq3"]
        session = DiscoverySession(TopKInterface(table, k=5))
        seen = []
        frontier = session.frontier()
        for value in (3, 5, 7):
            query = Query.select_all().and_upper(0, value)
            frontier.add(query, lambda r, v=value: seen.append(v))
        frontier.drain()
        assert seen == [3, 5, 7]

    def test_serial_lifo_pops_latest_first(self):
        table = TABLES["rq3"]
        session = DiscoverySession(TopKInterface(table, k=5))
        seen = []
        frontier = session.frontier(lifo=True)
        for value in (3, 5, 7):
            query = Query.select_all().and_upper(0, value)
            frontier.add(query, lambda r, v=value: seen.append(v))
        frontier.drain()
        assert seen == [7, 5, 3]

    def test_concurrent_strategy_merges_in_dispatch_order(self):
        table = TABLES["rq3"]
        session = DiscoverySession(
            TopKInterface(table, k=5), strategy=AsyncStrategy(workers=4)
        )
        seen = []
        frontier = session.frontier()
        for value in range(8):
            query = Query.select_all().and_upper(0, value)
            frontier.add(query, lambda r, v=value: seen.append(v))
        frontier.drain()
        assert seen == list(range(8))

    def test_callbacks_may_extend_the_frontier(self):
        table = TABLES["rq3"]
        session = DiscoverySession(
            TopKInterface(table, k=5), strategy=AsyncStrategy(workers=2)
        )
        seen = []
        frontier = session.frontier()

        def chain(depth):
            def on_result(result):
                seen.append(depth)
                if depth < 4:
                    frontier.add(
                        Query.select_all().and_upper(0, depth + 2),
                        chain(depth + 1),
                    )

            return on_result

        frontier.add(Query.select_all().and_upper(0, 1), chain(0))
        frontier.drain()
        assert seen == [0, 1, 2, 3, 4]

    def test_fetch_routes_through_the_engine(self):
        table = TABLES["rq3"]
        session = DiscoverySession(TopKInterface(table, k=5), dedup=True)
        frontier = session.frontier()
        first = frontier.fetch(Query.select_all())
        again = frontier.fetch(Query.select_all())
        assert again is first  # memo replay
        assert session.engine_stats.deduped == 1
        assert session.cost == 1


class TestTransportChoice:
    """The endpoint, not a knob, picks the concurrent strategy's transport.

    A blocking endpoint is called from the drain's thread pool; the
    asyncio client is awaited on its own loop (that half needs a server
    and lives in ``tests/service/test_async_client.py``).
    """

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_blocking_endpoint_runs_on_the_thread_pool(self, batch_size):
        threads = []

        class Recording(TopKInterface):
            def query(self, query):
                threads.append(threading.current_thread().name)
                return super().query(query)

            def batch_query(self, queries):
                threads.append(threading.current_thread().name)
                return super().batch_query(queries)

        session = DiscoverySession(
            Recording(TABLES["rq3"], k=5),
            strategy=make_strategy("async", workers=4, batch_size=batch_size),
        )
        frontier = session.frontier()
        for value in range(8):
            frontier.add(Query.select_all().and_upper(0, value))
        frontier.drain()
        assert session.engine_stats.issued == 8
        assert threads
        assert all(name.startswith("repro-engine") for name in threads)
        assert (session.engine_stats.batches > 0) == (batch_size > 1)


class TestStrategyValidation:
    def test_async_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AsyncStrategy(workers=0)
        with pytest.raises(ValueError):
            AsyncStrategy(batch_size=0)

    def test_config_validates_engine_fields(self):
        with pytest.raises(ValueError):
            DiscoveryConfig(workers=0)
        with pytest.raises(ValueError):
            DiscoveryConfig(batch_size=0)
        with pytest.raises(ValueError):
            DiscoveryConfig(strategy="warp-drive")
        # Serial is single-worker by definition; asking for more is a
        # contradiction, not a silent downgrade.
        with pytest.raises(ValueError):
            DiscoveryConfig(strategy="serial", workers=4)

    def test_config_selects_strategy(self):
        table = TABLES["rq3"]
        serial = DiscoverySession.from_config(
            TopKInterface(table, k=5), DiscoveryConfig()
        )
        piped = DiscoverySession.from_config(
            TopKInterface(table, k=5), DiscoveryConfig(workers=3)
        )
        explicit = DiscoverySession.from_config(
            TopKInterface(table, k=5), DiscoveryConfig(strategy="async", workers=6)
        )
        assert isinstance(serial.engine.strategy, SerialStrategy)
        assert isinstance(piped.engine.strategy, AsyncStrategy)
        assert piped.engine.strategy.workers == 3
        assert isinstance(explicit.engine.strategy, AsyncStrategy)
        assert explicit.engine.strategy.workers == 6

    def test_make_strategy_resolution(self):
        # None keeps the historical workers switch (back compat).
        assert isinstance(make_strategy(None, workers=1), SerialStrategy)
        assert isinstance(make_strategy(None, workers=2), AsyncStrategy)
        assert isinstance(make_strategy("serial"), SerialStrategy)
        asy = make_strategy("async", workers=16, batch_size=4)
        assert isinstance(asy, AsyncStrategy)
        assert asy.workers == 16 and asy.batch_size == 4
        with pytest.raises(ValueError):
            make_strategy("serial", workers=2)
        with pytest.raises(ValueError):
            make_strategy("nope")

    def test_pipelined_is_an_unknown_name(self):
        # The old alias of "async" is refused like any other unknown name.
        with pytest.raises(ValueError, match="unknown execution strategy"):
            make_strategy("pipelined", workers=3)
        with pytest.raises(ValueError, match="unknown execution strategy"):
            DiscoveryConfig(strategy="pipelined", workers=3)

    @pytest.mark.parametrize("name", [None, "serial", "async"])
    def test_make_strategy_validates_every_name(self, name):
        # make_strategy is the one validator of the engine knobs: a bad
        # width or batch size is refused whichever strategy is named,
        # never silently downgraded to serial.
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make_strategy(name, workers=0)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            make_strategy(name, batch_size=0)
        with pytest.raises(ValueError, match="positive int or 'auto'"):
            make_strategy(name, workers="many")
        with pytest.raises(ValueError, match="require workers='auto'"):
            make_strategy(name, workers=1, max_workers=4)

    def test_instances_pass_through_after_validation(self):
        strategy = AsyncStrategy(workers=3)
        assert make_strategy(strategy) is strategy
        assert isinstance(strategy, ExecutionStrategy)
        with pytest.raises(ValueError):
            make_strategy(strategy, batch_size=0)

    @pytest.mark.parametrize("kwargs", [
        dict(workers=0),
        dict(batch_size=0),
        dict(workers="many"),
        dict(strategy="serial", workers="auto"),
        dict(workers="auto", min_workers=4, max_workers=2),
    ])
    def test_config_refuses_what_make_strategy_refuses(self, kwargs):
        # The config has no checks of its own for these knobs: it refuses
        # exactly what make_strategy refuses, with the same message.
        knobs = dict(kwargs)
        name = knobs.pop("strategy", None)
        with pytest.raises(ValueError) as direct:
            make_strategy(name, **knobs)
        with pytest.raises(ValueError) as via_config:
            DiscoveryConfig(**kwargs)
        assert str(via_config.value) == str(direct.value)


class TestPipelinedBudgets:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_session_budget_never_overshoots(self, workers):
        rng = np.random.default_rng(3)
        table = random_table(rng, [RQ, RQ, RQ], 400, 12)
        full = Discoverer(DiscoveryConfig(workers=workers)).run(
            TopKInterface(table, k=1), "baseline"
        )
        budget = full.total_cost // 3
        partial = Discoverer(
            DiscoveryConfig(workers=workers, budget=budget)
        ).run(TopKInterface(table, k=1), "baseline")
        assert not partial.complete
        assert partial.total_cost <= budget

    def test_async_session_budget_never_overshoots(self):
        rng = np.random.default_rng(3)
        table = random_table(rng, [RQ, RQ, RQ], 400, 12)
        full = Discoverer(DiscoveryConfig(strategy="async", workers=4)).run(
            TopKInterface(table, k=1), "baseline"
        )
        budget = full.total_cost // 3
        partial = Discoverer(
            DiscoveryConfig(strategy="async", workers=4, budget=budget)
        ).run(TopKInterface(table, k=1), "baseline")
        assert not partial.complete
        assert partial.total_cost <= budget

    def test_interface_budget_yields_partial_result(self):
        table = diamonds_table(150, seed=3)
        interface = TopKInterface(table, k=10, budget=50)
        result = Discoverer(DiscoveryConfig(workers=4)).run(interface, "sq")
        assert not result.complete
        assert result.total_cost <= 50

    def test_sufficient_budget_completes_pipelined_too(self):
        # Regression: budget accounting must not double-count in-flight
        # queries -- a budget that provably suffices for the serial run
        # (it equals the serial cost) must also complete pipelined, since
        # both strategies issue the same query set.
        table = diamonds_table(150, seed=3)
        serial = Discoverer().run(TopKInterface(table, k=10), "sq")
        piped = Discoverer(
            DiscoveryConfig(workers=4, budget=serial.total_cost)
        ).run(TopKInterface(table, k=10), "sq")
        assert piped.complete
        assert piped.total_cost == serial.total_cost
        assert piped.skyline_values == serial.skyline_values

    def test_mid_batch_budget_failure_keeps_billed_answers(self):
        # Regression: when the interface budget dies inside one
        # batch_query round trip, the answers billed before the failure
        # must still be recorded (partial_results), not discarded.
        table = diamonds_table(150, seed=3)
        interface = TopKInterface(table, k=10, budget=10)
        result = Discoverer(
            DiscoveryConfig(workers=1, batch_size=16)
        ).run(interface, "sq")
        assert not result.complete
        assert interface.queries_issued == 10
        assert result.total_cost == 10
        assert len(result.retrieved) > 0

    def test_correct_skyline_found_within_partial_runs(self):
        # The pipelined partial prefix may differ from the serial one, but
        # every retrieved tuple must still come from real answers.
        rng = np.random.default_rng(7)
        table = random_table(rng, [RQ, RQ], 300, 12)
        truth = truth_values(table)
        result = Discoverer(DiscoveryConfig(workers=4, budget=5)).run(
            TopKInterface(table, k=3), "sq"
        )
        table_values = {
            tuple(int(v) for v in row) for row in table.matrix
        }
        assert set(result.skyline_values) <= table_values
        full = Discoverer(DiscoveryConfig(workers=4)).run(
            TopKInterface(table, k=3), "sq"
        )
        assert full.skyline_values == truth
