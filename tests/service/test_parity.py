"""Remote-parity integration tests.

For every algorithm in the registry, a run through
:class:`RemoteTopKInterface` against a served table must be
query-for-query identical to the in-process run: same discovered skyline
(rids *and* values), same client-side cost, same server-side billing.
With fault injection enabled the client must still converge, and a warm
crawl-store ledger must make a repeated crawl free.
"""

import pytest

from repro import CrawlStore, Discoverer, DiscoveryConfig, TopKInterface
from repro.core import all_algorithms
from repro.service import FaultConfig, RemoteTopKInterface

from ..conftest import (
    PARITY_TABLES as TABLES,
    parity_candidate_table as candidate_table,
    parity_run_params as run_params,
    strategy_configs,
)
from .conftest import CLIENTS


def wire_grid_params():
    """``(algorithm, table, config, client class)`` params: every algorithm
    serially over the blocking client, and in every concurrent column
    (batched and unbatched) over each client."""
    for algo_param in run_params():
        algorithm, table = algo_param.values
        for name, config in strategy_configs().items():
            if name == "serial":
                yield pytest.param(
                    algorithm, table, config, RemoteTopKInterface,
                    id=f"{algorithm}-serial",
                )
                continue
            for client, client_cls in CLIENTS.items():
                yield pytest.param(
                    algorithm, table, config, client_cls,
                    id=f"{algorithm}-{name}-{client}",
                )


def skyband_params():
    for spec in all_algorithms():
        if spec.skyband is None:
            continue
        table = candidate_table(spec.supports_skyband)
        assert table is not None, f"no skyband candidate for {spec.name}"
        yield pytest.param(spec.name, table, id=spec.name)


class TestRemoteParity:
    @pytest.mark.parametrize("algorithm,table", run_params())
    def test_every_algorithm_matches_in_process(
        self, serve, connect, algorithm, table
    ):
        local = TopKInterface(table, k=5)
        local_result = Discoverer().run(local, algorithm)

        server = serve(table, k=5)
        remote = connect(server.url, api_key=algorithm)
        remote_result = Discoverer().run(remote, algorithm)

        # Byte-identical skylines: same rids, same values, same order.
        assert remote_result.skyline == local_result.skyline
        assert remote_result.retrieved == local_result.retrieved
        assert remote_result.trace == local_result.trace
        assert remote_result.complete == local_result.complete
        # Identical costs, client- and server-side.
        assert remote_result.total_cost == local_result.total_cost
        assert remote.queries_issued == local.queries_issued
        assert (
            server.stats().usage(algorithm).issued == local.queries_issued
        )

    @pytest.mark.parametrize(
        "algorithm,table,config,client_cls", wire_grid_params()
    )
    def test_every_algorithm_matches_under_every_strategy(
        self, serve, connect, algorithm, table, config, client_cls
    ):
        """The full parity grid: algorithm x strategy x client, over the wire.

        Whatever drains the frontier -- serial, the thread pool over the
        blocking client, or the asyncio client's own event loop -- the
        remote run must bill exactly the serial in-process cost and
        discover the identical skyline.
        """
        local = TopKInterface(table, k=5)
        local_result = Discoverer().run(local, algorithm)

        server = serve(table, k=5)
        key = f"{algorithm}-{config.strategy}-{client_cls.__name__}"
        remote = connect(server.url, api_key=key, client=client_cls)
        remote_result = Discoverer(config).run(remote, algorithm)

        assert remote_result.stats.strategy == config.strategy
        assert remote_result.skyline_values == local_result.skyline_values
        assert remote_result.complete == local_result.complete
        assert remote_result.total_cost == local_result.total_cost
        assert remote.queries_issued == local.queries_issued
        assert server.stats().usage(key).issued == local.queries_issued

    @pytest.mark.parametrize("algorithm,table", skyband_params())
    def test_skyband_extensions_match_in_process(
        self, serve, connect, algorithm, table
    ):
        local = TopKInterface(table, k=5)
        local_result = Discoverer().skyband(local, 2, algorithm)

        server = serve(table, k=5)
        remote = connect(server.url, api_key=algorithm)
        remote_result = Discoverer().skyband(remote, 2, algorithm)

        assert remote_result.skyband == local_result.skyband
        assert remote_result.total_cost == local_result.total_cost
        assert remote_result.complete == local_result.complete
        assert (
            server.stats().usage(algorithm).issued == local.queries_issued
        )


class TestFaultedConvergence:
    def test_flaky_service_still_yields_exact_skyline(
        self, serve, connect, no_sleep
    ):
        table = TABLES["rq3"]
        local_result = Discoverer().run(TopKInterface(table, k=5))

        server = serve(
            table, k=5, faults=FaultConfig(error_rate=0.2, seed=7)
        )
        remote = connect(server.url, max_retries=50, sleep=no_sleep)
        remote_result = Discoverer().run(remote)

        assert remote_result.skyline == local_result.skyline
        assert remote_result.total_cost == local_result.total_cost
        assert remote.retries > 0
        assert server.stats().faults_injected > 0
        # Faults were retried, never billed.
        assert server.stats().queries_total == local_result.total_cost


class TestWarmLedgerEconomy:
    def test_recrawl_through_a_memory_ledger_bills_nothing(
        self, serve, connect
    ):
        table = TABLES["mixed"]
        server = serve(table, k=5)
        remote = connect(server.url)
        config = DiscoveryConfig(store=CrawlStore.memory())

        first = Discoverer(config).run(remote)
        cold_billed = remote.queries_issued
        second = Discoverer(config).run(remote)
        config.store.close()

        assert second.skyline == first.skyline
        assert second.total_cost == 0
        assert remote.queries_issued == cold_billed == first.total_cost
        assert second.stats.ledger_hits == (
            first.stats.issued + first.stats.ledger_hits
        )
        # Server-side billing agrees with the client's billable count.
        assert server.stats().queries_total == remote.queries_issued

    def test_dedup_run_reports_the_billable_cost(self, serve, connect):
        # Memo hits are free: a dedup run's cost, and the anytime trace
        # keyed on it, count billed queries only.
        table = TABLES["rq3"]
        server = serve(table, k=5)
        local_result = Discoverer().run(TopKInterface(table, k=5))
        remote = connect(server.url)
        result = Discoverer(DiscoveryConfig(dedup=True)).run(remote)
        assert result.skyline == local_result.skyline
        assert result.total_cost == remote.queries_issued
        assert result.total_cost <= local_result.total_cost
        assert all(entry.cost <= result.total_cost for entry in result.trace)
