"""Remote-parity integration tests.

For every algorithm in the registry, a run through
:class:`RemoteTopKInterface` against a served table must be
query-for-query identical to the in-process run: same discovered skyline
(rids *and* values), same client-side cost, same server-side billing.
With fault injection enabled the client must still converge, and a warm
client cache must make a repeated crawl strictly cheaper.
"""

import pytest

from repro import Discoverer, TopKInterface
from repro.core import all_algorithms
from repro.service import (
    AsyncRemoteTopKInterface,
    FaultConfig,
    RemoteTopKInterface,
)

from ..conftest import (
    PARITY_TABLES as TABLES,
    parity_candidate_table as candidate_table,
    parity_run_params as run_params,
    strategy_configs,
)

#: The client axis of the wire grid.  The concurrent strategy calls the
#: blocking client from its thread pool and awaits the asyncio client on
#: the client's own event loop, so each client pins one transport.
CLIENTS = {
    "blocking": RemoteTopKInterface,
    "asyncio": AsyncRemoteTopKInterface,
}


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
        self, serve, algorithm, table
    ):
        local = TopKInterface(table, k=5)
        local_result = Discoverer().run(local, algorithm)

        server = serve(table, k=5)
        remote = RemoteTopKInterface(server.url, api_key=algorithm)
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
        self, serve, algorithm, table, config, client_cls
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
        remote = client_cls(server.url, api_key=key)
        remote_result = Discoverer(config).run(remote, algorithm)

        assert remote_result.stats.strategy == config.strategy
        assert remote_result.skyline_values == local_result.skyline_values
        assert remote_result.complete == local_result.complete
        assert remote_result.total_cost == local_result.total_cost
        assert remote.queries_issued == local.queries_issued
        assert server.stats().usage(key).issued == local.queries_issued
        remote.close()

    @pytest.mark.parametrize("algorithm,table", skyband_params())
    def test_skyband_extensions_match_in_process(
        self, serve, algorithm, table
    ):
        local = TopKInterface(table, k=5)
        local_result = Discoverer().skyband(local, 2, algorithm)

        server = serve(table, k=5)
        remote = RemoteTopKInterface(server.url, api_key=algorithm)
        remote_result = Discoverer().skyband(remote, 2, algorithm)

        assert remote_result.skyband == local_result.skyband
        assert remote_result.total_cost == local_result.total_cost
        assert remote_result.complete == local_result.complete
        assert (
            server.stats().usage(algorithm).issued == local.queries_issued
        )


class TestFaultedConvergence:
    def test_flaky_service_still_yields_exact_skyline(self, serve, no_sleep):
        table = TABLES["rq3"]
        local_result = Discoverer().run(TopKInterface(table, k=5))

        server = serve(
            table, k=5, faults=FaultConfig(error_rate=0.2, seed=7)
        )
        remote = RemoteTopKInterface(
            server.url, max_retries=50, sleep=no_sleep
        )
        remote_result = Discoverer().run(remote)

        assert remote_result.skyline == local_result.skyline
        assert remote_result.total_cost == local_result.total_cost
        assert remote.retries > 0
        assert server.stats().faults_injected > 0
        # Faults were retried, never billed.
        assert server.stats().queries_total == local_result.total_cost


class TestWarmCacheEconomy:
    def test_recrawl_with_warm_cache_bills_strictly_less(self, serve):
        table = TABLES["mixed"]
        server = serve(table, k=5)
        remote = RemoteTopKInterface(server.url, cache_size=4096)

        first = Discoverer().run(remote)
        cold_billed = remote.queries_issued
        second = Discoverer().run(remote)
        warm_billed = remote.queries_issued - cold_billed

        assert second.skyline == first.skyline
        assert warm_billed < cold_billed
        assert remote.cache_hits > 0
        # Server-side billing agrees with the client's billable count.
        assert server.stats().queries_total == remote.queries_issued

    def test_cache_does_not_change_discovery_cost_semantics(self, serve):
        # A cached run reports the *billable* cost, which the anytime
        # trace is keyed on -- cache hits appear at the cost level of the
        # last billed query, never inflating it.
        table = TABLES["rq3"]
        server = serve(table, k=5)
        local_result = Discoverer().run(TopKInterface(table, k=5))
        remote = RemoteTopKInterface(server.url, cache_size=4096)
        result = Discoverer().run(remote)
        # First crawl has no repeated queries answered differently: the
        # discovered skyline matches the reference exactly.
        assert result.skyline == local_result.skyline
        assert result.total_cost <= local_result.total_cost
