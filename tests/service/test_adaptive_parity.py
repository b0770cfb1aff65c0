"""Adaptive-window parity grid, over the wire.

``workers="auto"`` changes *when* queries are dispatched, never which
queries are issued or how answers merge -- so for every registered
algorithm, an adaptive drain against a fault- and rate-limit-injected
server must reproduce the serial in-process skyline and billed cost
exactly, on every transport of the concurrent strategy: the thread pool
over the blocking client, the asyncio client's own loop, and the thread
pool over two mirrors.
"""

import pytest

from repro import Discoverer, TopKInterface
from repro.core import DiscoveryConfig
from repro.coordinator import EndpointSet
from repro.service import FaultConfig

from ..conftest import parity_run_params as run_params
from .conftest import CLIENTS

#: Generous-but-real shaping: wide enough that crawls stay fast, tight
#: enough that bursts genuinely harvest 429s and exercise the AIMD path.
SHAPING = dict(
    rate_limit=500.0,
    burst=20,
    max_inflight=16,
    faults=FaultConfig(error_rate=0.05, seed=11),
)

#: Throttled runs retry more: every 429 is eventually absorbed.
CLIENT = dict(max_retries=50)

AUTO = dict(strategy="async", workers="auto", min_workers=1, max_workers=12)


class TestAdaptiveParity:
    @pytest.mark.parametrize("algorithm,table", run_params())
    @pytest.mark.parametrize("client", CLIENTS)
    def test_algorithm_grid_matches_serial(
        self, serve, connect, algorithm, table, client
    ):
        reference = Discoverer().run(TopKInterface(table, k=5), algorithm)

        server = serve(table, k=5, **SHAPING)
        key = f"{algorithm}-{client}-auto"
        remote = connect(
            server.url, api_key=key, client=CLIENTS[client], **CLIENT
        )
        result = Discoverer(DiscoveryConfig(**AUTO)).run(remote, algorithm)

        assert result.stats.strategy == "async"
        assert result.skyline_values == reference.skyline_values
        assert result.complete == reference.complete
        assert result.total_cost == reference.total_cost
        # Throttled/faulted attempts were retried, never billed.
        assert server.stats().queries_total == reference.total_cost

    @pytest.mark.parametrize("algorithm,table", run_params())
    def test_sharded_grid_matches_serial(self, serve, algorithm, table):
        reference = Discoverer().run(TopKInterface(table, k=5), algorithm)

        a = serve(table, k=5, **SHAPING)
        b = serve(table, k=5, **SHAPING)
        with EndpointSet(
            [f"{a.url}=shard-a", f"{b.url}=shard-b"], **CLIENT
        ) as pool:
            # One pool-wide window: the set reports its mirrors' summed
            # pressure, and each client sleeps out its own Retry-After.
            config = DiscoveryConfig(
                strategy="async", workers="auto", max_workers=6 * pool.size
            )
            result = Discoverer(config).run(pool, algorithm)
            assert result.stats.strategy == "async"
            assert result.skyline_values == reference.skyline_values
            assert result.total_cost == reference.total_cost
            # The pool billed exactly the reference cost, split across
            # the mirrors.
            assert pool.queries_issued == reference.total_cost

    def test_adaptive_run_reports_window_stats(self, serve, connect):
        from ..conftest import PARITY_TABLES

        table = PARITY_TABLES["rq3"]
        server = serve(table, k=5, rate_limit=200.0, burst=10)
        remote = connect(server.url, api_key="stats", **CLIENT)
        # The crawling baseline drains a wide frontier, so the window is
        # actually exercised (sequential algorithms never open it).
        result = Discoverer(DiscoveryConfig(**AUTO)).run(remote, "baseline")
        stats = result.stats
        assert stats.mean_window >= 1.0
        payload = stats.as_dict()
        assert payload["mean_window"] == stats.mean_window
        assert payload["window_decreases"] == stats.window_decreases
