"""Tests for the asyncio remote client (repro.service.aclient).

The client contract both transports share is checked for each of them
in ``test_client.py``; this file keeps what is particular to the asyncio
transport or worth a crawl-sized check: awaiting from a foreign loop,
batch-vs-single answers, fault convergence under the async strategy,
replay ids and the transport the engine picks for it.
"""

import asyncio

import pytest

from repro import Discoverer, DiscoveryConfig, TopKInterface
from repro.core.base import DiscoverySession
from repro.core.engine import AsyncStrategy
from repro.hiddendb import Query
from repro.hiddendb.endpoint import EventLoopRunner
from repro.service import AsyncRemoteTopKInterface, FaultConfig

from ..conftest import PARITY_TABLES as TABLES


class TestBootstrapAndMetadata:
    def test_schema_and_capabilities_match_sync_client(self, serve):
        table = TABLES["rq3"]
        server = serve(table, k=5, name="meta-check")
        with AsyncRemoteTopKInterface(server.url) as client:
            assert client.k == 5
            assert client.service_name == "meta-check"
            assert client.supports_batch
            assert client.schema.m == table.schema.m
            assert client.queries_issued == 0


class TestQuerySemantics:
    def test_aquery_matches_blocking_query(self, serve):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        with AsyncRemoteTopKInterface(server.url) as client:
            runner = EventLoopRunner()
            try:
                async_answer = runner.run(client.aquery(Query.select_all()))
            finally:
                runner.close()
            blocking_answer = client.query(Query.select_all())
            assert async_answer.rows == blocking_answer.rows
            assert client.queries_issued == 2

    def test_batch_matches_per_query_answers(self, serve):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        queries = [
            Query.select_all().and_upper(0, bound) for bound in range(4)
        ]
        with AsyncRemoteTopKInterface(server.url, api_key="one") as one:
            singles = [one.query(query) for query in queries]
        with AsyncRemoteTopKInterface(server.url, api_key="batch") as batch:
            batched = batch.batch_query(queries)
            assert [r.rows for r in batched] == [r.rows for r in singles]
            assert batch.queries_issued == len(queries)
        assert server.stats().usage("batch").issued == len(queries)

    def test_retries_converge_without_double_billing(self, serve):
        # The baseline crawl issues hundreds of queries, so the seeded
        # 20% fault rate is guaranteed to hit both the single-query and
        # the batched transport paths.
        table = TABLES["rq3"]
        server = serve(
            table, k=5, faults=FaultConfig(error_rate=0.2, seed=11)
        )
        with AsyncRemoteTopKInterface(
            server.url, max_retries=50, sleep=lambda _s: None
        ) as client:
            local = Discoverer().run(TopKInterface(table, k=5), "baseline")
            result = Discoverer(
                DiscoveryConfig(strategy="async", workers=4, batch_size=8)
            ).run(client, "baseline")
            assert result.skyline_values == local.skyline_values
            assert result.total_cost == local.total_cost
            assert client.retries > 0
            assert server.stats().faults_injected > 0
            # Faults were retried under stable request ids, never billed.
            assert server.stats().queries_total == local.total_cost

    def test_replay_nonce_makes_reissues_free(self, serve):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        with AsyncRemoteTopKInterface(
            server.url, api_key="nonced", replay_nonce="resume-nonce"
        ) as client:
            first = client.query(Query.select_all())
            again = client.query(Query.select_all())
            assert again.rows == first.rows
            # Same nonce + same canonical key -> same X-Request-Id: the
            # server replays the billed answer instead of charging twice.
            assert server.stats().usage("nonced").issued == 1


class TestTransportChoice:
    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_strategy_awaits_the_client_on_its_own_loop(
        self, serve, batch_size
    ):
        """The one concurrent strategy awaits an endpoint that owns an
        event loop on that loop, and never touches its blocking surface."""
        server = serve(TABLES["rq3"], k=5)
        with AsyncRemoteTopKInterface(server.url) as client:
            loops = []
            for name in ("aquery", "abatch_query"):
                async def recording(arg, _inner=getattr(client, name)):
                    loops.append(asyncio.get_running_loop())
                    return await _inner(arg)

                setattr(client, name, recording)

            def blocking(*_args):
                raise AssertionError("the drain used the blocking surface")

            client.query = client.batch_query = blocking
            session = DiscoverySession(
                client,
                strategy=AsyncStrategy(workers=4, batch_size=batch_size),
            )
            frontier = session.frontier()
            for value in range(8):
                frontier.add(Query.select_all().and_upper(0, value))
            frontier.drain()
            assert session.engine_stats.issued == 8
            assert loops
            assert all(loop is client.aio_runner.loop for loop in loops)
