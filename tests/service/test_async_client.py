"""Tests for the asyncio remote client (repro.service.aclient).

The client contract both transports share is checked for each of them
in ``test_client.py``; this file keeps what is particular to the asyncio
transport or worth a crawl-sized check: awaiting from a foreign loop,
batch-vs-single answers, fault convergence under the async strategy,
replay ids, the transport the engine picks for it, and that transport
running on the thread that drives the crawl.
"""

import asyncio
import threading

import pytest

from repro import Discoverer, DiscoveryConfig, TopKInterface
from repro.core.base import DiscoverySession
from repro.core.engine import AsyncStrategy
from repro.hiddendb import Query, QueryBudgetExceeded
from repro.hiddendb.endpoint import EventLoopRunner
from repro.service import AsyncRemoteTopKInterface, FaultConfig, aclient

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


class TestCrawlThreadTransport:
    """The client's loop has no thread: the thread that drives the crawl
    runs it while waiting for answers, and ``aquery`` runs on whichever
    loop awaits it."""

    @pytest.mark.parametrize("algorithm", ["baseline", "rq"])
    def test_every_aquery_runs_on_the_crawl_thread(self, serve, algorithm):
        # RQ also reaches the endpoint through session.issue's 1 x 1
        # window, which must take the loop too, not the blocking query().
        table = TABLES["rq3"]
        server = serve(table, k=5)
        local = Discoverer().run(TopKInterface(table, k=5), algorithm)
        with AsyncRemoteTopKInterface(server.url) as client:
            threads = []
            for name in ("aquery", "abatch_query", "_exchange"):
                async def recording(*args, _inner=getattr(client, name)):
                    threads.append(threading.get_ident())
                    return await _inner(*args)

                setattr(client, name, recording)

            def blocking(*_args):
                raise AssertionError("the drain used the blocking surface")

            client.query = client.batch_query = blocking
            result = Discoverer(
                DiscoveryConfig(strategy="async", workers=4, batch_size=16)
            ).run(client, algorithm)
            assert result.skyline_values == local.skyline_values
            assert result.total_cost == local.total_cost
            assert threads
            assert set(threads) == {threading.get_ident()}

    def test_aquery_under_successive_asyncio_runs(self, serve, monkeypatch):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        expected = TopKInterface(table, k=5).query(Query.select_all())
        used = []  # (connection, its loop, the loop that sent on it)
        original = aclient._Connection.request

        def recording(conn, data):
            used.append((conn, conn.loop, asyncio.get_running_loop()))
            return original(conn, data)

        with AsyncRemoteTopKInterface(server.url, api_key="runs") as client:
            monkeypatch.setattr(aclient._Connection, "request", recording)
            for _ in range(2):
                answer = asyncio.run(client.aquery(Query.select_all()))
                assert answer.rows == expected.rows
            assert client.queries_issued == 2
        assert server.stats().usage("runs").issued == 2
        assert len(used) == 2
        (first, first_loop, sent_on), (second, second_loop, _) = used
        # Each request went out on a connection of its own loop, and none
        # outlived asyncio.run's loop to be reused on the next one.
        assert first_loop is sent_on and first is not second
        assert first_loop is not second_loop
        assert all(not conn.usable for conn, _, _ in used)

    def test_budget_stop_mid_window_leaves_no_task(self, serve):
        server = serve(TABLES["rq3"], k=5)
        client = AsyncRemoteTopKInterface(server.url, api_key="budget")
        loop = client.aio_runner.loop
        try:
            session = DiscoverySession(
                client, strategy=AsyncStrategy(workers=4, batch_size=1),
                budget=2,
            )
            frontier = session.frontier()
            for upper in range(8):
                frontier.add(Query.select_all().and_upper(0, upper))
            with pytest.raises(QueryBudgetExceeded):
                frontier.drain()
            assert not asyncio.all_tasks(loop)
            assert client.queries_issued == 2
        finally:
            client.close()
        assert loop.is_closed()
        assert server.stats().usage("budget").issued == 2


class _Sink(asyncio.Transport):
    """A transport that keeps what is written to it."""

    def __init__(self) -> None:
        super().__init__()
        self.written = b""
        self.closed = False

    def write(self, data) -> None:
        self.written += data

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


@pytest.fixture
def bare_loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


class TestConnectionProtocol:
    """One connection's response parsing, fed bytes as the wire may cut
    them (no socket: the protocol's callbacks are called directly)."""

    HEAD = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"X-Data-Version: 3\r\nContent-Length: 13\r\n\r\n"
    )
    BODY = b'{"rows": [1]}'

    @staticmethod
    def _request(loop):
        conn = aclient._Connection(loop)
        conn.connection_made(_Sink())
        return conn, conn.request(b"POST /api/query HTTP/1.1\r\n\r\n")

    def test_a_response_parses_alike_however_it_is_cut(self, bare_loop):
        raw = self.HEAD + self.BODY
        cuts = [[raw[:at], raw[at:]] for at in range(1, len(raw))]
        cuts.append([raw[at : at + 1] for at in range(len(raw))])
        headers = {
            "content-type": "application/json",
            "x-data-version": "3",
            "content-length": "13",
        }
        for pieces in cuts:
            conn, answer = self._request(bare_loop)
            for piece in pieces:
                assert not answer.done()
                conn.data_received(piece)
            assert answer.result() == (200, headers, self.BODY)
            assert conn.usable

    @pytest.mark.parametrize(
        "head",
        [
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"SMTP 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\n",
        ],
        ids=["status", "protocol", "length"],
    )
    def test_a_malformed_head_fails_the_request(self, bare_loop, head):
        conn, answer = self._request(bare_loop)
        conn.data_received(head)
        assert isinstance(answer.exception(), ConnectionError)
        assert not conn.usable

    def test_a_response_cut_short_fails_the_request(self, bare_loop):
        conn, answer = self._request(bare_loop)
        conn.data_received(self.HEAD + self.BODY[:5])
        conn.connection_lost(None)
        assert isinstance(answer.exception(), ConnectionError)
        assert not conn.usable

    def test_an_expired_request_fails_and_drops_the_connection(
        self, bare_loop
    ):
        conn, answer = self._request(bare_loop)
        conn.data_received(self.HEAD)
        conn.expire()
        assert isinstance(answer.exception(), TimeoutError)
        assert not conn.usable
