"""The remote-client contract -- retries, caching, error mapping,
telemetry -- checked against both transports through ``client_cls``."""

import asyncio
import json
import socket
import threading

import pytest

from repro.hiddendb import (
    InterfaceKind,
    Query,
    QueryBudgetExceeded,
    SearchEndpoint,
    TopKInterface,
    UnsupportedQueryError,
)
from repro.service import FaultConfig, RemoteServiceError, RemoteTopKInterface
from repro.service.client import _Retriable

from ..conftest import make_table


@pytest.fixture
def table():
    return make_table(
        [(0, 9), (3, 3), (9, 0), (5, 5)], kinds=InterfaceKind.RQ, domain=10
    )


def stub_exchange(monkeypatch, client_cls, bodies):
    """Answer every ``path`` in ``bodies`` with ``(status, JSON body)``."""

    async def exchange(self, method, path, data, headers):
        status, body = bodies[path]
        return status, {}, json.dumps(body).encode()

    monkeypatch.setattr(client_cls, "_exchange", exchange)


class TestEndpointSurface:
    def test_implements_search_endpoint(self, serve, table, client_cls):
        server = serve(table, k=2)
        remote = client_cls(server.url)
        assert isinstance(remote, SearchEndpoint)
        assert isinstance(TopKInterface(table, k=2), SearchEndpoint)

    def test_schema_and_k_fetched_at_construction(
        self, serve, table, client_cls
    ):
        server = serve(table, k=3, name="svc")
        remote = client_cls(server.url)
        assert remote.k == 3
        assert remote.service_name == "svc"
        assert remote.schema.m == table.schema.m
        assert [a.kind for a in remote.schema.ranking_attributes] == \
            [a.kind for a in table.schema.ranking_attributes]

    def test_query_matches_in_process_answer(self, serve, table, client_cls):
        server = serve(table, k=2)
        remote = client_cls(server.url)
        local = TopKInterface(table, k=2)
        query = Query.select_all().and_upper(0, 5)
        remote_result = remote.query(query)
        local_result = local.query(query)
        assert remote_result.rows == local_result.rows
        assert remote_result.overflow == local_result.overflow
        assert remote_result.sequence == local_result.sequence
        assert remote_result.query == query
        assert remote.queries_issued == 1

    def test_unreachable_service(self, no_sleep, client_cls):
        with pytest.raises(RemoteServiceError):
            client_cls(
                "http://127.0.0.1:9", max_retries=1, sleep=no_sleep, timeout=1.0
            )

    def test_stalled_service_times_out(self, no_sleep, client_cls):
        """A listener that accepts and never answers: ``timeout`` bounds
        each attempt, and the retries end in :class:`RemoteServiceError`."""
        outcome = []

        def construct(url):
            try:
                client_cls(url, max_retries=1, sleep=no_sleep, timeout=0.2)
            except Exception as exc:  # reported below
                outcome.append(exc)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            url = f"http://127.0.0.1:{listener.getsockname()[1]}"
            # The listener's backlog completes the handshakes; nothing
            # ever reads a request or writes a byte back.
            worker = threading.Thread(
                target=construct, args=(url,), daemon=True
            )
            worker.start()
            worker.join(timeout=10.0)
            assert not worker.is_alive(), "the client ignored its timeout"
        assert len(outcome) == 1
        assert isinstance(outcome[0], RemoteServiceError)


class TestErrorMapping:
    def test_budget_exceeded_maps_to_exception(self, serve, table, client_cls):
        server = serve(table, k=1, key_budget=2)
        remote = client_cls(server.url, api_key="crawler")
        remote.query(Query.select_all())
        remote.query(Query.select_all())
        with pytest.raises(QueryBudgetExceeded) as err:
            remote.query(Query.select_all())
        assert err.value.limit == 2
        # The rejected query is charged neither locally nor server-side.
        assert remote.queries_issued == 2
        assert server.stats().usage("crawler").issued == 2

    def test_unsupported_query_maps_to_exception(self, serve, client_cls):
        pq = make_table([(1, 1)], kinds=InterfaceKind.PQ, domain=10)
        server = serve(pq, k=1)
        remote = client_cls(server.url)
        with pytest.raises(UnsupportedQueryError):
            remote.query(Query.select_all().and_upper(0, 5))
        assert remote.queries_issued == 0

    @pytest.mark.parametrize(
        "status, body",
        [
            (200, {"overflow": False, "sequence": 1}),  # no rows
            (200, [1, 2]),  # not an object
            (200, {"rows": [{"rid": "x"}], "overflow": False, "sequence": 1}),
            (429, {"error": "budget_exceeded", "limit": "many"}),
        ],
    )
    def test_undecodable_answer_is_a_service_error(
        self, serve, table, client_cls, monkeypatch, status, body
    ):
        server = serve(table, k=2)
        remote = client_cls(server.url)
        stub_exchange(monkeypatch, client_cls, {"/api/query": (status, body)})
        with pytest.raises(RemoteServiceError):
            remote.query(Query.select_all())
        assert remote.queries_issued == 0

    def test_undecodable_batch_item_keeps_paid_for_answers(
        self, serve, table, client_cls, monkeypatch
    ):
        server = serve(table, k=2)
        remote = client_cls(server.url)
        answer = {"rows": [], "overflow": False, "sequence": 1}
        stub_exchange(monkeypatch, client_cls, {"/api/batch": (200, {
            "items": [
                {"status": 200, "body": answer},
                {"status": 200, "body": {"overflow": False, "sequence": 2}},
            ],
        })})
        queries = [Query.select_all(), Query.select_all().and_upper(0, 5)]
        with pytest.raises(RemoteServiceError) as err:
            remote.batch_query(queries)
        first, second = err.value.partial_results
        assert first is not None and first.query == queries[0]
        assert second is None
        assert remote.queries_issued == 1

    def test_undecodable_batch_envelope_is_a_service_error(
        self, serve, table, client_cls, monkeypatch
    ):
        server = serve(table, k=2)
        remote = client_cls(server.url)
        stub_exchange(monkeypatch, client_cls, {"/api/batch": (200, {
            "items": [{"body": {}}, {"status": 200}],
        })})
        with pytest.raises(RemoteServiceError) as err:
            remote.batch_query(
                [Query.select_all(), Query.select_all().and_upper(0, 5)]
            )
        assert err.value.partial_results == (None, None)


class TestRetries:
    def test_retries_absorb_injected_faults(
        self, serve, table, no_sleep, client_cls
    ):
        server = serve(
            table, k=2, faults=FaultConfig(error_rate=0.5, seed=3)
        )
        remote = client_cls(
            server.url, max_retries=50, sleep=no_sleep
        )
        local = TopKInterface(table, k=2)
        for _ in range(10):
            assert remote.query(Query.select_all()).rows == \
                local.query(Query.select_all()).rows
        assert remote.retries > 0
        # Injected faults are never billed.
        assert server.stats().queries_total == 10

    def test_gives_up_after_max_retries(
        self, serve, table, no_sleep, client_cls
    ):
        server = serve(table, faults=FaultConfig(error_rate=1.0, seed=0))
        remote = client_cls(
            server.url, max_retries=3, sleep=no_sleep
        )
        with pytest.raises(RemoteServiceError) as err:
            remote.query(Query.select_all())
        assert err.value.status in (429, 503)
        assert remote.retries == 3

    def test_retries_reuse_one_request_id_per_logical_query(
        self, serve, table, no_sleep, monkeypatch, client_cls
    ):
        # All attempts of one query() must share an X-Request-Id (so the
        # server can dedup billing), and distinct queries must use new ids.
        server = serve(table, k=2)
        remote = client_cls(server.url, max_retries=5, sleep=no_sleep)
        seen: list[str | None] = []
        original = client_cls._exchange
        failed_once = []

        async def flaky_exchange(self, method, path, data, headers):
            if path == "/api/query":
                seen.append(headers.get("X-Request-Id"))
                if not failed_once:
                    failed_once.append(True)
                    raise _Retriable("simulated lost response", status=None)
            return await original(self, method, path, data, headers)

        monkeypatch.setattr(client_cls, "_exchange", flaky_exchange)
        remote.query(Query.select_all())
        remote.query(Query.select_all().and_upper(0, 5))
        assert len(seen) == 3  # two attempts for query 1, one for query 2
        assert seen[0] is not None and seen[0] == seen[1]
        assert seen[2] is not None and seen[2] != seen[0]

    def test_backoff_schedule_is_exponential_and_capped(
        self, serve, table, client_cls
    ):
        server = serve(table, faults=FaultConfig(error_rate=1.0, seed=0))
        slept: list[float] = []
        remote = client_cls(
            server.url, max_retries=5, backoff=0.1, backoff_cap=0.4,
            sleep=slept.append,
        )
        with pytest.raises(RemoteServiceError):
            remote.query(Query.select_all())
        assert slept == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_blocking_transport_refuses_a_suspending_sleep(
        self, serve, table
    ):
        # The blocking client runs the protocol without an event loop, so
        # a sleeper that suspends is an error, not a silent hang.
        server = serve(table, faults=FaultConfig(error_rate=1.0, seed=0))
        with RemoteTopKInterface(
            server.url, max_retries=1, sleep=lambda _s: asyncio.sleep(0)
        ) as remote:
            with pytest.raises(RuntimeError, match="suspended"):
                remote.query(Query.select_all())


class TestNoAnswerReuse:
    def test_a_repeated_query_is_billed_again(
        self, serve, table, client_cls
    ):
        # The client reuses no answer: the engine's memo and a crawl
        # store's ledger are the only places a paid-for answer is reused.
        server = serve(table, k=2)
        remote = client_cls(server.url)
        first = remote.query(Query.select_all())
        second = remote.query(Query.select_all())
        assert second.rows == first.rows
        assert (first.sequence, second.sequence) == (1, 2)
        assert remote.queries_issued == 2
        assert server.stats().queries_total == 2


class TestTelemetry:
    def test_budget_remaining_tracks_headers(self, serve, table, client_cls):
        server = serve(table, k=1, key_budget=3)
        remote = client_cls(server.url)
        assert remote.budget_remaining is None  # schema route has no header
        remote.query(Query.select_all())
        assert remote.budget_remaining == 2

    def test_budget_remaining_reaches_zero_on_exhaustion(
        self, serve, table, client_cls
    ):
        server = serve(table, k=1, key_budget=1)
        remote = client_cls(server.url)
        remote.query(Query.select_all())
        with pytest.raises(QueryBudgetExceeded):
            remote.query(Query.select_all())
        # The 429 carries X-Budget-Remaining: 0; telemetry must not report
        # leftover budget on an exhausted key.
        assert remote.budget_remaining == 0

    def test_server_stats_accessor(self, serve, table, client_cls):
        server = serve(table, k=1)
        remote = client_cls(server.url, api_key="me")
        remote.query(Query.select_all())
        stats = remote.server_stats()
        assert stats["keys"]["me"]["issued"] == 1

    def test_connection_survives_close_and_context_manager(
        self, serve, table, client_cls
    ):
        server = serve(table, k=1)
        with client_cls(server.url) as remote:
            remote.query(Query.select_all())
            remote.close()  # next request transparently reconnects
            remote.query(Query.select_all())
            assert remote.queries_issued == 2

    def test_rejects_malformed_url(self, client_cls):
        for url in ("127.0.0.1:8080", "ftp://nope"):
            with pytest.raises(ValueError):
                client_cls(url)
