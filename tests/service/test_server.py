"""HTTP-level tests of the hidden-DB server (raw urllib, no client class)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.hiddendb import InterfaceKind
from repro.service import FaultConfig, FaultInjector
from repro.service.wire import encode_query
from repro.hiddendb.query import Query

from ..conftest import make_table, post_raw_content_length, raw_exchange


def get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def post(url: str, payload: dict, api_key: str | None = None,
         request_id: str | None = None):
    headers = {"Content-Type": "application/json"}
    if api_key is not None:
        headers["X-Api-Key"] = api_key
    if request_id is not None:
        headers["X-Request-Id"] = request_id
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers=headers, method="POST"
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def query_payload(query: Query) -> dict:
    return {"query": encode_query(query)}


@pytest.fixture
def table():
    return make_table(
        [(0, 9), (3, 3), (9, 0), (5, 5)], kinds=InterfaceKind.RQ, domain=10
    )


class TestMetadataRoutes:
    def test_schema_route(self, serve, table):
        server = serve(table, k=2, name="unit")
        status, body = get(server.url + "/api/schema")
        assert status == 200
        assert body["k"] == 2
        assert body["name"] == "unit"
        assert [a["kind"] for a in body["schema"]["attributes"]] == ["rq", "rq"]

    def test_healthz(self, serve, table):
        server = serve(table)
        status, body = get(server.url + "/healthz")
        assert (status, body["status"]) == (200, "ok")

    def test_unknown_route_404(self, serve, table):
        server = serve(table)
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/nope")
        assert err.value.code == 404


class TestQueryRoute:
    def test_top_k_answer(self, serve, table):
        server = serve(table, k=2)
        status, body = post(
            server.url + "/api/query", query_payload(Query.select_all())
        )
        assert status == 200
        assert [row["values"] for row in body["rows"]] == [[3, 3], [0, 9]]
        assert body["overflow"] is True
        assert body["sequence"] == 1

    def test_billing_is_per_key(self, serve, table):
        server = serve(table, k=1)
        url = server.url + "/api/query"
        post(url, query_payload(Query.select_all()), api_key="alice")
        post(url, query_payload(Query.select_all()), api_key="alice")
        post(url, query_payload(Query.select_all()), api_key="bob")
        stats = server.stats()
        assert stats.queries_total == 3
        assert stats.usage("alice").issued == 2
        assert stats.usage("bob").issued == 1

    def test_budget_exhaustion_is_429_and_unbilled(self, serve, table):
        server = serve(table, k=1, key_budget=1)
        url = server.url + "/api/query"
        status, _ = post(url, query_payload(Query.select_all()), api_key="a")
        assert status == 200
        with pytest.raises(urllib.error.HTTPError) as err:
            post(url, query_payload(Query.select_all()), api_key="a")
        assert err.value.code == 429
        body = json.loads(err.value.read())
        assert body["error"] == "budget_exceeded"
        assert body["limit"] == 1
        assert body["retriable"] is False
        assert server.stats().usage("a").issued == 1

    def test_unsupported_query_is_400_and_unbilled(self, serve):
        pq = make_table([(1, 1)], kinds=InterfaceKind.PQ, domain=10)
        server = serve(pq, k=1)
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server.url + "/api/query",
                 query_payload(Query.select_all().and_upper(0, 5)))
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"] == "unsupported_query"
        assert server.stats().queries_total == 0

    def test_invalid_json_is_400(self, serve, table):
        server = serve(table)
        request = urllib.request.Request(
            server.url + "/api/query", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_malformed_content_length_is_400_before_the_body(
        self, serve, table
    ):
        server = serve(table)
        body = json.dumps(query_payload(Query.select_all())).encode()
        for declared in ("abc", "-1"):
            status, answer = post_raw_content_length(
                server.url + "/api/query", declared, body
            )
            assert status == 400, declared
            assert answer["error"] == "bad_request"
            assert "Content-Length" in answer["message"]
        assert server.stats().queries_total == 0

    def test_repeated_request_id_is_replayed_not_rebilled(self, serve, table):
        # A client that lost the response retries the same X-Request-Id;
        # the server must replay the billed answer, not charge it again.
        server = serve(table, k=2)
        url = server.url + "/api/query"
        payload = query_payload(Query.select_all())
        first = post(url, payload, api_key="a", request_id="req-1")
        second = post(url, payload, api_key="a", request_id="req-1")
        assert second == first
        assert server.stats().usage("a").issued == 1
        # A fresh id is billed normally.
        post(url, payload, api_key="a", request_id="req-2")
        assert server.stats().usage("a").issued == 2

    def test_replay_is_the_reply_first_sent(self, serve, table):
        # The replay cache keeps a billed reply as first sent: a retry
        # gets the same status line, headers and body, byte for byte,
        # after the key's counters moved on.  Only the Date line may
        # differ.
        server = serve(table, k=2, key_budget=10)
        body = json.dumps(query_payload(Query.select_all())).encode()

        def exchange(request_id: bytes) -> list[bytes]:
            raw = raw_exchange(server.url, (
                b"POST /api/query HTTP/1.1\r\nHost: db\r\n"
                b"X-Api-Key: a\r\nX-Request-Id: %s\r\n"
                b"Connection: close\r\nContent-Length: %d\r\n\r\n"
                % (request_id, len(body))
            ) + body)
            return [
                line for line in raw.split(b"\r\n")
                if not line.startswith(b"Date: ")
            ]

        first = exchange(b"req-1")
        assert first[0] == b"HTTP/1.1 200 OK"
        assert b"X-Budget-Remaining: 9" in first
        exchange(b"req-2")  # billed: the key's counters move on
        assert exchange(b"req-1") == first
        assert server.stats().usage("a").issued == 2

    def test_replay_is_scoped_per_api_key(self, serve, table):
        server = serve(table, k=2)
        url = server.url + "/api/query"
        payload = query_payload(Query.select_all())
        post(url, payload, api_key="a", request_id="req-1")
        post(url, payload, api_key="b", request_id="req-1")
        stats = server.stats()
        assert stats.usage("a").issued == 1
        assert stats.usage("b").issued == 1

    def test_budget_headers(self, serve, table):
        server = serve(table, k=1, key_budget=5)
        request = urllib.request.Request(
            server.url + "/api/query",
            data=json.dumps(query_payload(Query.select_all())).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["X-Queries-Issued"] == "1"
            assert response.headers["X-Budget-Remaining"] == "4"


class TestStatsAndReset:
    def test_stats_route(self, serve, table):
        server = serve(table, key_budget=10)
        post(server.url + "/api/query", query_payload(Query.select_all()),
             api_key="k1")
        status, body = get(server.url + "/api/stats")
        assert status == 200
        assert body["queries_total"] == 1
        assert body["keys"]["k1"] == {
            "issued": 1, "budget": 10, "remaining": 9,
        }

    def test_reset_route_clears_billing(self, serve, table):
        server = serve(table)
        post(server.url + "/api/query", query_payload(Query.select_all()))
        status, body = post(server.url + "/api/reset", {})
        assert status == 200
        assert body["queries_total"] == 0
        assert server.stats().queries_total == 0

    def test_reset_clears_replay_cache(self, serve, table):
        # A pre-reset request id must be billed as a fresh query after the
        # reset, not replayed unbilled with a stale sequence number.
        server = serve(table, k=2)
        url = server.url + "/api/query"
        payload = query_payload(Query.select_all())
        post(url, payload, api_key="a", request_id="r1")
        post(server.url + "/api/reset", {})
        post(url, payload, api_key="a", request_id="r1")
        assert server.stats().usage("a").issued == 1

    def test_reset_single_key_clears_only_its_replay_entries(self, serve, table):
        server = serve(table, k=2)
        url = server.url + "/api/query"
        payload = query_payload(Query.select_all())
        post(url, payload, api_key="a", request_id="r1")
        post(url, payload, api_key="b", request_id="r1")
        post(server.url + "/api/reset", {"api_key": "a"})
        post(url, payload, api_key="a", request_id="r1")  # rebilled
        post(url, payload, api_key="b", request_id="r1")  # still replayed
        stats = server.stats()
        assert stats.usage("a").issued == 1
        assert stats.usage("b").issued == 1

    def test_reset_single_key(self, serve, table):
        server = serve(table)
        url = server.url + "/api/query"
        post(url, query_payload(Query.select_all()), api_key="a")
        post(url, query_payload(Query.select_all()), api_key="b")
        post(server.url + "/api/reset", {"api_key": "a"})
        stats = server.stats()
        assert stats.usage("a") is None
        assert stats.usage("b").issued == 1


#: Query bodies whose shape ``decode_query`` refuses.
MALFORMED_QUERIES = {
    "list": [1, 2],
    "string": "x",
    "list-ranges": {"ranges": [[0, 1]]},
    "list-filters": {"filters": ["a"]},
    "short-range": {"ranges": {"0": [1]}},
}


class TestMalformedInput:
    @pytest.mark.parametrize(
        "query", MALFORMED_QUERIES.values(), ids=MALFORMED_QUERIES
    )
    def test_malformed_query_is_400_and_unbilled(self, serve, table, query):
        server = serve(table)
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server.url + "/api/query", {"query": query}, api_key="a")
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["error"] == "bad_request"
        assert body["retriable"] is False
        assert server.stats().queries_total == 0

    @pytest.mark.parametrize(
        "query", MALFORMED_QUERIES.values(), ids=MALFORMED_QUERIES
    )
    def test_malformed_batch_item_is_400_beside_its_answered_sibling(
        self, serve, table, query
    ):
        server = serve(table, k=2)
        status, body = post(
            server.url + "/api/batch",
            {"items": [
                {"id": "good", "query": encode_query(Query.select_all())},
                {"id": "bad", "query": query},
            ]},
            api_key="a",
        )
        assert status == 200
        good, bad = body["items"]
        assert good["status"] == 200
        assert [row["values"] for row in good["body"]["rows"]] == [
            [3, 3], [0, 9],
        ]
        assert bad["status"] == 400
        assert bad["body"]["error"] == "bad_request"
        assert server.stats().usage("a").issued == 1

    @pytest.mark.parametrize("api_key", [{"a": 1}, ["a"], 7])
    def test_reset_names_a_key_by_string_only(self, serve, table, api_key):
        server = serve(table)
        post(server.url + "/api/query", query_payload(Query.select_all()),
             api_key="a")
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server.url + "/api/reset", {"api_key": api_key})
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"] == "bad_request"
        assert server.stats().usage("a").issued == 1


#: Where a request leaves out its query object.
MISSING_QUERIES = {"absent": {}, "null": {"query": None}}


class TestMissingQuery:
    """A query object is required: none is not ``*`` (select_all)."""

    @pytest.mark.parametrize(
        "payload", MISSING_QUERIES.values(), ids=MISSING_QUERIES
    )
    def test_query_without_its_object_is_400_and_unbilled(
        self, serve, table, payload
    ):
        server = serve(table)
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server.url + "/api/query", payload, api_key="a")
        assert err.value.code == 400
        assert json.loads(err.value.read()) == {
            "error": "bad_request",
            "message": "query must be a JSON object",
            "retriable": False,
        }
        assert server.stats().queries_total == 0

    @pytest.mark.parametrize(
        "payload", MISSING_QUERIES.values(), ids=MISSING_QUERIES
    )
    def test_batch_item_without_its_query_is_400_beside_its_sibling(
        self, serve, table, payload
    ):
        server = serve(table, k=2)
        status, body = post(
            server.url + "/api/batch",
            {"items": [
                {"id": "good", "query": encode_query(Query.select_all())},
                {"id": "bad", **payload},
            ]},
            api_key="a",
        )
        assert status == 200
        good, bad = body["items"]
        assert good["status"] == 200
        assert bad["status"] == 400
        assert bad["body"]["error"] == "bad_request"
        assert server.stats().usage("a").issued == 1


class TestStartupErrors:
    def test_port_collision_is_a_clear_startup_error(self, serve, table):
        from repro.service import HiddenDBServer, ServiceStartupError

        first = serve(table, k=2)
        second = HiddenDBServer(table, k=2, port=first.port)
        with pytest.raises(ServiceStartupError, match="already in use"):
            second.start()
        # The failed server never bound, so stop() must be a no-op and
        # the first server keeps serving.
        second.stop()
        status, _payload = get(f"{first.url}/healthz")
        assert status == 200


class TestServerMetadata:
    def test_wildcard_bind_advertises_loopback(self, serve, table):
        server = serve(table, host="0.0.0.0", port=0)
        assert server.url.startswith("http://127.0.0.1:")
        status, _ = get(server.url + "/healthz")
        assert status == 200

    def test_port_survives_stop(self, table):
        from repro.service import HiddenDBServer

        server = HiddenDBServer(table, port=0).start()
        bound = server.port
        assert bound != 0
        server.stop()
        assert server.port == bound
        assert server.url.endswith(f":{bound}")


class TestInflightDedup:
    def test_racing_duplicate_waits_and_replays(self, serve, table):
        # A client retry can arrive while its original request is still
        # sleeping in injected latency; the duplicate must wait for the
        # original's answer, not bill the query a second time.
        server = serve(
            table, k=2, faults=FaultConfig(latency=(0.25, 0.25), seed=0)
        )
        payload = {"query": encode_query(Query.select_all())}
        results = []

        def issue():
            results.append(
                server._handle_query(payload, "a", request_id="race-1")
            )

        first = threading.Thread(target=issue)
        second = threading.Thread(target=issue)
        first.start()
        time.sleep(0.05)  # original is now sleeping in injected latency
        second.start()
        first.join()
        second.join()
        assert len(results) == 2
        assert results[0] == results[1]
        assert results[0][0] == 200
        assert server.stats().usage("a").issued == 1


class TestConcurrency:
    def test_concurrent_clients_bill_exactly(self, serve, table):
        server = serve(table, k=1)
        url = server.url + "/api/query"
        per_thread = 20

        def crawl(key: str) -> None:
            for _ in range(per_thread):
                post(url, query_payload(Query.select_all()), api_key=key)

        threads = [
            threading.Thread(target=crawl, args=(f"key-{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = server.stats()
        assert stats.queries_total == 4 * per_thread
        for i in range(4):
            assert stats.usage(f"key-{i}").issued == per_thread


class TestFaultInjector:
    def test_deterministic_given_seed(self):
        config = FaultConfig(error_rate=0.5, seed=42)
        a = [FaultInjector(config).draw() for _ in range(50)]
        b = [FaultInjector(config).draw() for _ in range(50)]
        assert a == b

    def test_codes_drawn_from_config(self):
        injector = FaultInjector(
            FaultConfig(error_rate=1.0, error_codes=(429,), seed=0)
        )
        draws = [injector.draw() for _ in range(10)]
        assert all(code == 429 for _, code in draws)
        assert injector.injected == 10

    def test_zero_rate_never_injects(self):
        injector = FaultInjector(FaultConfig(latency=(0.0, 0.001), seed=0))
        assert all(code is None for _, code in
                   (injector.draw() for _ in range(20)))

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(error_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(error_rate=0.5, error_codes=())
        with pytest.raises(ValueError):
            FaultConfig(latency=(0.5, 0.1))
