"""Batched dispatch over the wire: /api/batch, client pipelining, parity.

Covers the three layers the engine's batched path crosses: the wire
format, the server route (per-item billing / faults / replay), and the
client's ``batch_query`` -- plus the remote half of the serial <->
pipelined parity satellite (every algorithm, workers in {1, 4}).
"""

import json
import urllib.request
from contextlib import ExitStack

import pytest

from repro import Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen import diamonds_table
from repro.hiddendb import Query, QueryBudgetExceeded
from repro.service import FaultConfig, RemoteTopKInterface
from repro.service.server import MAX_BATCH_ITEMS
from repro.service.wire import (
    decode_batch_answer,
    encode_batch_answer,
    encode_batch_request,
)

from ..conftest import (
    PARITY_TABLES as TABLES,
    parity_run_params as run_params,
)


def post_json(url, payload, headers=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


@pytest.fixture
def connect():
    """Build :class:`RemoteTopKInterface` clients closed on teardown."""
    with ExitStack() as stack:
        yield lambda *args, **kwargs: stack.enter_context(
            RemoteTopKInterface(*args, **kwargs)
        )


def sample_queries(count=3):
    queries = [Query.select_all()]
    for value in range(count - 1):
        queries.append(Query.select_all().and_upper(0, value + 2))
    return queries[:count]


class TestWireFormat:
    def test_batch_request_round_trip_shape(self):
        queries = sample_queries(3)
        body = encode_batch_request(queries, ["a", "b", "c"])
        assert [item["id"] for item in body["items"]] == ["a", "b", "c"]
        answer = encode_batch_answer(
            (200, json.dumps({"x": i}).encode()) for i in range(3)
        )
        # The spliced envelope is the bytes json.dumps writes for it.
        expected = {
            "items": [{"status": 200, "body": {"x": i}} for i in range(3)]
        }
        assert answer == json.dumps(expected).encode()
        decoded = decode_batch_answer(json.loads(answer), 3)
        assert decoded == [(200, {"x": 0}), (200, {"x": 1}), (200, {"x": 2})]

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            encode_batch_request(sample_queries(2), ["only-one"])

    def test_wrong_item_count_rejected(self):
        with pytest.raises(ValueError):
            decode_batch_answer({"items": [{"status": 200, "body": {}}]}, 2)


class TestServerBatchRoute:
    def test_per_item_billing_and_answers_match_single_path(self, serve):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        queries = sample_queries(3)
        status, payload = post_json(
            f"{server.url}/api/batch",
            encode_batch_request(queries, ["q0", "q1", "q2"]),
            headers={"X-Api-Key": "batch"},
        )
        assert status == 200
        outcomes = decode_batch_answer(payload, 3)
        assert all(item_status == 200 for item_status, _ in outcomes)
        assert server.stats().usage("batch").issued == 3
        # Same answers as the single-query endpoint (fresh key).
        for query, (_, body) in zip(queries, outcomes):
            _, single = post_json(
                f"{server.url}/api/query",
                {"query": encode_batch_request([query], ["x"])["items"][0]["query"]},
                headers={"X-Api-Key": "single"},
            )
            assert body["rows"] == single["rows"]
            assert body["overflow"] == single["overflow"]

    def test_replayed_ids_are_not_billed_twice(self, serve):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        body = encode_batch_request(sample_queries(2), ["r0", "r1"])
        _, first = post_json(
            f"{server.url}/api/batch", body, {"X-Api-Key": "replay"}
        )
        status, payload = post_json(
            f"{server.url}/api/batch", body, {"X-Api-Key": "replay"}
        )
        assert status == 200
        outcomes = decode_batch_answer(payload, 2)
        assert all(item_status == 200 for item_status, _ in outcomes)
        # Replayed items carry the answers first billed, sequence included.
        assert outcomes == decode_batch_answer(first, 2)
        assert server.stats().usage("replay").issued == 2

    def test_oversized_batch_rejected(self, serve):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        queries = [Query.select_all()] * (MAX_BATCH_ITEMS + 1)
        ids = [f"id{i}" for i in range(len(queries))]
        request = urllib.request.Request(
            f"{server.url}/api/batch",
            data=json.dumps(encode_batch_request(queries, ids)).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as error:
            assert error.code == 400
            payload = json.loads(error.read().decode("utf-8"))
        assert payload["error"] == "batch_too_large"

    def test_per_item_budget_enforcement(self, serve):
        table = TABLES["rq3"]
        server = serve(table, k=5, key_budget=2)
        status, payload = post_json(
            f"{server.url}/api/batch",
            encode_batch_request(sample_queries(3), ["b0", "b1", "b2"]),
            headers={"X-Api-Key": "tight"},
        )
        assert status == 200
        outcomes = decode_batch_answer(payload, 3)
        assert [s for s, _ in outcomes] == [200, 200, 429]
        assert outcomes[2][1]["error"] == "budget_exceeded"
        assert server.stats().usage("tight").issued == 2

    def test_schema_advertises_batch_capability(self, serve):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        with urllib.request.urlopen(f"{server.url}/api/schema") as response:
            metadata = json.loads(response.read().decode("utf-8"))
        assert metadata["batch"] is True
        assert metadata["max_batch"] == MAX_BATCH_ITEMS


class TestClientBatchQuery:
    def test_batch_results_match_per_query_dispatch(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        remote = connect(server.url, api_key="client")
        assert remote.supports_batch
        queries = sample_queries(4)
        batched = remote.batch_query(queries)
        reference = connect(server.url, api_key="ref")
        singles = [reference.query(query) for query in queries]
        assert [r.rows for r in batched] == [r.rows for r in singles]
        assert [r.overflow for r in batched] == [r.overflow for r in singles]
        assert remote.queries_issued == len(queries)

    def test_batch_retries_faulted_items_without_double_billing(
        self, serve, no_sleep, connect
    ):
        table = TABLES["rq3"]
        server = serve(
            table, k=5, faults=FaultConfig(error_rate=0.4, seed=1)
        )
        remote = connect(
            server.url, api_key="flaky", max_retries=50, sleep=no_sleep
        )
        queries = sample_queries(4)
        results = remote.batch_query(queries)
        assert len(results) == 4
        assert remote.queries_issued == 4
        # Each item was billed exactly once despite the injected faults.
        assert server.stats().usage("flaky").issued == 4
        assert server.stats().faults_injected > 0

    def test_budget_exhaustion_raises_after_accounting(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5, key_budget=2)
        remote = connect(server.url, api_key="broke")
        with pytest.raises(QueryBudgetExceeded):
            remote.batch_query(sample_queries(4))
        # The two items answered before exhaustion were still billed and
        # counted client-side.
        assert remote.queries_issued == 2
        assert server.stats().usage("broke").issued == 2

    def test_cache_hits_skip_the_wire(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        remote = connect(
            server.url, api_key="cached", cache_size=64
        )
        queries = sample_queries(3)
        remote.batch_query(queries)
        again = remote.batch_query(queries)
        assert len(again) == 3
        assert remote.queries_issued == 3
        assert remote.cache_hits == 3
        assert server.stats().usage("cached").issued == 3

    def test_fallback_to_per_query_dispatch(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        remote = connect(server.url, api_key="fallback")
        remote._supports_batch = False  # as if the server were pre-batch
        queries = sample_queries(3)
        results = remote.batch_query(queries)
        assert len(results) == 3
        assert remote.queries_issued == 3
        assert server.stats().usage("fallback").issued == 3

    def test_fallback_failure_attaches_partial_results(self, serve, connect):
        # Regression: the per-query fallback must carry already-billed
        # answers on the raised exception, like the batched path does.
        table = TABLES["rq3"]
        server = serve(table, k=5, key_budget=2)
        remote = connect(server.url, api_key="fb-broke")
        remote._supports_batch = False
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            remote.batch_query(sample_queries(4))
        partial = excinfo.value.partial_results
        answered = [r for r in partial if r is not None]
        assert len(answered) == 2
        assert remote.queries_issued == 2
        assert server.stats().usage("fb-broke").issued == 2


class TestRemotePipelinedParity:
    """Satellite: remote serial <-> pipelined parity for every algorithm."""

    @pytest.mark.parametrize("algorithm,table", run_params())
    @pytest.mark.parametrize("workers", [1, 4])
    def test_remote_parity(self, serve, algorithm, table, workers, connect):
        local = TopKInterface(table, k=5)
        reference = Discoverer().run(local, algorithm)

        server = serve(table, k=5)
        remote = connect(
            server.url, api_key=f"{algorithm}-w{workers}"
        )
        result = Discoverer(
            DiscoveryConfig(workers=workers, batch_size=8)
        ).run(remote, algorithm)

        assert result.skyline_values == reference.skyline_values
        assert result.total_cost == reference.total_cost
        assert result.complete == reference.complete
        assert (
            server.stats().usage(f"{algorithm}-w{workers}").issued
            == reference.total_cost
        )

    def test_pipelined_run_survives_fault_injection(
        self, serve, no_sleep, connect
    ):
        table = TABLES["rq3"]
        reference = Discoverer().run(TopKInterface(table, k=5), "baseline")
        server = serve(
            table, k=5, faults=FaultConfig(error_rate=0.2, seed=7)
        )
        remote = connect(
            server.url, api_key="faulted", max_retries=50, sleep=no_sleep
        )
        result = Discoverer(DiscoveryConfig(workers=4, batch_size=8)).run(
            remote, "baseline"
        )
        assert result.skyline_values == reference.skyline_values
        assert result.total_cost == reference.total_cost
        assert server.stats().faults_injected > 0
        assert server.stats().usage("faulted").issued == reference.total_cost

    def test_remote_budget_exhaustion_keeps_billed_answers(
        self, serve, connect
    ):
        # Regression: when the server-side key budget dies mid-batch, the
        # answers billed before exhaustion must still reach the session.
        table = TABLES["rq3"]
        server = serve(table, k=5, key_budget=30)
        remote = connect(server.url, api_key="mid-batch")
        result = Discoverer(DiscoveryConfig(workers=1, batch_size=8)).run(
            remote, "baseline"
        )
        assert not result.complete
        assert result.total_cost == 30
        assert remote.queries_issued == 30
        assert server.stats().usage("mid-batch").issued == 30
        assert len(result.retrieved) > 0

    def test_cache_hits_do_not_consume_session_budget(self, serve, connect):
        # Regression: the reservation-based budget must only charge
        # billable transports -- client-LRU cache hits stay free, exactly
        # like the pre-engine `cost >= budget` check treated them.
        table = diamonds_table(150, seed=3)
        server = serve(table, k=10)
        probe = connect(
            server.url, api_key="probe", cache_size=65_536
        )
        reference = Discoverer().run(probe, "sq")
        assert probe.cache_hits > 0  # SQ's tree repeats queries in-run

        crawler = connect(
            server.url, api_key="budgeted", cache_size=65_536
        )
        result = Discoverer(
            DiscoveryConfig(budget=reference.total_cost)
        ).run(crawler, "sq")
        assert result.complete
        assert result.total_cost == reference.total_cost

    def test_pipelined_batches_actually_travel_batched(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        remote = connect(server.url, api_key="batched")
        result = Discoverer(DiscoveryConfig(workers=4, batch_size=8)).run(
            remote, "baseline"
        )
        assert result.stats.batches > 0
        assert result.stats.batched > 0
        assert result.stats.max_in_flight > 1
