"""Observability over the wire: /metrics, stats additions, trace ids."""

from __future__ import annotations

import io
import json
import logging
import urllib.request

import pytest

from repro import Discoverer
from repro.core import DiscoveryConfig
from repro.hiddendb import InterfaceKind
from repro.obs import RunObserver
from repro.service import FaultConfig, RemoteTopKInterface
from repro.service.client import QueryClientCore  # noqa: F401 (shared core)

from ..conftest import make_table, parse_prometheus, random_table


def get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def get_text(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type"),
            response.read().decode("utf-8"),
        )


@pytest.fixture
def table():
    import numpy as np

    return random_table(
        np.random.default_rng(7), (InterfaceKind.RQ,) * 3, n=120, domain=6
    )


class TestServerMetricsRoute:
    def test_exposition_parses_and_covers_billing(self, serve, table):
        server = serve(table, k=3, key_budget=500)
        client = RemoteTopKInterface(server.url, api_key="alice")
        result = Discoverer().run(client, "baseline")
        client.close()
        status, content_type, text = get_text(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        families = parse_prometheus(text)
        billed = families["hiddendb_queries_billed_total"]
        assert billed["type"] == "counter"
        assert billed["samples"][
            ("hiddendb_queries_billed_total", (("key", "alice"),))
        ] == float(result.total_cost)
        latency = families["hiddendb_request_latency_seconds"]
        assert latency["type"] == "histogram"
        query_count = latency["samples"][
            (
                "hiddendb_request_latency_seconds_count",
                (("route", "/api/query"),),
            )
        ]
        assert query_count >= result.total_cost
        assert families["hiddendb_requests_in_flight"]["type"] == "gauge"

    def test_replay_counter_increments(self, serve, table):
        server = serve(table, k=3)
        client = RemoteTopKInterface(server.url, api_key="bob",
                                     replay_nonce="fixed-nonce")
        from repro.hiddendb.query import Query

        query = Query.select_all()
        client.query(query)
        # Deterministic request id: re-presenting it must replay the
        # billed answer, not bill again.
        client.query(query)
        client.close()
        _, _, text = get_text(server.url + "/metrics")
        families = parse_prometheus(text)
        assert families["hiddendb_queries_replayed_total"]["samples"][
            ("hiddendb_queries_replayed_total", (("key", "bob"),))
        ] == 1.0
        assert families["hiddendb_queries_billed_total"]["samples"][
            ("hiddendb_queries_billed_total", (("key", "bob"),))
        ] == 1.0

    def test_fault_counter_increments(self, serve, table, no_sleep):
        server = serve(
            table,
            k=3,
            faults=FaultConfig(error_rate=0.9, seed=1),
        )
        client = RemoteTopKInterface(server.url, api_key="carol",
                                     max_retries=100, sleep=no_sleep)
        from repro.hiddendb.query import Query

        client.query(Query.select_all())
        client.close()
        injected = server.stats().faults_injected
        assert injected >= 1
        _, _, text = get_text(server.url + "/metrics")
        samples = parse_prometheus(text)[
            "hiddendb_queries_faulted_total"
        ]["samples"]
        assert samples[
            ("hiddendb_queries_faulted_total", (("key", "carol"),))
        ] == float(injected)


class TestServerStatsAdditions:
    def test_uptime_in_flight_and_request_totals(self, serve, table):
        server = serve(table, k=3)
        client = RemoteTopKInterface(server.url, api_key="alice")
        from repro.hiddendb.query import Query

        client.query(Query.select_all())
        client.close()
        status, body = get_json(server.url + "/api/stats")
        assert status == 200
        assert body["uptime_s"] is not None and body["uptime_s"] >= 0
        # The stats request itself is still being processed.
        assert body["in_flight"] >= 1
        assert body["keys"]["alice"]["issued"] == 1
        # alice's schema bootstrap + one query, counted per key.  The
        # counter lands as each handler finishes, moments after the
        # response body -- poll briefly rather than racing it.
        import time

        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            _, body = get_json(server.url + "/api/stats")
            if body["requests"].get("alice", 0) >= 2:
                break
            time.sleep(0.05)
        assert body["requests"]["alice"] == 2


class TestTracePropagation:
    def test_client_propagates_trace_id_to_access_log(self, serve, table):
        server = serve(table, k=3)
        records: list[str] = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        handler = Capture(level=logging.DEBUG)
        service_logger = logging.getLogger("repro.service")
        old_level = service_logger.level
        service_logger.addHandler(handler)
        service_logger.setLevel(logging.DEBUG)
        try:
            client = RemoteTopKInterface(server.url, api_key="alice")
            observer = RunObserver(run_id="tracedrun")
            client.attach_observer(observer)
            from repro.hiddendb.query import Query

            query = Query.select_all()
            client.query(query)
            expected = observer.trace_id(query)
            client.close()
        finally:
            service_logger.removeHandler(handler)
            service_logger.setLevel(old_level)
        traced_lines = [line for line in records if "trace=" in line]
        assert any(f"trace={expected}" in line for line in traced_lines)

    def test_traced_remote_run_has_exact_parity(self, serve, table):
        server = serve(table, k=3)
        client = RemoteTopKInterface(server.url, api_key="alice")
        plain = Discoverer().run(client, "baseline")
        buffer = io.StringIO()
        client2 = RemoteTopKInterface(server.url, api_key="alice2")
        traced = Discoverer(DiscoveryConfig(trace=buffer)).run(
            client2, "baseline"
        )
        client.close()
        client2.close()
        assert traced.skyline_values == plain.skyline_values
        assert traced.total_cost == plain.total_cost
        spans = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        billed = [s for s in spans if s["phase"] == "billed"]
        assert len(billed) == traced.total_cost
        # The wire layer recorded one attempt per billed query, joined to
        # the engine spans by the same deterministic trace ids.
        attempt_ids = {
            s["trace_id"] for s in spans if s["phase"] == "attempt"
        }
        billed_ids = {s["trace_id"] for s in billed}
        assert billed_ids <= attempt_ids


def test_simple_rq_table_metrics_names_are_prefixed(serve):
    table = make_table(
        [(0, 9), (3, 3), (9, 0)], kinds=InterfaceKind.RQ, domain=10
    )
    server = serve(table, k=1)
    _, _, text = get_text(server.url + "/metrics")
    for name in parse_prometheus(text):
        assert name.startswith("hiddendb_")
