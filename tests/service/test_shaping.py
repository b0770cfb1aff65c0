"""Server traffic shaping: token-bucket rate limits + load shedding.

The server must throttle *honestly*: a 429 names the seconds until the
key's next token refills, a load-shed 503 names a short retriable pause,
and neither is ever billed or replay-cached.  The client must honor
those hints -- ``Retry-After`` floors the retry sleep -- and surface the
signals as window pressure through ``take_throttle_signals``.
"""

import threading
import urllib.request

import pytest

from repro import Discoverer, TopKInterface
from repro.hiddendb import Query
from repro.service import FaultConfig
from repro.service.client import (
    RETRY_AFTER_CAP,
    RemoteServiceError,
    _parse_retry_after,
)
from repro.service.server import LOAD_SHED_RETRY_AFTER, _TokenBucket

from ..conftest import PARITY_TABLES as TABLES, parse_prometheus


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_then_honest_wait(self):
        clock = FakeClock()
        bucket = _TokenBucket(rate=10.0, burst=3, clock=clock)
        assert [bucket.acquire("key") for _ in range(3)] == [0.0, 0.0, 0.0]
        # Bucket empty: the wait is exactly one token's refill time.
        assert bucket.acquire("key") == pytest.approx(0.1)

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = _TokenBucket(rate=10.0, burst=2, clock=clock)
        bucket.acquire("key")
        bucket.acquire("key")
        clock.now = 0.1  # one token refilled
        assert bucket.acquire("key") == 0.0
        assert bucket.acquire("key") > 0.0

    def test_keys_are_independent(self):
        clock = FakeClock()
        bucket = _TokenBucket(rate=1.0, burst=1, clock=clock)
        assert bucket.acquire("a") == 0.0
        assert bucket.acquire("b") == 0.0
        assert bucket.acquire("a") > 0.0


class TestServerThrottling:
    def test_rate_limited_429_names_honest_retry_after(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5, rate_limit=10.0, burst=2)
        query = Query.select_all()
        client = connect(server.url, api_key="hot", max_retries=0)
        # Burst exhausted after two queries; the third is throttled.
        client.query(query)
        client.query(query)
        with pytest.raises(RemoteServiceError) as err:
            client.query(query)
        assert err.value.status == 429
        assert client.throttled == 1
        count, retry_after = client.take_throttle_signals()
        assert count == 1
        assert 0.0 < retry_after <= 0.1 + 1e-6

    def test_throttled_queries_are_not_billed(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5, rate_limit=5.0, burst=1)
        client = connect(server.url, api_key="meter", max_retries=0)
        client.query(Query.select_all())
        from repro.service.client import RemoteServiceError

        with pytest.raises(RemoteServiceError):
            client.query(Query.select_all())
        assert server.stats().queries_total == 1

    def test_load_shed_503_when_inflight_exceeds_cap(self, serve, connect):
        # One query parked in injected latency holds the single slot; a
        # concurrent one must be shed with a retriable 503.
        table = TABLES["rq3"]
        server = serve(
            table, k=5, max_inflight=1,
            faults=FaultConfig(latency=(0.3, 0.3), seed=1),
        )
        slow = connect(server.url, api_key="slow")
        fast = connect(server.url, api_key="fast", max_retries=0)
        started = threading.Event()

        def occupy():
            started.set()
            slow.query(Query.select_all())

        worker = threading.Thread(target=occupy)
        worker.start()
        started.wait()
        import time as _time

        _time.sleep(0.05)  # let the slow query enter the handler
        from repro.service.client import RemoteServiceError

        with pytest.raises(RemoteServiceError) as err:
            fast.query(Query.select_all())
        worker.join()
        assert err.value.status == 503
        count, retry_after = fast.take_throttle_signals()
        assert count >= 1
        # A shed 503 is pressure but not a pacing signal: its hint floors
        # the per-request retry sleep, never the whole dispatch window.
        assert retry_after == 0.0

    def test_throttle_metric_exposed(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5, rate_limit=5.0, burst=1)
        client = connect(server.url, api_key="scrape", max_retries=0)
        client.query(Query.select_all())
        from repro.service.client import RemoteServiceError

        with pytest.raises(RemoteServiceError):
            client.query(Query.select_all())
        with urllib.request.urlopen(server.url + "/metrics") as response:
            text = response.read().decode()
        families = parse_prometheus(text)
        samples = families["hiddendb_server_throttled_total"]["samples"]
        key = ("hiddendb_server_throttled_total", (("key", "scrape"),))
        assert samples[key] >= 1.0

    def test_retrying_client_converges_under_throttling(
        self, serve, connect, no_sleep
    ):
        # With retries enabled the crawl completes at the exact reference
        # cost: throttled attempts are retried, never billed.
        table = TABLES["rq3"]
        reference = Discoverer().run(TopKInterface(table, k=5))
        server = serve(table, k=5, rate_limit=200.0, burst=5)
        client = connect(
            server.url, api_key="patient", max_retries=50, sleep=no_sleep
        )
        result = Discoverer().run(client)
        assert result.skyline_values == reference.skyline_values
        assert result.total_cost == reference.total_cost
        assert server.stats().queries_total == reference.total_cost

    def test_server_validates_shaping_parameters(self):
        from repro.service import HiddenDBServer

        table = TABLES["rq3"]
        with pytest.raises(ValueError, match="rate_limit"):
            HiddenDBServer(table, rate_limit=0.0)
        with pytest.raises(ValueError, match="burst requires"):
            HiddenDBServer(table, burst=4)
        with pytest.raises(ValueError, match="burst must be"):
            HiddenDBServer(table, rate_limit=5.0, burst=0)
        with pytest.raises(ValueError, match="max_inflight"):
            HiddenDBServer(table, max_inflight=0)


class TestClientRetryAfter:
    def test_parse_retry_after(self):
        assert _parse_retry_after(None) is None
        assert _parse_retry_after("1.5") == 1.5
        assert _parse_retry_after(2) == 2.0
        assert _parse_retry_after("-3") == 0.0
        assert _parse_retry_after("soon") is None
        # Non-finite hints are malformed, not an infinite wait.
        assert _parse_retry_after("inf") is None
        assert _parse_retry_after("-inf") is None
        assert _parse_retry_after("nan") is None
        assert _parse_retry_after(float("inf")) is None

    def test_throttle_holdoff_is_capped(self, serve, client_cls):
        # One token per ~10000 s: the second query's 429 names a wait far
        # past the cap, which must not become the window's hold-off.
        table = TABLES["rq3"]
        server = serve(table, k=5, rate_limit=1e-4, burst=1)
        client = client_cls(server.url, api_key="slow", max_retries=0)
        client.query(Query.select_all())
        with pytest.raises(RemoteServiceError) as err:
            client.query(Query.select_all())
        assert err.value.status == 429
        count, retry_after = client.take_throttle_signals()
        assert count == 1
        assert 0.0 < retry_after <= RETRY_AFTER_CAP

    def test_hint_floors_the_backoff(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5)
        client = connect(server.url, backoff=0.01, backoff_cap=1.0)
        # No hint: pure exponential backoff.
        assert client._retry_delay(1, None) == pytest.approx(0.01)
        assert client._retry_delay(3, None) == pytest.approx(0.04)
        # A hint larger than the backoff floors the sleep.
        assert client._retry_delay(1, 0.5) == pytest.approx(0.5)
        # The backoff still escalates past a small hint.
        assert client._retry_delay(7, 0.1) == pytest.approx(0.64)
        # Hostile hints are capped.
        assert client._retry_delay(1, 3600.0) == pytest.approx(RETRY_AFTER_CAP)

    def test_throttled_retry_sleeps_at_least_the_hint(self, serve, connect):
        table = TABLES["rq3"]
        server = serve(table, k=5, rate_limit=10.0, burst=1)
        import time as _time

        sleeps: list[float] = []

        def recording_sleep(seconds: float) -> None:
            # Really sleep: the bucket must refill for the retry to pass.
            sleeps.append(seconds)
            _time.sleep(seconds)

        client = connect(
            server.url, api_key="timed", max_retries=8,
            backoff=0.001, backoff_cap=0.002,
            sleep=recording_sleep,
        )
        client.query(Query.select_all())
        client.query(Query.select_all())  # throttled once, then retried
        assert sleeps, "the throttled attempt must have slept"
        # The sleep honored the server's ~0.1s refill hint, not the
        # microscopic configured backoff.
        assert max(sleeps) > 0.002
