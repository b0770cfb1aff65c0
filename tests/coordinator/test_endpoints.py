"""Unit tests for the sharded endpoint pool (repro.coordinator.endpoints).

The load-bearing invariant throughout: because the paper bills a query
identically no matter which mirror answers it, a crawl fanned over an
:class:`EndpointSet` must issue the exact query set -- and therefore pay
the exact cost and discover the exact skyline -- of a single-backend run.
"""

import zlib

import pytest

from repro import Discoverer, DiscoveryConfig, TopKInterface
from repro.coordinator import BackendSpec, EndpointSet, EndpointSetError
from repro.datagen import diamonds_table
from repro.hiddendb import Interval, Query, QueryBudgetExceeded

from ..conftest import truth_values

K = 5
N = 400


def sharded(pool: EndpointSet, per_backend: int = 4) -> DiscoveryConfig:
    """The engine config a coordinator job drains ``pool`` with: the one
    concurrent strategy, ``per_backend`` in flight per mirror."""
    return DiscoveryConfig(strategy="async", workers=per_backend * pool.size)


@pytest.fixture
def table():
    return diamonds_table(N, seed=3)


@pytest.fixture
def reference(table):
    """The serial single-endpoint run every sharded run must reproduce."""
    return Discoverer().run(TopKInterface(table, k=K), "rq")


class TestBackendSpec:
    def test_parse_url_only(self):
        spec = BackendSpec.parse("http://db.example:8080")
        assert spec.url == "http://db.example:8080"
        assert spec.api_key is None

    def test_parse_url_with_key(self):
        spec = BackendSpec.parse("http://db.example:8080=tenant-key")
        assert spec.url == "http://db.example:8080"
        assert spec.api_key == "tenant-key"

    def test_parse_rejects_empty_url(self):
        with pytest.raises(ValueError):
            BackendSpec.parse("=justakey")


class TestIdentity:
    def test_empty_pool_rejected(self):
        with pytest.raises(EndpointSetError):
            EndpointSet(())

    def test_mismatched_fingerprints_rejected(self, table, mirrors):
        same, = mirrors(table, 1, k=K)
        other, = mirrors(table, 1, name="a-different-service", k=K)
        with pytest.raises(EndpointSetError, match="disagree"):
            EndpointSet([same.url, other.url])

    def test_pool_exposes_the_shared_identity(self, table, mirrors):
        a, b = mirrors(table, 2, k=K)
        with EndpointSet([a.url, b.url]) as pool:
            assert pool.size == 2
            assert pool.fingerprint == a.fingerprint == b.fingerprint
            assert pool.k == K
            assert pool.service_name == "mirrored-db"
            assert pool.schema.m == table.schema.m


class TestSharding:
    def test_shard_of_is_crc32_stable(self, table, mirrors):
        a, b = mirrors(table, 2, k=K)
        with EndpointSet([a.url, b.url]) as pool:
            for key in ("*", "r:0:1-5", "r:1:0-0|f:make=2"):
                assert pool.shard_of(key) == zlib.crc32(key.encode()) % 2
                # Stable across repeated calls (and, by construction,
                # across processes -- a resumed coordinator must route
                # each query back to the mirror whose replay cache has it).
                assert pool.shard_of(key) == pool.shard_of(key)

    def test_query_routes_to_home_backend(self, table, mirrors):
        a, b = mirrors(table, 2, k=K)
        with EndpointSet([a.url, b.url]) as pool:
            query = Query.select_all()
            home = pool.shard_of(query.canonical_key())
            pool.query(query)
            stats = pool.stats()
            assert stats[home]["issued"] == 1
            assert stats[1 - home]["issued"] == 0


class TestShardedParity:
    def test_two_backends_same_cost_and_skyline(
        self, table, reference, mirrors
    ):
        a, b = mirrors(table, 2, k=K)
        with EndpointSet([a.url, b.url]) as pool:
            result = Discoverer(sharded(pool, 2)).run(pool, "rq")
        assert result.complete
        assert result.skyline_values == reference.skyline_values
        assert result.skyline_values == truth_values(table)
        assert result.total_cost == reference.total_cost
        assert result.stats.strategy == "async"
        # Both mirrors actually carried work: the whole point of sharding.
        shares = [entry["issued"] for entry in pool.stats()]
        assert all(share > 0 for share in shares)
        assert sum(shares) == reference.total_cost

    def test_three_backends_same_cost_and_skyline(
        self, table, reference, mirrors
    ):
        servers = mirrors(table, 3, k=K)
        with EndpointSet([s.url for s in servers]) as pool:
            result = Discoverer(sharded(pool)).run(pool, "rq")
        assert result.skyline_values == reference.skyline_values
        assert result.total_cost == reference.total_cost


class TestWorkStealing:
    def test_exhausted_backend_spills_to_healthy_one(
        self, table, reference, mirrors
    ):
        # Mirror A can answer only a handful of queries before its key's
        # budget runs dry; the crawl must still complete at the exact
        # reference cost, with A's overflow stolen by B.
        budget_a = max(3, reference.total_cost // 10)
        a, b = mirrors(
            table, 2, k=K, budgets=[{"starved": budget_a}, None]
        )
        with EndpointSet([f"{a.url}=starved", b.url]) as pool:
            result = Discoverer(sharded(pool, 2)).run(pool, "rq")
            stats = pool.stats()
        assert result.complete
        assert result.skyline_values == reference.skyline_values
        assert result.total_cost == reference.total_cost
        assert stats[0]["exhausted"]
        assert stats[0]["issued"] == budget_a
        assert stats[1]["stolen"] > 0

    def test_total_exhaustion_degrades_to_partial_result(
        self, table, reference, mirrors
    ):
        budget = max(2, reference.total_cost // 8)
        a, b = mirrors(
            table, 2, k=K,
            budgets=[{"ka": budget}, {"kb": budget}],
        )
        with EndpointSet([f"{a.url}=ka", f"{b.url}=kb"]) as pool:
            result = Discoverer(sharded(pool)).run(pool, "rq")
        # The standard anytime contract: a partial skyline, every billed
        # query accounted for, no hard failure.
        assert not result.complete
        assert result.skyline_values <= reference.skyline_values
        assert result.total_cost <= 2 * budget

    def test_direct_query_raises_once_everything_is_dry(self, table, mirrors):
        a, = mirrors(table, 1, k=K, budgets=[{"ka": 1}])
        with EndpointSet([f"{a.url}=ka"]) as pool:
            pool.query(Query.select_all())
            with pytest.raises(QueryBudgetExceeded):
                pool.query(Query({0: Interval(0, 0)}))


class _StubClient:
    """A backend client that only reports the pressure it is handed."""

    endpoint_fingerprint = "stub-fingerprint"
    data_version = 0

    def __init__(self, url, **_kwargs):
        self.url = url
        self.pending = (0, 0.0)

    def take_throttle_signals(self):
        taken, self.pending = self.pending, (0, 0.0)
        return taken

    def close(self):
        pass


class TestThrottleSignals:
    def test_pool_sums_pressure_and_reports_no_retry_after(self):
        made = []

        def factory(url, **kwargs):
            made.append(_StubClient(url, **kwargs))
            return made[-1]

        urls = ["http://a:1", "http://b:2", "http://c:3"]
        with EndpointSet(urls, client_factory=factory) as pool:
            assert [client.url for client in made] == urls
            assert pool.take_throttle_signals() == (0, 0.0)
            # Two of three mirrors throttled, each with its own hint: the
            # pool reports their summed count and no pool-wide hold-off
            # (each client already sleeps out its own Retry-After).
            made[0].pending = (2, 1.5)
            made[2].pending = (1, 0.25)
            assert pool.take_throttle_signals() == (3, 0.0)
            # Taking drains every client, like the clients themselves.
            assert pool.take_throttle_signals() == (0, 0.0)
            assert [client.pending for client in made] == [(0, 0.0)] * 3


class TestTelemetry:
    def test_backend_status_reports_budget_headroom(self, table, mirrors):
        a, b = mirrors(table, 2, k=K, budgets=[{"ka": 10}, None])
        with EndpointSet([f"{a.url}=ka", b.url]) as pool:
            pool.query(Query.select_all())
            status = pool.backend_status()
        assert [entry["ok"] for entry in status] == [True, True]
        assert {entry["fingerprint"] for entry in status} == {pool.fingerprint}
        budgeted = status[0]
        assert budgeted["budget"] == 10
        assert budgeted["remaining"] == 10 - budgeted["issued"]
