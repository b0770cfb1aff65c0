"""Over-the-wire tests for the crawl coordinator daemon.

Everything here speaks to the coordinator the way a tenant would: plain
HTTP + JSON against ``/api/jobs``, no in-process shortcuts.  The parity
gates mirror the subsystem's acceptance bar: a job fanned over two
backends produces the skyline *and* billed cost of a serial
single-process run, and a second tenant of the same endpoint bills
almost nothing because the shared ledger already paid for the answers.
"""

import socket
import sqlite3
import time

import pytest

from repro import CrawlStore, Discoverer, TopKInterface
from repro.coordinator import CrawlCoordinator
from repro.datagen import diamonds_table
from repro.service import FaultConfig

from ..conftest import post_raw_content_length
from .conftest import delete, get_json, post_json, wait_for_job

K = 5
N = 400


@pytest.fixture
def table():
    return diamonds_table(N, seed=3)


@pytest.fixture
def reference(table):
    """Serial, single-process, in-memory: the parity yardstick."""
    return Discoverer().run(TopKInterface(table, k=K), "rq")


@pytest.fixture
def coordinated(table, mirrors, tmp_path):
    """Two mirrored backends behind one started coordinator."""
    a, b = mirrors(table, 2, k=K)
    coordinator = CrawlCoordinator(
        [a.url, b.url], str(tmp_path / "jobs.db"), workers_per_backend=2
    )
    with coordinator:
        yield coordinator


def skyline_set(result_payload: dict) -> frozenset:
    return frozenset(tuple(row) for row in result_payload["skyline"])


class TestMetadataRoutes:
    def test_healthz_reports_pool_and_fingerprint(self, coordinated):
        status, body = get_json(f"{coordinated.url}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["fingerprint"] == coordinated.fingerprint
        assert len(body["backends"]) == 2
        assert all(entry["ok"] for entry in body["backends"])

    def test_schema_route_is_tenant_bootstrap(self, coordinated, table):
        status, body = get_json(f"{coordinated.url}/api/schema")
        assert status == 200
        assert body["fingerprint"] == coordinated.fingerprint
        assert body["k"] == K
        assert body["backends"] == 2
        assert len(body["schema"]["attributes"]) >= table.schema.m

    def test_unknown_routes_404(self, coordinated):
        assert get_json(f"{coordinated.url}/nope")[0] == 404
        assert post_json(f"{coordinated.url}/api/nope", {})[0] == 404


class TestStartupErrors:
    @pytest.mark.parametrize("owned", [False, True],
                             ids=["caller-store", "owned-store"])
    def test_port_collision_releases_what_start_acquired(
        self, table, mirrors, tmp_path, owned
    ):
        from repro.service import ServiceStartupError

        (backend,) = mirrors(table, 1, k=K)
        path = str(tmp_path / "jobs.db")
        store = None if owned else CrawlStore(path)
        coordinator = CrawlCoordinator(
            [backend.url], path if owned else store, port=backend.port
        )
        with pytest.raises(ServiceStartupError, match="already in use"):
            coordinator.start()
        if owned:
            with pytest.raises(sqlite3.ProgrammingError):
                coordinator.store.jobs()
        else:
            assert store.observer is None
            assert not store.jobs()  # the caller's store stays open
            store.close()
        assert backend.stats().queries_total == 0

    def test_disagreeing_backends_release_the_port_and_the_store(
        self, table, mirrors, tmp_path
    ):
        from repro.coordinator import EndpointSetError

        (a,) = mirrors(table, 1, k=K)
        (b,) = mirrors(table, 1, k=K, name="another-db")
        coordinator = CrawlCoordinator(
            [a.url, b.url], str(tmp_path / "jobs.db")
        )
        with pytest.raises(EndpointSetError, match="disagree"):
            coordinator.start()
        with pytest.raises(sqlite3.ProgrammingError):
            coordinator.store.jobs()
        # The port was bound before the pool was verified; it is free now.
        assert coordinator.port != 0
        with socket.socket() as probe:
            probe.bind((coordinator.host, coordinator.port))


class TestJobLifecycle:
    def test_sharded_job_matches_serial_reference(
        self, coordinated, reference
    ):
        status, body = post_json(
            f"{coordinated.url}/api/jobs",
            {"tenant": "alice", "algorithm": "rq"},
        )
        assert status == 201, body
        assert body["status"] in ("queued", "running")
        job_id = body["job_id"]

        final = wait_for_job(coordinated.url, job_id)
        assert final["status"] == "finished", final.get("error")
        result = final["result"]
        assert result["complete"]
        # The acceptance gate: identical skyline, identical billed cost.
        assert skyline_set(result) == reference.skyline_values
        assert result["total_cost"] == reference.total_cost
        # The one concurrent strategy drained the pool; both mirrors billed.
        assert result["stats"]["strategy"] == "async"
        shares = [shard["issued"] for shard in result["shards"]]
        assert all(share > 0 for share in shares)
        assert sum(shares) == reference.total_cost
        # The durable checkpoint agrees with the final accounting.
        assert final["checkpoint"]["billed"] == reference.total_cost

        status, index = get_json(f"{coordinated.url}/api/jobs")
        assert status == 200
        entry = next(j for j in index["jobs"] if j["job_id"] == job_id)
        assert entry["tenant"] == "alice"
        assert entry["status"] == "finished"

    def test_second_tenant_bills_almost_nothing(
        self, coordinated, reference
    ):
        _, first = post_json(
            f"{coordinated.url}/api/jobs", {"tenant": "alice"}
        )
        first_final = wait_for_job(coordinated.url, first["job_id"])
        assert first_final["status"] == "finished"

        _, second = post_json(
            f"{coordinated.url}/api/jobs", {"tenant": "bob"}
        )
        second_final = wait_for_job(coordinated.url, second["job_id"])
        assert second_final["status"] == "finished"

        # Same fingerprint, same ledger: bob replays alice's paid-for
        # answers.  The bar is <= 5% of the first tenant's bill; in
        # practice it is zero.
        first_cost = first_final["result"]["total_cost"]
        second_cost = second_final["result"]["total_cost"]
        assert first_cost == reference.total_cost
        assert second_cost <= max(1, first_cost // 20)
        assert skyline_set(second_final["result"]) == reference.skyline_values

    def test_budget_capped_job_ends_partial(self, coordinated, reference):
        budget = max(2, reference.total_cost // 4)
        _, body = post_json(
            f"{coordinated.url}/api/jobs",
            {"tenant": "capped", "budget": budget},
        )
        final = wait_for_job(coordinated.url, body["job_id"])
        assert final["status"] == "partial"
        assert not final["result"]["complete"]
        assert final["result"]["total_cost"] <= budget
        assert skyline_set(final["result"]) <= reference.skyline_values


class TestConcurrentTenants:
    def test_overlapping_tenants_share_the_ledger(
        self, table, mirrors, tmp_path, reference
    ):
        # Latency-injected mirrors keep the first job in flight long
        # enough for a second tenant to submit mid-crawl.
        a, b = mirrors(
            table, 2, k=K,
            faults=FaultConfig(latency=(0.004, 0.008), seed=11),
        )
        with CrawlCoordinator(
            [a.url, b.url], str(tmp_path / "jobs.db"), workers_per_backend=2
        ) as coordinator:
            _, first = post_json(
                f"{coordinator.url}/api/jobs",
                {"tenant": "alice", "checkpoint_every": 1},
            )
            # Wait for a committed prefix before the second tenant joins:
            # those answers are durably in the ledger, so bob must get
            # them for free even while alice is still crawling.
            deadline = time.time() + 30
            while time.time() < deadline:
                _, view = get_json(
                    f"{coordinator.url}/api/jobs/{first['job_id']}"
                )
                if view.get("checkpoint", {}).get("billed", 0) >= 3:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("first tenant made no ledgered progress")

            _, second = post_json(
                f"{coordinator.url}/api/jobs",
                {"tenant": "bob", "checkpoint_every": 1},
            )
            first_final = wait_for_job(coordinator.url, first["job_id"])
            second_final = wait_for_job(coordinator.url, second["job_id"])

        assert first_final["status"] == "finished"
        assert second_final["status"] == "finished"
        assert skyline_set(first_final["result"]) == reference.skyline_values
        assert skyline_set(second_final["result"]) == reference.skyline_values
        first_cost = first_final["result"]["total_cost"]
        second_cost = second_final["result"]["total_cost"]
        # Determinism caps each tenant at the serial cost; the shared
        # ledger must shave at least the committed prefix off the second
        # tenant's bill (the overlap window -- queries in flight at both
        # tenants simultaneously -- is the only double billing possible:
        # both jobs share the daemon's one store, whose lookups also read
        # its write buffer, so neither tenant re-bills the other's
        # unflushed answers; tenants crawling one store file from two
        # processes would).
        assert first_cost <= reference.total_cost
        assert second_cost <= reference.total_cost - 3
        assert first_cost + second_cost < 2 * reference.total_cost


class TestCancellation:
    def test_cancel_running_job_keeps_session_resumable(
        self, table, mirrors, tmp_path
    ):
        a, b = mirrors(
            table, 2, k=K,
            faults=FaultConfig(latency=(0.01, 0.02), seed=5),
        )
        store_path = tmp_path / "jobs.db"
        with CrawlCoordinator(
            [a.url, b.url], str(store_path), workers_per_backend=2
        ) as coordinator:
            _, body = post_json(
                f"{coordinator.url}/api/jobs",
                {"tenant": "quitter", "checkpoint_every": 1},
            )
            job_id = body["job_id"]
            deadline = time.time() + 30
            while time.time() < deadline:
                _, view = get_json(f"{coordinator.url}/api/jobs/{job_id}")
                if view.get("checkpoint", {}).get("billed", 0) >= 2:
                    break
                time.sleep(0.01)
            status, cancelled = delete(f"{coordinator.url}/api/jobs/{job_id}")
            assert status == 200
            final = wait_for_job(coordinator.url, job_id)
            assert final["status"] == "cancelled"
            session_id = final["session_id"]
        with CrawlStore(str(store_path)) as store:
            session = store.session(session_id)
            assert session is not None
            # Cancelled, not failed: the paid-for prefix stays resumable.
            assert session.status == "running"
            assert session.billed >= 2

    def test_cancel_unknown_job_404(self, coordinated):
        assert delete(f"{coordinated.url}/api/jobs/nope")[0] == 404


class TestRejections:
    def test_unknown_spec_field_400(self, coordinated):
        status, body = post_json(
            f"{coordinated.url}/api/jobs", {"budgit": 10}
        )
        assert status == 400
        assert body["error"] == "bad_request"
        assert "budgit" in body["message"]

    def test_unknown_algorithm_400(self, coordinated):
        status, body = post_json(
            f"{coordinated.url}/api/jobs", {"algorithm": "quantum"}
        )
        assert status == 400
        assert body["error"] == "bad_request"

    def test_pinned_fingerprint_mismatch_409(self, coordinated):
        status, body = post_json(
            f"{coordinated.url}/api/jobs",
            {"fingerprint": "deadbeefdeadbeef"},
        )
        assert status == 409
        assert body["error"] == "fingerprint_mismatch"

    def test_matching_pinned_fingerprint_accepted(self, coordinated):
        status, body = post_json(
            f"{coordinated.url}/api/jobs",
            {"fingerprint": coordinated.fingerprint, "budget": 1},
        )
        assert status == 201
        wait_for_job(coordinated.url, body["job_id"])

    def test_invalid_json_body_400(self, coordinated):
        import urllib.request

        request = urllib.request.Request(
            f"{coordinated.url}/api/jobs",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value as error:
            assert error.code == 400

    def test_malformed_content_length_400_before_the_body(
        self, table, mirrors, tmp_path
    ):
        a, b = mirrors(table, 2, k=K)
        with CrawlCoordinator(
            [a.url, b.url], str(tmp_path / "jobs.db")
        ) as coordinator:
            for declared in ("abc", "-1"):
                status, body = post_raw_content_length(
                    f"{coordinator.url}/api/jobs", declared, b'{"budget": 5}'
                )
                assert status == 400, declared
                assert body["error"] == "bad_request"
                assert "Content-Length" in body["message"]
            assert get_json(f"{coordinator.url}/api/jobs")[1]["jobs"] == []
        assert a.stats().queries_total == b.stats().queries_total == 0

    def test_job_status_unknown_404(self, coordinated):
        assert get_json(f"{coordinated.url}/api/jobs/missing")[0] == 404
