"""Crash/resume parity: the durable crawl acceptance suite.

Every registered algorithm, in-process and over the wire, serial and
concurrent, is killed after N answers and resumed from the store.  The
resumed run must reproduce the uninterrupted run's skyline at no more
than its billed cost (exactly its cost in the serial case), and a warm
re-run over an unchanged endpoint must bill zero queries.
"""

import os
import signal
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro import CrawlStore, Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen import diamonds_table
from repro.service import (
    AsyncRemoteTopKInterface,
    FaultConfig,
    HiddenDBServer,
    RemoteTopKInterface,
)

from ..conftest import parity_run_params

K = 5

#: Materialised once: the same parameter list feeds both the in-process
#: and the remote variant of the parity class below.
ALGORITHM_PARAMS = list(parity_run_params())

#: Execution shapes the crash/resume contract is pinned under: the serial
#: reference and the concurrent strategy.
SERIAL = dict(strategy="serial", workers=1)
ASYNC = dict(strategy="async", workers=4)
EXECUTION_PARAMS = [
    pytest.param(SERIAL, id="serial"),
    pytest.param(ASYNC, id="async"),
]
#: Over the wire the concurrent strategy drives either client: the
#: blocking one from its thread pool, the asyncio one on its own loop.
REMOTE_PARAMS = [
    pytest.param(SERIAL, RemoteTopKInterface, id="serial"),
    pytest.param(ASYNC, RemoteTopKInterface, id="async-blocking"),
    pytest.param(ASYNC, AsyncRemoteTopKInterface, id="async-asyncio"),
]


class SimulatedCrash(Exception):
    """Stand-in for a mid-run process death (raised from on_query)."""


def _crash_config(store, execution: dict, crash_after: int) -> DiscoveryConfig:
    state = {"seen": 0}

    def bomb(_result) -> None:
        state["seen"] += 1
        if state["seen"] >= crash_after:
            raise SimulatedCrash

    return DiscoveryConfig(store=store, on_query=bomb, **execution)


def _assert_crash_resume_parity(make_interface, algorithm, execution):
    """The shared body: uninterrupted vs crash+resume vs warm re-run."""
    reference = Discoverer(
        DiscoveryConfig(store=CrawlStore.memory(), **execution)
    ).run(make_interface(), algorithm)

    store = CrawlStore.memory()
    crash_after = max(1, reference.total_cost // 2)
    with pytest.raises(SimulatedCrash):
        Discoverer(_crash_config(store, execution, crash_after)).run(
            make_interface(), algorithm
        )
    crashed = store.sessions()[0]
    assert crashed.status == "running"
    assert 0 < crashed.billed

    resumed = Discoverer(
        DiscoveryConfig(store=store, resume=True, **execution)
    ).run(make_interface(), algorithm)
    assert resumed.skyline_values == reference.skyline_values
    assert resumed.complete == reference.complete
    assert resumed.stats.ledger_hits > 0  # the paid-for prefix replayed free
    # The crawl never pays more than an uninterrupted run; serially the
    # replay is exact, so the cumulative billed cost is identical.
    assert resumed.total_cost <= reference.total_cost
    if execution.get("workers", 1) == 1:
        assert resumed.total_cost == reference.total_cost
    assert store.sessions()[0].status == "finished"

    warm = Discoverer(DiscoveryConfig(store=store, **execution)).run(
        make_interface(), algorithm
    )
    assert warm.total_cost == 0
    assert warm.stats.issued == 0
    assert warm.skyline_values == reference.skyline_values


@pytest.mark.parametrize("algorithm,table", ALGORITHM_PARAMS)
class TestCrashResumeParity:
    @pytest.mark.parametrize("execution", EXECUTION_PARAMS)
    def test_in_process(self, algorithm, table, execution):
        _assert_crash_resume_parity(
            lambda: TopKInterface(table, k=K, name=f"parity-{algorithm}"),
            algorithm,
            execution,
        )

    @pytest.mark.parametrize("execution,client", REMOTE_PARAMS)
    def test_remote(self, algorithm, table, execution, client):
        with HiddenDBServer(
            table, k=K, name=f"parity-{algorithm}"
        ) as server, ExitStack() as clients:
            _assert_crash_resume_parity(
                lambda: clients.enter_context(client(server.url)),
                algorithm,
                execution,
            )


class TestSkybandResume:
    def test_skyband_warm_rerun_is_free(self):
        table = diamonds_table(300, seed=4)
        store = CrawlStore.memory()
        cold = Discoverer(DiscoveryConfig(store=store)).skyband(
            TopKInterface(table, k=K, name="d300"), 2
        )
        warm = Discoverer(DiscoveryConfig(store=store)).skyband(
            TopKInterface(table, k=K, name="d300"), 2
        )
        assert warm.skyband_values == cold.skyband_values
        assert warm.total_cost == 0
        assert warm.stats.ledger_hits > 0
        catalog = store.catalog()
        assert {entry.algorithm for entry in catalog} == {"rq:skyband"}
        assert catalog[0].result["band"] == 2


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(
            lambda d, iface: d.run(iface, "baseline").skyline, id="skyline"
        ),
        pytest.param(
            lambda d, iface: d.skyband(iface, 2).skyband, id="skyband"
        ),
    ],
)
def test_catalog_skyline_size_counts_distinct_vectors(run):
    """Two rows tying one skyline vector file as one vector, the count
    checkpoints and ``DiscoveryResult.skyline_size`` report."""
    from ..conftest import make_table

    table = make_table([(1, 2), (1, 2), (2, 1), (3, 3)], domain=5)
    store = CrawlStore.memory()
    rows = run(
        Discoverer(DiscoveryConfig(store=store)),
        TopKInterface(table, k=4, name="ties"),
    )
    assert len(rows) == 3
    filed = store.catalog()[0]
    assert filed.result["skyline_size"] == 2
    assert filed.checkpoint["skyline_size"] == 2


class TestLedgerBilling:
    def test_in_window_duplicates_bill_once(self):
        """Dedup off + ledger mounted: an identical query dispatched while
        its twin is still in flight must resolve from the ledger at merge
        time -- concurrently exactly like serially (the shared drain core
        owns this rule for every strategy)."""
        from repro.core.base import DiscoverySession
        from repro.core.engine import AsyncStrategy, SerialStrategy
        from repro.hiddendb import Query

        table = diamonds_table(200, seed=1)
        query = Query.select_all().and_upper(0, 3)
        for strategy in (
            SerialStrategy(),
            AsyncStrategy(workers=4),
        ):
            store = CrawlStore.memory()
            session = DiscoverySession(
                TopKInterface(table, k=K, name="dup"),
                strategy=strategy,
                dedup=False,
            )
            session.attach_store(store, algorithm="dup")
            frontier = session.frontier()
            frontier.add(query)
            frontier.add(query)
            frontier.drain()
            stats = session.engine_stats
            assert stats.issued == 1, strategy.name
            assert stats.ledger_hits == 1, strategy.name
            assert store.sessions()[0].billed == 1, strategy.name

    def test_skyline_tracker_stays_distinct_under_ties(self):
        """Rows tying a skyline vector are all kept by the maintained
        skyline, but the checkpoint lists each vector once."""
        from repro.core.base import DiscoverySession
        from repro.hiddendb import Query, QueryResult, Row

        from ..conftest import make_table

        table = make_table([(1, 2), (1, 2), (1, 2), (2, 1)], domain=5)
        store = CrawlStore.memory()
        session = DiscoverySession(TopKInterface(table, k=4, name="ties"))
        session.attach_store(store, algorithm="ties", checkpoint_every=1)
        answers = [(Row(rid, (1, 2)),) for rid in range(8)]
        answers.append((Row(99, (2, 1)),))
        for sequence, rows in enumerate(answers, start=1):
            session.record(
                QueryResult(Query.select_all(), rows, False, sequence)
            )
        checkpoint = store.sessions()[0].checkpoint
        assert checkpoint["skyline"] == [[1, 2], [2, 1]]
        assert checkpoint["skyline_size"] == 2
        assert len(session.confirmed_skyline()) == 9

    def test_different_rankers_never_share_a_ledger(self):
        """The endpoint fingerprint pins the ranking function: same table,
        different ranker, same store -> refusal, not a stale replay."""
        from repro import LinearRanker, StoreMismatchError

        table = diamonds_table(100, seed=1)
        store = CrawlStore.memory()
        Discoverer(DiscoveryConfig(store=store)).run(
            TopKInterface(table, k=K, name="d100")
        )
        price = LinearRanker.single_attribute(0, table.schema.m)
        with pytest.raises(StoreMismatchError):
            Discoverer(DiscoveryConfig(store=store)).run(
                TopKInterface(table, ranker=price, k=K, name="d100")
            )

    def test_replay_nonce_cleared_after_durable_run(self):
        """A finished durable run must not leave its deterministic request
        ids on the shared client: later plain runs have to bill repeats."""
        table = diamonds_table(100, seed=2)
        with HiddenDBServer(table, k=K, name="d100") as server, \
                RemoteTopKInterface(server.url, api_key="shared") as client:
            Discoverer(DiscoveryConfig(store=CrawlStore.memory())).run(client)
            assert client._replay_nonce is None
            # A repeated query on the plain client is billed again (random
            # ids), keeping parity/benchmark accounting honest.
            from repro.hiddendb import Query

            before = server.stats().usage("shared").issued
            client.query(Query.select_all())
            client.query(Query.select_all())
            assert server.stats().usage("shared").issued == before + 2

    def test_replay_nonce_cleared_when_durable_run_crashes(self):
        """The nonce is dropped even when the run dies with an arbitrary
        exception (not just budget exhaustion)."""
        table = diamonds_table(100, seed=2)
        with HiddenDBServer(table, k=K, name="d100") as server, \
                RemoteTopKInterface(server.url) as client:
            with pytest.raises(SimulatedCrash):
                Discoverer(
                    _crash_config(CrawlStore.memory(), {"workers": 1}, 2)
                ).run(client)
            assert client._replay_nonce is None


class TestClientLedger:
    """Durable crawls through the remote client: replay ids, not a mount."""

    def test_replay_nonce_makes_reissues_free(self):
        from repro.hiddendb import Query

        table = diamonds_table(100, seed=2)
        with HiddenDBServer(table, k=K) as server, RemoteTopKInterface(
            server.url, api_key="nonced", replay_nonce="resume-nonce"
        ) as client:
            first = client.query(Query.select_all())
            again = client.query(Query.select_all())
            assert again.rows == first.rows
            # Same nonce + same canonical key -> same X-Request-Id: the
            # server replays the billed answer instead of charging twice.
            assert server.stats().usage("nonced").issued == 1


class TestSigkillAcceptance:
    """Acceptance: SIGKILL a concurrent remote crawl, resume, pay <= once."""

    def test_sigkill_mid_crawl_then_resume(self, tmp_path):
        table = diamonds_table(1200, seed=2)
        reference = Discoverer().run(TopKInterface(table, k=10), "baseline")

        db = tmp_path / "crawl.db"
        faults = FaultConfig(latency=(0.002, 0.004), seed=7)
        with HiddenDBServer(
            table, k=10, name="diamonds-sigkill", faults=faults
        ) as server:
            repo_root = Path(__file__).resolve().parents[2]
            env = dict(os.environ)
            env["PYTHONPATH"] = (
                str(repo_root / "src")
                + os.pathsep
                + env.get("PYTHONPATH", "")
            ).rstrip(os.pathsep)
            child = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "crawl",
                    "--url", server.url, "--store", str(db),
                    "--algorithm", "baseline",
                    "--workers", "4", "--batch-size", "8",
                    "--checkpoint-every", "16",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                # Wait for real progress (ledgered answers), then kill -9.
                deadline = time.time() + 60
                store = CrawlStore(db)
                while time.time() < deadline:
                    if store.ledger_size() >= 40:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("crawl subprocess made no ledger progress")
                os.kill(child.pid, signal.SIGKILL)
            finally:
                child.wait(timeout=30)
            store.close()

            store = CrawlStore(db)
            prefix = store.ledger_size()
            assert 0 < prefix < reference.total_cost
            assert store.sessions()[0].status == "running"

            with RemoteTopKInterface(server.url) as client:
                resumed = Discoverer(
                    DiscoveryConfig(
                        store=store, resume=True, workers=4, batch_size=8
                    )
                ).run(client, "baseline")

            assert resumed.complete
            assert resumed.skyline_values == reference.skyline_values
            assert resumed.stats.ledger_hits >= prefix
            # Zero double billing: everything the dead crawl paid for was
            # either ledgered (replayed from the store) or replayed free
            # by the server under the session's deterministic request ids,
            # so the total server-side bill across both incarnations never
            # exceeds the uninterrupted cost.
            assert server.stats().queries_total <= reference.total_cost
            assert resumed.total_cost <= reference.total_cost

            # Warm re-run over the unchanged endpoint: zero new billing.
            billed_before = server.stats().queries_total
            with RemoteTopKInterface(server.url) as client:
                warm = Discoverer(
                    DiscoveryConfig(store=store, workers=4)
                ).run(client, "baseline")
            assert warm.total_cost == 0
            assert warm.skyline_values == reference.skyline_values
            assert server.stats().queries_total == billed_before
