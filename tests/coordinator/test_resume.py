"""Coordinator crash recovery: SIGKILL ``repro coordinate``, restart with
``--resume``, and the catalog job finishes at serial parity.

This drives the real CLI in a subprocess (parsing the ``port       : N``
line the daemon prints for exactly this purpose), kills it dead -- no
atexit, no cleanup -- mid-crawl, and restarts it against the same store.
The restarted coordinator must replay every catalog job still
queued/running under its original session: the paid-for ledger prefix
comes back free, in-flight queries the dead incarnation already billed
are replayed free by the servers under the session's deterministic
request ids, and the final skyline and billed cost equal the serial
single-process reference.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import CrawlStore, Discoverer, TopKInterface
from repro.datagen import diamonds_table
from repro.service import FaultConfig, HiddenDBServer

from .conftest import get_json, post_json, wait_for_job

K = 5
N = 1000


@contextmanager
def _coordinator(store_path, backend_urls, *, resume=False):
    """Run ``repro coordinate`` in a subprocess; yields its base URL.

    Leaving the block kills the daemon with SIGKILL (no atexit, no
    cleanup), reaps it and closes its stdout pipe.
    """
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    argv = [
        sys.executable, "-m", "repro.cli", "coordinate",
        "--store", str(store_path), "--port", "0", "--workers", "2",
    ]
    for url in backend_urls:
        argv += ["--backend", url]
    if resume:
        argv.append("--resume")
    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    ) as proc:
        try:
            port = None
            deadline = time.time() + 30
            while time.time() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("port"):
                    port = int(line.split(":", 1)[1].strip())
                    break
            if port is None:
                pytest.fail("coordinator subprocess never reported its port")
            yield f"http://127.0.0.1:{port}"
        finally:
            proc.kill()


class TestKillAndResume:
    def test_sigkill_mid_job_then_resume_reaches_parity(self, tmp_path):
        table = diamonds_table(N, seed=4)
        reference = Discoverer().run(TopKInterface(table, k=K), "rq")
        store_path = tmp_path / "jobs.db"
        faults = FaultConfig(latency=(0.01, 0.02), seed=9)
        servers = [
            HiddenDBServer(
                table, k=K, name="mirrored-db", faults=faults
            ).start()
            for _ in range(2)
        ]
        urls = [server.url for server in servers]
        try:
            with _coordinator(store_path, urls) as base:
                status, body = post_json(
                    f"{base}/api/jobs",
                    {"tenant": "survivor", "checkpoint_every": 4},
                )
                assert status == 201, body
                job_id = body["job_id"]

                # Wait until the crawl has durably billed a real prefix
                # (but is nowhere near done), then kill -9 the daemon.
                deadline = time.time() + 60
                with CrawlStore(str(store_path)) as store:
                    while time.time() < deadline:
                        if store.ledger_size() >= 10:
                            break
                        time.sleep(0.02)
                    else:
                        pytest.fail("coordinator made no ledger progress")

            with CrawlStore(str(store_path)) as store:
                prefix = store.ledger_size()
                record = store.job(job_id)
                assert record is not None
                # The kill left the catalog row mid-flight -- exactly
                # what --resume replays.
                assert record.status in ("queued", "running")
                assert 0 < prefix < reference.total_cost

            with _coordinator(store_path, urls, resume=True) as base:
                final = wait_for_job(base, job_id, timeout=120)
                assert final["status"] == "finished", final.get("error")
                result = final["result"]
                skyline = frozenset(tuple(row) for row in result["skyline"])
                assert skyline == reference.skyline_values
                # No double billing anywhere: the session's billed total
                # equals the uninterrupted serial cost, and so does the
                # actual server-side bill across both incarnations
                # (ledgered answers replayed from the store; the dead
                # run's in-flight answers replayed free by the servers
                # under the session's deterministic request ids).
                assert result["total_cost"] == reference.total_cost
                billed_on_servers = sum(
                    server.stats().queries_total for server in servers
                )
                assert billed_on_servers <= reference.total_cost

                # The resumed catalog is visible over the wire too.
                _, index = get_json(f"{base}/api/jobs")
                entry = next(
                    j for j in index["jobs"] if j["job_id"] == job_id
                )
                assert entry["status"] == "finished"
        finally:
            for server in servers:
                server.stop()
