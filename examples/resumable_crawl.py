#!/usr/bin/env python
"""Kill -9 a crawl mid-run, resume it, and never pay for an answer twice.

The paper's cost model makes every answered top-k query precious: a real
hidden-web crawl runs for hours against per-key budgets, and a crash used
to throw away every answer already paid for.  This example stands a flaky
diamond service up, starts a concurrent crawl against it *in a separate
process* with a durable crawl store mounted, SIGKILLs that process the
moment the ledger shows real progress, and then resumes from the store:

* the resumed run replays the already-paid-for prefix from the query
  ledger (``ledger_hits``, billed nowhere),
* queries the dead crawl had in flight are replayed free by the server
  under the session's deterministic ``X-Request-Id`` nonce,
* the total server-side bill across both incarnations stays at (or below)
  what one uninterrupted crawl would have paid,
* and a final warm re-run costs exactly zero queries.

Run with::

    python examples/resumable_crawl.py

The same flow across real terminals::

    repro serve --dataset diamonds --n 4000 --k 10 --latency-ms 2 4
    repro crawl --url http://127.0.0.1:8080 --store crawl.db --workers 4
    # ... kill -9 the crawl, then:
    repro crawl --url http://127.0.0.1:8080 --store crawl.db --resume
    repro store ls --store crawl.db
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro import CrawlStore, Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen import diamonds_table
from repro.service import FaultConfig, HiddenDBServer, RemoteTopKInterface


def main() -> None:
    table = diamonds_table(4000, seed=7)
    reference = Discoverer().run(TopKInterface(table, k=10), "baseline")
    print(f"uninterrupted cost    : {reference.total_cost} queries for "
          f"{reference.skyline_size} skyline tuples")

    workdir = Path(tempfile.mkdtemp(prefix="repro-crawl-"))
    db = workdir / "crawl.db"
    faults = FaultConfig(latency=(0.002, 0.005), seed=11)
    with HiddenDBServer(table, k=10, name="diamonds-n4000",
                        faults=faults) as server:
        print(f"serving 'diamonds' at {server.url} (2-5ms latency)")

        # Crawl in a child process so the kill is a real process death.
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "crawl",
             "--url", server.url, "--store", str(db),
             "--algorithm", "baseline", "--workers", "4"],
            env=env,
        )
        store = CrawlStore(db)
        deadline = time.time() + 60
        while store.ledger_size() < 80:
            if child.poll() is not None:
                raise SystemExit(
                    f"crawl subprocess exited early (code {child.returncode})"
                )
            if time.time() > deadline:
                child.kill()
                raise SystemExit("crawl subprocess made no ledger progress")
            time.sleep(0.05)
        os.kill(child.pid, signal.SIGKILL)
        child.wait()
        prefix = store.ledger_size()
        print(f"\nSIGKILLed the crawl with {prefix} answers ledgered "
              f"(session {store.sessions()[0].session_id} left 'running')")

        # Resume: same store, same endpoint, same algorithm.
        resumed = Discoverer(
            DiscoveryConfig(store=store, resume=True, workers=4)
        ).run(RemoteTopKInterface(server.url), "baseline")
        assert resumed.skyline_values == reference.skyline_values
        print(f"resumed crawl         : complete={resumed.complete}, "
              f"{resumed.stats.ledger_hits} answers replayed free, "
              f"{resumed.stats.issued} newly billed, "
              f"total cost {resumed.total_cost}")
        billed = server.stats().queries_total
        print(f"server-side bill      : {billed} across both incarnations "
              f"(uninterrupted would pay {reference.total_cost})")
        assert billed <= reference.total_cost

        # Warm re-run over the unchanged endpoint: the ledger owns it all.
        warm = Discoverer(DiscoveryConfig(store=store, workers=4)).run(
            RemoteTopKInterface(server.url), "baseline"
        )
        assert warm.total_cost == 0
        assert server.stats().queries_total == billed
        print(f"warm re-run           : 0 billed queries "
              f"({warm.stats.ledger_hits} ledger hits), identical skyline")


if __name__ == "__main__":
    main()
