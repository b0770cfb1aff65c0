#!/usr/bin/env python
"""Discovery over the wire: serve a hidden database, crawl it remotely.

Stands a diamond catalogue up as a networked top-k search service --
complete with a per-API-key query budget and injected 429/503 faults, the
conditions a real scraper faces -- then runs the paper's discovery
algorithms against it through :class:`repro.service.RemoteTopKInterface`.
The client retries injected faults with exponential backoff.  The crawl
ledgers every answer it pays for in a crawl store, so a second crawl
through the same store is free.  Run with::

    python examples/remote_discovery.py

The same setup works across real terminals::

    repro serve --dataset diamonds --n 5000 --k 10 --fault-rate 0.15
    repro crawl --url http://127.0.0.1:8080 --store crawl.db
"""

from __future__ import annotations

from repro import CrawlStore, Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen import diamonds_table
from repro.service import FaultConfig, HiddenDBServer, RemoteTopKInterface


def main() -> None:
    table = diamonds_table(5000, seed=7)

    # One in-process run as the reference the remote crawls must match.
    reference = Discoverer().run(TopKInterface(table, k=10))
    print(f"reference (in-process): {reference.skyline_size} skyline tuples "
          f"in {reference.total_cost} queries")

    faults = FaultConfig(error_rate=0.15, error_codes=(429, 503), seed=11)
    with HiddenDBServer(table, k=10, key_budget=10_000, faults=faults,
                        name="diamonds") as server, \
            RemoteTopKInterface(server.url, api_key="crawler-1") as crawler, \
            CrawlStore.memory() as store:
        print(f"\nserving 'diamonds' at {server.url} "
              f"(budget 10000/key, 15% injected faults)")
        discoverer = Discoverer(DiscoveryConfig(store=store))

        # Crawl 1: flaky network -- retries keep it converging, and every
        # billed answer lands in the store's ledger.
        result = discoverer.run(crawler)
        assert result.skyline_values == reference.skyline_values
        print(f"remote crawl          : {result.skyline_size} skyline tuples "
              f"in {result.total_cost} billable queries "
              f"({crawler.retries} retries absorbed)")

        # Crawl 2: same store, warm ledger -- every query it repeats is
        # answered from the ledger and never reaches the server's billing
        # counter.
        before = crawler.queries_issued
        again = discoverer.run(crawler)
        assert again.skyline_values == reference.skyline_values
        assert crawler.queries_issued == before
        print(f"warm-ledger recrawl   : {again.skyline_size} skyline tuples, "
              f"{crawler.queries_issued - before} billable queries "
              f"({again.stats.ledger_hits} ledger hits)")

        usage = server.stats().usage("crawler-1")
        print(f"server-side billing   : {usage.issued} queries charged to "
              f"'crawler-1' ({usage.remaining} of budget left)")


if __name__ == "__main__":
    main()
