"""Performance-trajectory records: BENCH_core.json and BENCH_service.json.

Unlike the figure benchmarks (which assert query-count *shapes*), these
tests measure wall-clock throughput of the two access paths -- the
in-process simulator and the networked service -- and write the numbers to
``BENCH_core.json`` / ``BENCH_service.json`` via :mod:`_record`, so the
perf trajectory is tracked across PRs.  Run explicitly (benchmarks/ is not
in the default testpaths)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_records.py -q
"""

from __future__ import annotations

import time

from _record import record

from repro import CrawlStore, Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen import independent
from repro.service import HiddenDBServer, RemoteTopKInterface

N = 5_000
K = 10
SEED = 3


def _table():
    return independent(N, 4, domain=50, seed=SEED)


def test_record_core_throughput():
    interface = TopKInterface(_table(), k=K)
    start = time.perf_counter()
    result = Discoverer().run(interface)
    wall = time.perf_counter() - start
    assert result.complete
    record(
        "core",
        f"rq_uniform_n{N}_k{K}",
        wall_seconds=wall,
        queries=result.total_cost,
        queries_per_second=result.total_cost / wall,
        skyline=result.skyline_size,
        engine_wall_time_s=result.stats.wall_time_s,
        engine_queries_per_sec=result.stats.queries_per_sec,
    )


def test_record_service_throughput_and_cache():
    table = _table()
    reference = Discoverer().run(TopKInterface(table, k=K))
    # The warm re-crawl replays the cold crawl's answers from a memory
    # ledger, the one way to reuse a paid-for answer across runs.
    with HiddenDBServer(table, k=K) as server, \
            RemoteTopKInterface(server.url) as remote, \
            CrawlStore.memory() as store:
        discoverer = Discoverer(DiscoveryConfig(store=store))

        start = time.perf_counter()
        cold = discoverer.run(remote)
        cold_wall = time.perf_counter() - start
        cold_billed = remote.queries_issued
        assert cold.skyline == reference.skyline

        start = time.perf_counter()
        warm = discoverer.run(remote)
        warm_wall = time.perf_counter() - start
        warm_billed = remote.queries_issued - cold_billed
        assert warm.skyline == reference.skyline

        record(
            "service",
            f"rq_uniform_n{N}_k{K}_remote",
            wall_seconds=cold_wall,
            queries=cold_billed,
            queries_per_second=cold_billed / cold_wall,
            warm_wall_seconds=warm_wall,
            warm_billable_queries=warm_billed,
            ledger_hits=warm.stats.ledger_hits,
            ledger_hit_rate=warm.stats.ledger_rate,
            retries=remote.retries,
            engine_wall_time_s=cold.stats.wall_time_s,
            engine_queries_per_sec=cold.stats.queries_per_sec,
        )
        assert warm_billed < cold_billed
