"""Sharded-coordinator trajectory records: BENCH_coordinator.json.

Measures what a second mirror of the hidden database buys: the same
discovery crawl, over latency-injected remote backends, drained

* through ONE backend with a ``WORKERS``-wide in-flight window and
  per-query dispatch (the single-deployment baseline), vs
* through TWO mirrored backends behind an ``EndpointSet`` with the same
  ``WORKERS`` per backend (so the aggregate window doubles, split by
  canonical-key shard with work stealing).

Both runs use the one concurrent strategy (``strategy="async"`` over a
blocking endpoint, i.e. its thread pool), configured the way the
coordinator daemon configures a job: ``workers`` is the per-backend width
times the number of backends.

Because the paper's cost model bills a query identically no matter which
mirror answers it, the two runs must issue the same query set -- the
benchmark asserts identical billed cost *and* identical skyline -- while
the sharded run's wall time drops with the extra mirror's latency
budget.  The acceptance bar: >= 1.5x speedup at identical cost.  Both
variants are timed ``TRIALS`` times and compared min-to-min (client and
servers share one interpreter here, so a loaded runner can stall either
side).

The crawl-everything BASELINE algorithm is used because its frontier is
wide enough to fill both windows; RQ-DB-SKY's frontier is
dependency-limited (each answer spawns the next queries), so its
wall-clock barely moves with extra mirrors regardless of substrate.

Run explicitly (benchmarks/ is not in the default testpaths)::

    PYTHONPATH=src python -m pytest benchmarks/test_coordinator_records.py -q
"""

from __future__ import annotations

import time

from _record import record

from repro import Discoverer, DiscoveryConfig, TopKInterface
from repro.coordinator import EndpointSet
from repro.datagen import diamonds_table
from repro.service import FaultConfig, HiddenDBServer, RemoteTopKInterface

N = 2_000
K = 10
SEED = 2
#: In-flight window per backend -- the single-backend baseline gets the
#: same window over its one backend, the sharded run gets it per mirror.
WORKERS = 4
#: Timed runs per variant (min is compared -- see the module docstring).
TRIALS = 3
#: Injected per-query latency (seconds): the wide-area conditions a
#: second mirror's latency budget actually helps with.
LATENCY = (0.015, 0.025)
#: Acceptance bar for the 2-backend speedup at identical billed cost.
MIN_SPEEDUP = 1.5


def test_record_two_backends_beat_one_at_identical_cost():
    table = diamonds_table(N, seed=SEED)
    reference = Discoverer().run(TopKInterface(table, k=K), "baseline")

    faults = FaultConfig(latency=LATENCY, seed=3)
    servers = [
        HiddenDBServer(table, k=K, name="bench-mirror", faults=faults).start()
        for _ in range(2)
    ]
    try:
        single_walls = []
        for _ in range(TRIALS):
            client = RemoteTopKInterface(servers[0].url)
            config = DiscoveryConfig(
                strategy="async", workers=WORKERS, batch_size=1
            )
            start = time.perf_counter()
            single = Discoverer(config).run(client, "baseline")
            single_walls.append(time.perf_counter() - start)
            client.close()
            assert single.skyline_values == reference.skyline_values
            assert single.total_cost == reference.total_cost

        sharded_walls = []
        shards = None
        for _ in range(TRIALS):
            pool = EndpointSet([server.url for server in servers])
            config = DiscoveryConfig(
                strategy="async", workers=WORKERS * pool.size
            )
            start = time.perf_counter()
            sharded = Discoverer(config).run(pool, "baseline")
            sharded_walls.append(time.perf_counter() - start)
            shards = [entry["issued"] for entry in pool.stats()]
            pool.close()
            assert sharded.skyline_values == reference.skyline_values
            assert sharded.total_cost == reference.total_cost
    finally:
        for server in servers:
            server.stop()

    wall_single = min(single_walls)
    wall_sharded = min(sharded_walls)
    speedup = wall_single / wall_sharded
    record(
        "coordinator",
        "baseline_diamonds_two_backends_vs_one",
        n=N,
        k=K,
        workers_per_backend=WORKERS,
        queries=reference.total_cost,
        skyline_size=len(reference.skyline_values),
        shard_issued=shards,
        wall_pipelined_1_backend=wall_single,
        wall_sharded_2_backends=wall_sharded,
        speedup=speedup,
        trials=TRIALS,
    )
    assert all(share > 0 for share in shards)
    assert sum(shards) == reference.total_cost
    assert speedup >= MIN_SPEEDUP, (
        f"2-backend sharded crawl only {speedup:.2f}x faster than the "
        f"1-backend baseline (walls: {sharded_walls} vs "
        f"{single_walls})"
    )
