"""Async data-plane trajectory records: BENCH_async.json.

Measures what the asyncio execution substrate buys over the thread-pool
one at high worker counts and writes the numbers via :mod:`_record`:

* ``baseline_diamonds_async_vs_pipelined`` -- wall time of a wide-window
  remote crawl (per-request dispatch, injected wide-area latency) under
  the one concurrent strategy on each of its transports: the blocking
  :class:`~repro.service.RemoteTopKInterface` called from the strategy's
  thread pool (one OS thread + one ``http.client`` connection per
  worker) vs the non-blocking
  :class:`~repro.service.aclient.AsyncRemoteTopKInterface` awaited on its
  own event loop (pooled connections, minimal HTTP parsing).  The acceptance bar:
  at ``WORKERS`` (>= 16) in-flight queries the async plane must beat the
  thread pool's wall time, at identical skyline and billed cost.  Both
  strategies are timed ``TRIALS`` times and compared min-to-min, since
  client and server share one interpreter (and one GIL) here and a
  loaded runner can stall either side.
* ``baseline_diamonds_async_batched`` -- the same crawl with ``/api/batch``
  packing enabled on both planes (recorded for the trajectory, not
  gated: batching amortises exactly the per-request overhead the async
  plane removes, so the two converge).

Run explicitly (benchmarks/ is not in the default testpaths)::

    PYTHONPATH=src python -m pytest benchmarks/test_async_records.py -q
"""

from __future__ import annotations

import time

from _record import record

from repro import Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen import diamonds_table
from repro.service import (
    AsyncRemoteTopKInterface,
    FaultConfig,
    HiddenDBServer,
    RemoteTopKInterface,
)

N = 4_000
K = 10
SEED = 1
#: Dispatch-window width.  The acceptance criterion asks for >= 16; at 64
#: the thread pool pays for 64 OS threads (plus 64 server-side handler
#: threads) while the async plane pays for 64 in-flight coroutines, which
#: is where the substrates genuinely diverge.
WORKERS = 64
#: Timed runs per strategy (min is compared -- see the module docstring).
TRIALS = 3
#: Injected per-query latency (seconds): wide-area conditions.  Kept
#: moderate so the comparison is dominated by the execution substrate,
#: not by sleeping -- both strategies hide the same sleep with the same
#: window width.
LATENCY = (0.002, 0.004)


def _timed_run(make_interface, config, reference):
    walls = []
    result = None
    for trial in range(TRIALS):
        interface = make_interface(trial)
        start = time.perf_counter()
        result = Discoverer(config).run(interface, "baseline")
        walls.append(time.perf_counter() - start)
        close = getattr(interface, "close", None)
        if close is not None:
            close()
        assert result.skyline_values == reference.skyline_values
        assert result.total_cost == reference.total_cost
    return min(walls), walls, result


def test_record_async_beats_thread_pool_at_wide_windows():
    table = diamonds_table(N, seed=SEED)
    reference = Discoverer().run(TopKInterface(table, k=K), "baseline")

    with HiddenDBServer(
        table, k=K, faults=FaultConfig(latency=LATENCY, seed=5)
    ) as server:
        piped_wall, piped_walls, piped = _timed_run(
            lambda t: RemoteTopKInterface(server.url, api_key=f"piped-{t}"),
            DiscoveryConfig(
                strategy="async", workers=WORKERS, batch_size=1
            ),
            reference,
        )
        async_wall, async_walls, asy = _timed_run(
            lambda t: AsyncRemoteTopKInterface(
                server.url, api_key=f"async-{t}"
            ),
            DiscoveryConfig(strategy="async", workers=WORKERS, batch_size=1),
            reference,
        )

    # Acceptance: same skyline, same billed cost, async strictly faster.
    speedup = piped_wall / async_wall
    assert speedup > 1.0, (
        f"async plane not faster: pipelined {piped_wall:.3f}s vs "
        f"async {async_wall:.3f}s at workers={WORKERS}"
    )

    record(
        "async",
        f"baseline_diamonds_n{N}_k{K}_async_vs_pipelined",
        pipelined_wall_seconds=piped_wall,
        async_wall_seconds=async_wall,
        speedup=speedup,
        pipelined_walls=[round(w, 6) for w in piped_walls],
        async_walls=[round(w, 6) for w in async_walls],
        queries=asy.total_cost,
        skyline=asy.skyline_size,
        workers=WORKERS,
        trials=TRIALS,
        max_in_flight=asy.stats.max_in_flight,
        engine_wall_time_s=asy.stats.wall_time_s,
        engine_queries_per_sec=asy.stats.queries_per_sec,
        injected_latency_ms=[LATENCY[0] * 1000, LATENCY[1] * 1000],
    )


def test_record_async_batched_crawl():
    table = diamonds_table(N, seed=SEED)
    reference = Discoverer().run(TopKInterface(table, k=K), "baseline")

    with HiddenDBServer(
        table, k=K, faults=FaultConfig(latency=LATENCY, seed=5)
    ) as server:
        client = AsyncRemoteTopKInterface(server.url, api_key="batched")
        start = time.perf_counter()
        result = Discoverer(
            DiscoveryConfig(strategy="async", workers=8, batch_size=16)
        ).run(client, "baseline")
        wall = time.perf_counter() - start
        client.close()

    assert result.skyline_values == reference.skyline_values
    assert result.total_cost == reference.total_cost
    assert result.stats.batches > 0

    record(
        "async",
        f"baseline_diamonds_n{N}_k{K}_async_batched",
        wall_seconds=wall,
        queries=result.total_cost,
        skyline=result.skyline_size,
        workers=8,
        batch_size=16,
        batches=result.stats.batches,
        batched_queries=result.stats.batched,
        max_in_flight=result.stats.max_in_flight,
        engine_wall_time_s=result.stats.wall_time_s,
        engine_queries_per_sec=result.stats.queries_per_sec,
        injected_latency_ms=[LATENCY[0] * 1000, LATENCY[1] * 1000],
    )
