"""Adaptive-concurrency trajectory records: BENCH_adaptive.json.

Times a remote baseline crawl against a *traffic-shaped* server -- a
per-key token-bucket rate limit, a server-side concurrency cap, and
injected wide-area latency -- under a sweep of fixed window widths and
under ``workers="auto"`` (AIMD).  A fixed width is always wrong somewhere
on this server: too narrow serialises the latency, too wide harvests
429/503 storms and sits out their ``Retry-After`` holds.  The adaptive
window must find the sustainable width by itself.

Acceptance gates (the ISSUE's bar):

* parity -- every timed run reproduces the serial reference skyline and
  billed cost bit-identically (asserted per trial);
* the adaptive wall time is within 10% of the *best* fixed width's;
* the adaptive wall time is at least 2x faster than the *worst* fixed
  width's.

Run explicitly (benchmarks/ is not in the default testpaths)::

    PYTHONPATH=src python -m pytest benchmarks/test_adaptive_records.py -q
"""

from __future__ import annotations

import time

from _record import record

from repro import Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen import diamonds_table
from repro.service import FaultConfig, HiddenDBServer, RemoteTopKInterface

N = 1_500
K = 10
SEED = 1
#: Injected per-query latency (seconds): wide-area conditions, wide
#: enough that a serial drain is clearly latency-bound.
LATENCY = (0.015, 0.025)
#: Server shaping: the binding constraint is the concurrency cap (the
#: width a window controller can actually discover); the token bucket is
#: generous so steady-state throughput is cap-bound, not rate-bound.
RATE_LIMIT = 1_000.0
BURST = 50
MAX_INFLIGHT = 6
#: Fixed widths swept against the adaptive controller.  1 serialises the
#: injected latency; 32 overruns the in-flight cap and sits out the
#: shed-retry pauses; 6 is the oracle width (= the cap).
FIXED_WIDTHS = (1, 6, 32)
AUTO_BOUNDS = dict(min_workers=1, max_workers=32)
#: Every throttled attempt must eventually be absorbed by retries.
MAX_RETRIES = 60
#: Timed runs per configuration; min is compared (client and server
#: share one interpreter here, so a loaded runner can stall either).
TRIALS = 3


def _timed_run(server, config, reference, label):
    walls = []
    result = None
    for trial in range(TRIALS):
        interface = RemoteTopKInterface(
            server.url, api_key=f"{label}-{trial}", max_retries=MAX_RETRIES
        )
        start = time.perf_counter()
        result = Discoverer(config).run(interface, "baseline")
        walls.append(time.perf_counter() - start)
        interface.close()
        assert result.skyline_values == reference.skyline_values
        assert result.total_cost == reference.total_cost
    return min(walls), walls, result


def test_record_adaptive_window_vs_fixed_widths():
    table = diamonds_table(N, seed=SEED)
    reference = Discoverer().run(TopKInterface(table, k=K), "baseline")

    with HiddenDBServer(
        table,
        k=K,
        faults=FaultConfig(latency=LATENCY, seed=5),
        rate_limit=RATE_LIMIT,
        burst=BURST,
        max_inflight=MAX_INFLIGHT,
    ) as server:
        fixed = {}
        for width in FIXED_WIDTHS:
            fixed[width], walls, _ = _timed_run(
                server,
                DiscoveryConfig(
                    strategy="async", workers=width, batch_size=1
                ),
                reference,
                f"fixed{width}",
            )
        auto_wall, auto_walls, auto = _timed_run(
            server,
            DiscoveryConfig(
                strategy="async", workers="auto", batch_size=1,
                **AUTO_BOUNDS,
            ),
            reference,
            "auto",
        )

    best_width = min(fixed, key=fixed.get)
    worst_width = max(fixed, key=fixed.get)
    best, worst = fixed[best_width], fixed[worst_width]

    # Gate 1: adaptive matches the best fixed width (within 10%).
    assert auto_wall <= best * 1.10, (
        f"adaptive {auto_wall:.3f}s misses best fixed width "
        f"{best_width} ({best:.3f}s) by more than 10%"
    )
    # Gate 2: adaptive is at least 2x faster than the worst fixed width.
    assert auto_wall * 2.0 <= worst, (
        f"adaptive {auto_wall:.3f}s not 2x faster than worst fixed "
        f"width {worst_width} ({worst:.3f}s)"
    )

    record(
        "adaptive",
        f"baseline_diamonds_n{N}_k{K}_aimd_vs_fixed",
        adaptive_wall_seconds=auto_wall,
        adaptive_walls=[round(w, 6) for w in auto_walls],
        fixed_wall_seconds={str(w): fixed[w] for w in FIXED_WIDTHS},
        best_fixed_width=best_width,
        worst_fixed_width=worst_width,
        speedup_vs_worst=worst / auto_wall,
        ratio_vs_best=auto_wall / best,
        queries=auto.total_cost,
        skyline=auto.skyline_size,
        mean_window=auto.stats.mean_window,
        window_decreases=auto.stats.window_decreases,
        max_in_flight=auto.stats.max_in_flight,
        trials=TRIALS,
        rate_limit_qps=RATE_LIMIT,
        burst=BURST,
        max_inflight=MAX_INFLIGHT,
        injected_latency_ms=[LATENCY[0] * 1000, LATENCY[1] * 1000],
    )
