"""Crawl benchmark: one workload per run, checked, with a traced layer budget.

Usage (from the root of a checkout)::

    python3 crawlbench/run.py --workload remote-baseline --seed 0 --seconds 50 --trace 0

``--trace 0`` crawls repeatedly for ``--seconds`` seconds with no tracing and
reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` alternates
untraced and traced crawls (ABBA order), reports the per-layer metrics from
the traced ones plus ``bench.trace_overhead`` (traced over untraced
``crawl_s``), prints the per-layer budget and writes the span dump once at
the end.  Each metric is the median over the run's crawls; ``setup_s`` is the
median over several set-ups.  Times are wall clock net of hypervisor steal
on the CPUs the work runs on, scaled to a host of reference speed by a
probe run inside each crawl (``bench_workloads.Clock``; set-up times by the
run's median probe; the unscaled medians are printed too).  The benchmark
process and the server each get a CPU of their own.  Every crawl passes
through the workload's correctness checks; the last line of standard output
is the JSON result.

Outputs go under ``.crawlbench/`` in the checkout: the full result with the
environment fingerprint, and (traced runs) the span dump.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("local-rq", "remote-baseline", "durable-baseline")

#: Set-ups per run: at least this many, more while they stay cheap.
MIN_SETUPS = 5
SETUP_BUDGET_S = 3.0
MAX_SETUPS = 25


def _median(values):
    return statistics.median(values) if values else 0.0


def environment(root: Path) -> dict:
    """Where and on what the numbers were taken (load average added later)."""
    import numpy

    digest = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "git_sha": sha,
        "source_sha1": digest.hexdigest(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def run_setups(workload) -> list[float]:
    times: list[float] = []
    while len(times) < MIN_SETUPS or (
        sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS
    ):
        workload.teardown()
        elapsed = workload.stopwatch()
        workload.setup()
        times.append(elapsed())
    return times


def measure(workload, seconds: float, trace: bool, tracer):
    """Crawl until the next crawl would overrun ``seconds``.

    Returns ``(untraced samples, [(traced sample, crawl id)], attempted,
    failed)``.  With ``trace`` the crawls run untraced/traced in ABBA order.
    """
    plain, traced = [], []
    attempted = failed = 0
    durations: list[float] = []
    start = time.perf_counter()
    min_crawls = 4 if trace else 3
    while True:
        is_traced = trace and attempted % 4 in (1, 2)
        began = time.perf_counter()
        attempted += 1
        try:
            if is_traced:
                with tracer.installed():
                    sample = workload.crawl(attempted, tracer)
            else:
                sample = workload.crawl(attempted)
        except Exception:  # a crawl that raises is a failed crawl
            traceback.print_exc()
            print(f"crawl {attempted}: failed check: raised", flush=True)
            failed += 1
            sample = None
        durations.append(time.perf_counter() - began)
        if sample is not None:
            if sample.failures:
                failed += 1
                for check in sample.failures:
                    print(f"crawl {attempted}: failed check: {check}",
                          flush=True)
            if is_traced:
                traced.append((sample, attempted))
            else:
                plain.append(sample)
        elapsed = time.perf_counter() - start
        if attempted >= min_crawls and elapsed + _median(durations) > seconds:
            return plain, traced, attempted, failed


def end_to_end(samples, setup_times, peak_rss_mb, setup_scale):
    crawl = [s.crawl_s for s in samples]
    # Where nothing persists between crawls, a re-run is a repeat crawl in
    # the warm process.
    rerun = [s.rerun_s for s in samples if s.rerun_s is not None] or crawl[1:]
    return {
        "crawl_s": _median(crawl),
        "qps": _median([s.billed / s.crawl_s for s in samples]),
        "rerun_s": _median(rerun),
        "queries_billed": _median([s.billed for s in samples]),
        "cpu_s": _median([s.cpu_s for s in samples]),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": _median(setup_times) * setup_scale,
    }


def crawl_layers(stats, counters, sample) -> dict[str, float]:
    """Per-layer metrics of one traced crawl."""
    from bench_trace import CRAWL, percentile

    calls, total, own, dur = (
        stats.calls, stats.total, stats.self_time, stats.durations
    )
    layer_wall = stats.layer_wall()
    queries = dur["hiddendb.query"]
    rtt = dur["service.aclient.rtt"]
    drain_s = total["core.engine.drain"]
    returned = counters.get("rows_returned", 0)
    gets = calls["store.get"]
    metrics = {
        "core.expand.self_s": layer_wall.get("core.expand", 0.0),
        "core.base.record_calls": calls["core.base.record"],
        "core.base.record_s": own["core.base.record"],
        "core.base.retrieved_rows_calls": calls["core.base.retrieved_rows"],
        "core.base.retrieved_rows_s": own["core.base.retrieved_rows"],
        "core.base.new_rows_per_row_returned":
            counters.get("rows_new", 0) / returned if returned else 0.0,
        "core.engine.drain_s": drain_s,
        "core.engine.fetch_calls": calls["core.engine.fetch"],
        "core.engine.fetch_s": total["core.engine.fetch"],
        "core.engine.window_occupancy":
            stats.transport_in_drain / drain_s if drain_s else 0.0,
        "core.dominance.final_s": own["core.dominance.final"],
        "core.dominance.track_calls": calls["core.dominance.track"],
        "core.dominance.track_s": own["core.dominance.track"],
        "hiddendb.query_calls": len(queries),
        "hiddendb.query_s": own["hiddendb.query"],
        "hiddendb.query_p50_us": 1e6 * percentile(queries, 50),
        "hiddendb.query_p99_us": 1e6 * percentile(queries, 99),
        "service.aclient.rtt_calls": len(rtt),
        "service.aclient.rtt_s": total["service.aclient.rtt"],
        "service.aclient.rtt_p50_ms": 1e3 * percentile(rtt, 50),
        "service.aclient.rtt_p99_ms": 1e3 * percentile(rtt, 99),
        "service.aclient.retries": 0,
        "service.aclient.client_cpu_s": 0.0,
        "service.wire.encode_s": own["service.wire.encode"],
        "service.wire.decode_s": own["service.wire.decode"],
        "service.server.request_s": 0.0,
        "service.server.request_mean_ms": 0.0,
        "service.server.scan_s": 0.0,
        "service.server.server_cpu_s": 0.0,
        "service.server.billed": 0,
        "store.put_calls": calls["store.put"],
        "store.put_s": own["store.put"],
        "store.put_p99_us": 1e6 * percentile(dur["store.put"], 99),
        "store.get_calls": gets,
        "store.get_s": own["store.get"],
        "store.get_hit_rate":
            counters.get("ledger_hits", 0) / gets if gets else 0.0,
        "store.checkpoint_calls": calls["store.checkpoint"],
        "store.checkpoint_s": own["store.checkpoint"],
        "store.bytes_per_answer": 0.0,
        # Crawl time inside no wrapped call (counted in core.expand).
        "bench.residue_s": stats.wall.get(CRAWL, 0.0),
    }
    metrics.update(sample.layer)
    metrics["service.server.net_residue_s"] = (
        metrics["service.aclient.rtt_s"] - metrics["service.server.request_s"]
        if rtt else 0.0
    )
    return metrics


def per_layer(tracer, plain, traced):
    from bench_trace import CRAWL, SpanStats

    rows = []
    budgets = []
    for sample, crawl_id in traced:
        stats = SpanStats(tracer.crawl_spans(crawl_id))
        rows.append(crawl_layers(stats, tracer.counters[crawl_id], sample))
        budgets.append((stats.total[CRAWL], stats.layer_wall(),
                        stats.layer_calls()))
    metrics = {name: _median([row[name] for row in rows]) for name in rows[0]}
    metrics["bench.trace_overhead"] = (
        _median([s.crawl_s for s, _ in traced])
        / _median([s.crawl_s for s in plain])
    )
    return metrics, budgets


def print_budget(budgets, metrics) -> None:
    """Per-layer wall-clock budget of the traced crawls (medians)."""
    crawl_s = _median([b[0] for b in budgets])
    layers = sorted({
        layer for b in budgets for layer, calls in b[2].items() if calls
    })
    print(f"per-layer budget (median of {len(budgets)} traced crawls, "
          f"traced crawl_s {crawl_s:.4f} s):")
    print(f"  {'layer':<18} {'self_s':>10} {'calls':>9} {'share':>7}")
    for layer in layers:
        self_s = _median([b[1].get(layer, 0.0) for b in budgets])
        calls = _median([b[2].get(layer, 0) for b in budgets])
        print(f"  {layer:<18} {self_s:>10.4f} {calls:>9.0f} "
              f"{self_s / crawl_s:>7.1%}")
    residue = metrics["bench.residue_s"]
    print(f"  {'residue':<18} {residue:>10.4f} {'':>9} {residue / crawl_s:>7.1%}"
          "  (in core.expand: inside no wrapped call)")
    if metrics["service.server.request_s"]:
        print(f"  {'service.server':<18} "
              f"{metrics['service.server.request_s']:>10.4f}"
              "  (request handling, out of process: overlaps service.aclient)")
    print(f"  bench.trace_overhead {metrics['bench.trace_overhead']:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset seed (default 0)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    from bench_trace import Tracer
    from bench_workloads import (
        DEFAULT_N, PROBE_REFERENCE_S, WORKLOADS, make_workdir, split_cpus,
        steal_s,
    )

    env = environment(ROOT)
    bench_cpus, server_cpus = split_cpus()
    env["cpus"] = {"bench": sorted(bench_cpus),
                   "server": sorted(server_cpus or ())}
    print("env: " + json.dumps(env), flush=True)
    workdir = make_workdir(ROOT, args.workload, args.seed)
    workload = WORKLOADS[args.workload](
        args.seed, DEFAULT_N, workdir, ROOT, server_cpus
    )
    tracer = Tracer()
    stolen = steal_s(workload.cpus)
    try:
        setup_times = run_setups(workload)
        workload.prepare()
        plain, traced, attempted, failed = measure(
            workload, args.seconds, bool(args.trace), tracer
        )
        peak_rss_mb = workload.peak_rss_mb()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["steal_s"] = steal_s(workload.cpus) - stolen
    print(f"host: load average (1 min) {env['loadavg_1m_start']:.2f} at "
          f"start, {env['loadavg_1m_end']:.2f} at end; hypervisor steal "
          f"{env['steal_s']:.2f} s on CPUs {sorted(workload.cpus)} during the "
          "run (taken off every timing)")
    if not plain or (args.trace and not traced):
        print("error: no crawl completed", file=sys.stderr)
        return 1

    out = ROOT / ".crawlbench"
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        numbers, budgets = per_layer(tracer, plain, traced)
        wanted = spec["per_layer"]
        print_budget(budgets, numbers)
        tracer.dump(out / f"trace-{tag}.jsonl")
    else:
        # Set-up is too short to probe inside; it is scaled by the run's
        # median probe, the host's speed over the minute around it.
        probe = _median([s.layer["bench.host_probe_s"] for s in plain])
        numbers = end_to_end(plain, setup_times, peak_rss_mb,
                             PROBE_REFERENCE_S / probe)
        wanted = spec["end_to_end"]
        raw = _median([s.layer["bench.raw_crawl_s"] for s in plain])
        print(f"unscaled: crawl_s {raw:.4f} s, setup_s "
              f"{_median(setup_times):.4f} s; host probe {1e3 * probe:.4f} ms "
              f"(reference {1e3 * PROBE_REFERENCE_S} ms)")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} crawls, "
          f"{failed} failed, fail_rate {failed / attempted:.4f}")
    metrics = {}
    for entry in wanted:
        value = numbers[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<40} {value:>14.6g} {entry['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (out / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps({
            **result, "env": env, "setup_times": setup_times,
            "crawls": [
                {"crawl_s": s.crawl_s, "rerun_s": s.rerun_s,
                 "billed": s.billed, "cpu_s": s.cpu_s,
                 "raw_crawl_s": s.layer["bench.raw_crawl_s"],
                 "probe_s": s.layer["bench.host_probe_s"]}
                for s in plain
            ],
        }, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
