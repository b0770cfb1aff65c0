"""The three crawl workloads of the benchmark.

All three crawl ``diamonds`` (the paper's Blue Nile stand-in) at k=10 under
the default ``LinearRanker``, so the ``rank`` serving engine answers.  The
benchmark seed is the dataset seed; the program only sees the generated
table.  Load is one closed loop: the next query goes out only when a window
slot frees -- one query in flight in-process, at most two over the wire.

* ``local-rq`` -- in-process ``TopKInterface``, serial strategy,
  auto-dispatched RQ-DB-SKY.  Algorithm work dominates; no wire, no store.
* ``remote-baseline`` -- ``repro.cli serve`` in a subprocess, crawled by a
  fresh ``AsyncRemoteTopKInterface`` (async strategy, two in flight, no
  batching) per crawl with ``baseline``, the frontier algorithm that opens
  the dispatch window.  Client, loopback wire and server dominate.
* ``durable-baseline`` -- in-process ``baseline`` against a fresh
  file-backed ``CrawlStore`` (SQLite WAL, ``synchronous=NORMAL``), then a
  warm re-run that bills 0 and reads every answer back from the ledger.

``BENCHMARK.json`` lists the two baseline workloads only.  ``local-rq`` is
run by name: its crawl time moves with the dataset (RQ bills 2163-2627
queries over seeds 0-7) on top of host noise, and its spread across seeds
exceeded the largest bound the benchmark may set.

Every crawl is checked: skyline equal to the full-access oracle, complete,
billed cost equal to the in-process serial reference, and the workload's own
accounting identities.  A failed check is recorded by name.  Crawl times are
timed by a :class:`Clock`, in reference-speed seconds.
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro import Discoverer, DiscoveryConfig
from repro.core.base import DiscoverySession
from repro.datagen.diamonds import diamonds_table
from repro.hiddendb.interface import TopKInterface
from repro.hiddendb.query import Query
from repro.service.aclient import AsyncRemoteTopKInterface
from repro.store import CrawlStore

from host_probe import probe

K = 10
DEFAULT_N = 20_000


@dataclass
class Sample:
    """One crawl's end-to-end numbers, failed checks and layer counters.

    Times are in reference-speed seconds (see :class:`Clock`).
    """

    crawl_s: float
    billed: int
    cpu_s: float
    rerun_s: float | None = None
    failures: list[str] = field(default_factory=list)
    #: Per-layer values the workload measures itself (engine counters,
    #: server deltas, store size), keyed by per-layer metric name.
    layer: dict[str, float] = field(default_factory=dict)


def _root(tracer, index: int):
    return tracer.crawl(index) if tracer is not None else nullcontext()


def _check(result, oracle: frozenset, reference: int | None,
           failures: list[str], phase: str = "") -> None:
    if not result.complete:
        failures.append(phase + "complete")
    if result.skyline_values != oracle:
        failures.append(phase + "skyline_equals_oracle")
    if reference is not None and result.total_cost != reference:
        failures.append(phase + "billed_equals_serial_reference")


def _engine_layer(stats) -> dict[str, float]:
    return {
        "core.engine.issued": stats.issued,
        "core.engine.deduped": stats.deduped,
        "core.engine.ledger_hits": stats.ledger_hits,
        "core.engine.max_in_flight": stats.max_in_flight,
    }


def _clock_layer(clock: "Clock") -> dict[str, float]:
    wall, _, probe_s = clock.raw["crawl"]
    return {"bench.raw_crawl_s": wall, "bench.host_probe_s": probe_s}


def _rss_mb(status_path: str = "/proc/self/status") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(status_path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status_path}")


#: Recorded answers between two host-speed probes of a phase.
PROBE_EVERY = 256
#: Median probe time inside a crawl on a host of reference speed (the
#: 2-CPU Xeon VM the bounds of BENCHMARK.json were set on, quiet).
PROBE_REFERENCE_S = 0.0012


class Clock:
    """Times the phases of one crawl in reference-speed seconds.

    On a shared host the speed a CPU gives drifts by a third and more over
    seconds to minutes (neighbours on the same cores), which no steal
    counter shows and which moved whole runs.  So while a phase runs, every
    :data:`PROBE_EVERY`-th recorded answer (``DiscoverySession.record``:
    one call per answer under every strategy) runs ``host_probe.probe`` on
    the crawl's own thread and CPU, about 25 times in a crawl.  A phase's
    time is its wall (and CPU) time net of hypervisor steal and of the
    probes, times :data:`PROBE_REFERENCE_S` over the phase's probe time:
    the phase as it would have run on the reference host.  The probe is
    the benchmark's code and the same on every commit, so a change to the
    program moves a scaled time as it moves the raw one.

    With a server, ``server_cpu`` gives the server's CPU seconds (added to
    the phase's CPU time) and ``server_probes(start, end)`` the durations
    of the probes ``host_probe`` ran on the server's CPU in that interval;
    the phase's probe time is then the mean of the two CPUs' medians.
    Under a tracer each in-crawl probe is a ``bench.probe`` span, so the
    per-layer budget shows it apart from the program.
    """

    def __init__(self, cpus: set[int], tracer=None, server_cpu=None,
                 server_probes=None) -> None:
        self.cpus = cpus
        self._tracer = tracer
        self._server_cpu = server_cpu
        self._server_probes = server_probes
        #: Per phase: (net wall s, net CPU s, median probe s).
        self.raw: dict[str, tuple[float, float, float]] = {}

    def _now(self) -> tuple[float, float]:
        wall = time.perf_counter() - steal_s(self.cpus) / len(self.cpus)
        cpu = time.process_time()
        if self._server_cpu is not None:
            cpu += self._server_cpu()
        return wall, cpu

    def _timed_probe(self) -> float:
        span = self._tracer.span if self._tracer else lambda _: nullcontext()
        with span("bench.probe"):
            start = time.perf_counter()
            probe()
            return time.perf_counter() - start

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        probes: list[float] = []
        original = DiscoverySession.__dict__["record"]
        answers = 0

        def record(session, result):
            nonlocal answers
            answers += 1
            if answers % PROBE_EVERY == 0:
                probes.append(self._timed_probe())
            return original(session, result)

        start = time.perf_counter()
        wall, cpu = self._now()
        DiscoverySession.record = record
        try:
            yield
        finally:
            DiscoverySession.record = original
            end_wall, end_cpu = self._now()
        end = time.perf_counter()
        spent = sum(probes)
        if not probes:  # a phase too short to probe: probe once after it
            probes.append(self._timed_probe())
        probe_s = statistics.median(probes)
        server = self._server_probes(start, end) if self._server_probes else []
        if server:
            probe_s = (probe_s + statistics.median(server)) / 2
        self.raw[name] = (end_wall - wall - spent, end_cpu - cpu - spent,
                          probe_s)

    def seconds(self, name: str) -> tuple[float, float]:
        """Reference-speed (wall, CPU) seconds of phase ``name``."""
        wall, cpu, probe_s = self.raw[name]
        scale = PROBE_REFERENCE_S / probe_s
        return wall * scale, cpu * scale


class Workload:
    """Set-up, one checked crawl, and teardown of one workload."""

    name = ""

    def __init__(self, seed: int, n: int, workdir: Path, root: Path,
                 server_cpus: set[int] | None = None) -> None:
        self.seed = seed
        self.n = n
        self.workdir = workdir
        self.root = root
        #: CPUs the server subprocess is pinned to (``None``: unpinned).
        self.server_cpus = server_cpus
        #: CPUs the timed work runs on; their steal is taken off timings.
        self.cpus = os.sched_getaffinity(0)
        self.table = None
        self.oracle: frozenset = frozenset()
        self.reference: int | None = None
        self._billed_seen: int | None = None

    def setup(self) -> None:
        """Everything until the first query can be served (timed)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed correctness inputs: the oracle skyline and reference."""
        self.oracle = frozenset(row.values for row in self.table.skyline_rows())

    def crawl(self, index: int, tracer=None) -> Sample:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` acquired (idempotent)."""

    def peak_rss_mb(self) -> float:
        return _rss_mb()

    def stopwatch(self) -> Callable[[], float]:
        """Start a clock of wall time net of hypervisor steal.

        The returned callable gives the seconds since the start minus the
        mean steal over :attr:`cpus`: time the host took the CPUs away is
        not the program's.  On a shared host steal episodes otherwise
        doubled single crawls.
        """
        start, stolen = time.perf_counter(), steal_s(self.cpus)
        return lambda: (time.perf_counter() - start) - (
            steal_s(self.cpus) - stolen
        ) / len(self.cpus)

    def _local_interface(self) -> TopKInterface:
        self.table = diamonds_table(self.n, self.seed)
        iface = TopKInterface(
            self.table, k=K, name=f"diamonds-{self.n}-{self.seed}"
        )
        # The rank engine binds on the first query; serve one, then clear
        # the billing counter so crawls start from zero.
        iface.query(Query.select_all())
        iface.reset()
        return iface

    def _serial_baseline_reference(self) -> int:
        return Discoverer().run(
            TopKInterface(self.table, k=K), "baseline"
        ).total_cost

    def _check_repeat(self, billed: int, failures: list[str]) -> None:
        if self._billed_seen is None:
            self._billed_seen = billed
        elif billed != self._billed_seen:
            failures.append("billed_repeats_across_crawls")


class LocalRQ(Workload):
    name = "local-rq"

    def setup(self) -> None:
        self.iface = self._local_interface()

    def crawl(self, index: int, tracer=None) -> Sample:
        self.iface.reset()
        gc.collect()
        clock = Clock(self.cpus, tracer)
        with clock.phase("crawl"), _root(tracer, index):
            result = Discoverer().run(self.iface)
        wall, cpu = clock.seconds("crawl")
        failures: list[str] = []
        # The measured crawl is itself the in-process serial reference, so
        # the billed gate is that every crawl bills the same.
        _check(result, self.oracle, None, failures)
        if result.info is None or result.info.name != "rq":
            failures.append("auto_dispatch_is_rq")
        if self.iface.queries_issued != result.total_cost:
            failures.append("endpoint_billed_equals_total_cost")
        self._check_repeat(result.total_cost, failures)
        return Sample(wall, result.total_cost, cpu, failures=failures,
                      layer=_engine_layer(result.stats) | _clock_layer(clock))


class DurableBaseline(Workload):
    name = "durable-baseline"

    def setup(self) -> None:
        self.iface = self._local_interface()
        path = self.workdir / "setup.db"
        store = CrawlStore(path)
        try:
            store.register_endpoint(
                self.iface.schema, self.iface.k, name=self.iface.name,
                ranking=self.iface.ranking_label,
            )
        finally:
            store.close()
            _remove_db(path)

    def prepare(self) -> None:
        super().prepare()
        self.reference = self._serial_baseline_reference()

    def crawl(self, index: int, tracer=None) -> Sample:
        path = self.workdir / f"ledger-{index}.db"
        _remove_db(path)
        store = CrawlStore(path)
        try:
            config = DiscoveryConfig(store=store)
            clock = Clock(self.cpus, tracer)
            self.iface.reset()
            gc.collect()
            with clock.phase("crawl"), _root(tracer, index):
                cold = Discoverer(config).run(self.iface, "baseline")
            size = sum(
                os.path.getsize(p) for p in (path, Path(f"{path}-wal"))
                if os.path.exists(p)
            )
            ledger_size = store.ledger_size()
            gc.collect()
            with clock.phase("rerun"), _root(tracer, index):
                warm = Discoverer(config).run(self.iface, "baseline")
        finally:
            store.close()
            _remove_db(path)
        failures: list[str] = []
        _check(cold, self.oracle, self.reference, failures, "cold.")
        _check(warm, self.oracle, 0, failures, "warm.")
        if ledger_size != cold.total_cost:
            failures.append("ledger_size_equals_cold_billed")
        self._check_repeat(cold.total_cost, failures)
        layer = _engine_layer(cold.stats) | _clock_layer(clock)
        layer["core.engine.issued"] += warm.stats.issued
        layer["core.engine.deduped"] += warm.stats.deduped
        layer["core.engine.ledger_hits"] += warm.stats.ledger_hits
        layer["store.bytes_per_answer"] = size / max(cold.total_cost, 1)
        wall, cpu = clock.seconds("crawl")
        return Sample(wall, cold.total_cost, cpu,
                      rerun_s=clock.seconds("rerun")[0],
                      failures=failures, layer=layer)


class RemoteBaseline(Workload):
    name = "remote-baseline"

    CONFIG = DiscoveryConfig(strategy="async", workers=2, batch_size=1)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cpus |= self.server_cpus or set()
        self.proc: subprocess.Popen | None = None
        self.url = ""
        #: ``host_probe`` on the server's CPUs, from prepare to teardown.
        self.prober: subprocess.Popen | None = None
        self.probe_log = self.workdir / "server-probes.txt"

    def setup(self) -> None:
        log = open(self.workdir / "server.log", "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--dataset", "diamonds", "--n", str(self.n),
                 "--k", str(K), "--seed", str(self.seed), "--port", "0"],
                stdout=subprocess.PIPE, stderr=log, text=True,
                cwd=self.root,
                env=dict(os.environ, PYTHONPATH=str(self.root / "src")),
            )
        finally:
            log.close()
        if self.server_cpus:
            # The child is still starting the interpreter: no thread of it
            # exists yet that could keep the inherited affinity.
            os.sched_setaffinity(self.proc.pid, self.server_cpus)
        port = None
        for line in self.proc.stdout:
            if line.startswith("port"):
                port = int(line.split(":", 1)[1])
                break
        if port is None:
            raise RuntimeError("server exited before reporting its port")
        self.url = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 30.0
        while _http_get(self.url + "/healthz") is None:
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)
        # Schema fetch, then one probe query so the server's rank engine
        # is bound before the first crawl (billed to its own key).
        with AsyncRemoteTopKInterface(self.url, api_key="bench-setup") as client:
            client.query(Query.select_all())

    def prepare(self) -> None:
        self.table = diamonds_table(self.n, self.seed)
        super().prepare()
        self.reference = self._serial_baseline_reference()
        if self.server_cpus:
            self.prober = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("host_probe.py")),
                 str(self.probe_log),
                 ",".join(map(str, sorted(self.server_cpus)))],
            )

    def _server_probes(self, start: float, end: float) -> list[float]:
        if not self.probe_log.exists():
            return []
        with open(self.probe_log, encoding="ascii") as log:
            lines = [line.split() for line in log if line.endswith("\n")]
        return [float(took) for at, took in lines if start <= float(at) <= end]

    def crawl(self, index: int, tracer=None) -> Sample:
        key = f"crawl-{index}"
        client = AsyncRemoteTopKInterface(self.url, api_key=key)
        pid = self.proc.pid
        clock = Clock(self.cpus, tracer, lambda: _proc_cpu_s(pid),
                      self._server_probes)
        try:
            before = self._server_counters()
            gc.collect()
            cpu = time.process_time()
            with clock.phase("crawl"), _root(tracer, index):
                result = Discoverer(self.CONFIG).run(client, "baseline")
            client_cpu = time.process_time() - cpu
            after = self._server_counters()
            stats = client.server_stats()
            issued = client.queries_issued
            retries = client.retries
        finally:
            client.close()
        delta = {name: after[name] - before[name] for name in after}
        failures: list[str] = []
        _check(result, self.oracle, self.reference, failures)
        server_billed = stats["keys"].get(key, {}).get("issued")
        if not server_billed == issued == result.total_cost:
            failures.append("server_billed_equals_client_issued_equals_cost")
        self._check_repeat(result.total_cost, failures)
        requests = delta["request_count"]
        layer = _engine_layer(result.stats) | _clock_layer(clock)
        layer.update({
            "service.aclient.retries": retries,
            "service.aclient.client_cpu_s": client_cpu,
            "service.server.request_s": delta["request_s"],
            "service.server.request_mean_ms":
                1000.0 * delta["request_s"] / requests if requests else 0.0,
            "service.server.scan_s": delta["scan_s"],
            "service.server.server_cpu_s": delta["cpu_s"],
            "service.server.billed": server_billed or 0,
        })
        wall, cpu = clock.seconds("crawl")
        return Sample(wall, result.total_cost, cpu, failures=failures,
                      layer=layer)

    def _server_counters(self) -> dict[str, float]:
        text = _http_get(self.url + "/metrics")
        if text is None:
            raise RuntimeError("server /metrics unreachable")
        series = _parse_prometheus(text)
        route = '{route="/api/query"}'
        return {
            "request_s": series.get(
                "hiddendb_request_latency_seconds_sum" + route, 0.0),
            "request_count": series.get(
                "hiddendb_request_latency_seconds_count" + route, 0.0),
            "scan_s": sum(
                value for name, value in series.items()
                if name.startswith("hiddendb_table_scan_seconds_sum")
            ),
            "cpu_s": _proc_cpu_s(self.proc.pid),
        }

    def peak_rss_mb(self) -> float:
        server = _rss_mb(f"/proc/{self.proc.pid}/status") if self.proc else 0.0
        return _rss_mb() + server

    def teardown(self) -> None:
        prober, self.prober = self.prober, None
        if prober is not None:
            prober.terminate()
            prober.wait()
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


WORKLOADS = {
    cls.name: cls for cls in (LocalRQ, RemoteBaseline, DurableBaseline)
}


def _remove_db(path: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        candidate = Path(f"{path}{suffix}")
        if candidate.exists():
            candidate.unlink()


def _http_get(url: str) -> str | None:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.read().decode("utf-8")
    except OSError:
        return None


def _parse_prometheus(text: str) -> dict[str, float]:
    series: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return series


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def steal_s(cpus: set[int]) -> float:
    """Seconds the hypervisor has stolen from ``cpus`` (``/proc/stat``)."""
    total = 0
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            name, *fields = line.split()
            if name.startswith("cpu") and name[3:].isdigit() \
                    and int(name[3:]) in cpus:
                total += int(fields[7])
    return total / os.sysconf("SC_CLK_TCK")


def split_cpus() -> tuple[set[int], set[int] | None]:
    """Pin this process to its first allowed CPU; return the CPUs left for
    a server subprocess (``None`` on a single CPU).

    Client and server each on a CPU of their own keep the scheduler from
    stacking both on one CPU, which doubled remote crawl times and their
    spread on a shared 2-CPU host.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return {cpus[0]}, (set(cpus[1:]) or None)


def make_workdir(root: Path, name: str, seed: int) -> Path:
    workdir = root / ".crawlbench" / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir
