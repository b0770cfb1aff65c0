"""The crawl coordinator daemon: discovery-jobs-as-a-service.

``repro coordinate`` runs a :class:`CrawlCoordinator`: a threaded HTTP
service that accepts *discovery jobs* over JSON, fans each job's frontier
out across a pool of hidden-database backends (an
:class:`~repro.coordinator.endpoints.EndpointSet`, sharded by canonical
query key with work stealing), and bills every tenant through one shared
:class:`~repro.store.CrawlStore` ledger.

Routes
------
The daemon is a :class:`~repro.service.front.JsonHttpFront`; its route
table lists, in this order:

``GET  /healthz``          liveness, endpoint fingerprint, per-backend
                           health and budget headroom, job counts
``GET  /api/schema``       the pooled endpoint's bootstrap metadata
``GET  /api/jobs``         compact job catalog
``POST /api/jobs``         submit a job (``algorithm``, ``budget``,
                           ``tenant``, ``workers``, ``dedup``,
                           ``checkpoint_every``, optional pinned
                           ``fingerprint`` -> 409 on mismatch, optional
                           ``watch: {interval_s}`` -> keep monitoring
                           after the crawl and repair the skyline with a
                           delta-crawl whenever the endpoint mutates)
``GET  /api/jobs/:id``     anytime status: live billed cost, engine
                           stats, per-shard counters and the durable
                           checkpoint's skyline-so-far
``DELETE /api/jobs/:id``   cancel (the job's crawl session stays
                           ``running``, i.e. resumable)
``GET  /api/stats``        operational counters: uptime, in-flight
                           requests, per-route request totals, job
                           counts, per-job/per-tenant query totals,
                           shard routing and work-steal counters
``GET  /metrics``          the same counters (plus checkpoint-lag,
                           job-count and freshness gauges: stale ledger
                           entries, delta-crawl billing, skyline age)
                           in Prometheus text format

Multi-tenancy and durability both come from the store: every job owns a
pre-assigned crawl session, all sessions of one endpoint share the query
ledger (a second tenant submitting the same job bills ~nothing -- its
queries replay free from the first tenant's paid-for answers), and a
coordinator killed mid-job is restarted with ``--resume``, which re-runs
every job the catalog still lists as queued/running under its original
session -- replaying the paid prefix instead of re-billing it.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Mapping

from ..core.base import DiscoverySession
from ..core.facade import Discoverer
from ..obs import RunObserver
from ..core.registry import (
    AlgorithmNotFoundError,
    DiscoveryConfig,
    get_algorithm,
    resolve_algorithm,
)
from ..hiddendb.errors import HiddenDBError
from ..service.front import (
    Handler,
    JsonHttpFront,
    Reply,
    Request,
    error_reply,
)
from ..service.wire import JOB_SPEC_DEFAULTS, decode_job_spec, encode_job_spec, encode_schema
from ..store import CrawlStore
from .endpoints import BackendSpec, EndpointSet

logger = logging.getLogger("repro.coordinator")

#: Job-catalog statuses ``--resume`` picks back up: jobs that never ran,
#: and jobs a dead coordinator left mid-crawl.
RESUMABLE_STATUSES = ("queued", "running")


class JobCancelled(HiddenDBError):
    """A tenant cancelled the job mid-crawl (raised out of the query hook).

    Deliberately *not* a :class:`QueryBudgetExceeded`: algorithms must not
    swallow it into a partial result -- it has to unwind to the job runner,
    which marks the job cancelled while leaving its crawl session
    ``running`` (so a resubmitted or resumed job picks up the paid-for
    prefix).
    """


class JobRejected(HiddenDBError):
    """A job submission the coordinator refuses (HTTP 4xx, not a crash)."""

    def __init__(self, status: int, error: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.error = error


class _ActiveJob:
    """In-memory handle of a queued-or-running job."""

    __slots__ = ("job_id", "cancel", "future", "session", "endpoints")

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.cancel = threading.Event()
        self.future = None
        self.session: DiscoverySession | None = None
        self.endpoints: EndpointSet | None = None


class CrawlCoordinator(JsonHttpFront):
    """Sharded multi-tenant crawl coordinator over a shared ledger.

    Parameters
    ----------
    backends:
        Backend pool specs (``BackendSpec`` or ``"URL[=APIKEY]"``
        strings).  All must serve the same endpoint fingerprint.
    store:
        The shared :class:`CrawlStore` (or a path to open; a path is
        closed again by :meth:`stop`).
    host / port:
        Bind address (``port=0`` picks a free port, reported by
        :attr:`port` once started).
    workers_per_backend:
        Default in-flight window per backend per job (a job's ``workers``
        field overrides it).
    max_parallel_jobs:
        Jobs crawled concurrently; the rest queue in submission order.
    resume:
        Re-enqueue every catalog job still ``queued``/``running`` at
        startup (the restart-recovery path).
    """

    def __init__(
        self,
        backends: Iterable[BackendSpec | str],
        store: "CrawlStore | str",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers_per_backend: int = 4,
        max_parallel_jobs: int = 4,
        client_timeout: float = 30.0,
        client_retries: int = 8,
        resume: bool = False,
    ) -> None:
        self._specs = tuple(
            b if isinstance(b, BackendSpec) else BackendSpec.parse(str(b))
            for b in backends
        )
        if not self._specs:
            raise ValueError("coordinator needs at least one backend")
        super().__init__(host, port, metrics_prefix="coordinator", log=logger)
        if isinstance(store, CrawlStore):
            self._store = store
            self._owns_store = False
        else:
            self._store = CrawlStore(store)
            self._owns_store = True
        self._workers_per_backend = max(int(workers_per_backend), 1)
        self._max_parallel_jobs = max(int(max_parallel_jobs), 1)
        self._client_timeout = client_timeout
        self._client_retries = client_retries
        self._resume = resume
        self._probe: EndpointSet | None = None
        self._fingerprint = ""
        self._pool: ThreadPoolExecutor | None = None
        self._active: dict[str, _ActiveJob] = {}
        self._active_lock = threading.Lock()
        # One observer in the front's metrics scope serves every job:
        # per-job EndpointSets feed it shard routing / work-steal
        # counters, the shared store feeds it ledger and checkpoint events
        # (checkpoint timestamps drive the lag gauge below).
        self._observer = RunObserver(registry=self._metrics)
        self._m_requests = self._metrics.counter(
            "coordinator_requests_total",
            "HTTP requests received, by route.",
            ("route",),
        )
        self._m_job_queries = self._metrics.counter(
            "coordinator_job_queries_total",
            "Query answers delivered to each job, by tenant.",
            ("job", "tenant"),
        )
        self._m_jobs = self._metrics.gauge(
            "coordinator_jobs",
            "Catalog job counts, by status (refreshed at scrape).",
            ("status",),
        )
        self._m_ckpt_lag = self._metrics.gauge(
            "coordinator_checkpoint_lag_seconds",
            "Seconds since each session's last durable checkpoint "
            "(refreshed at scrape).",
            ("session",),
        )
        self._m_stale = self._metrics.gauge(
            "freshness_ledger_stale_entries",
            "Ledger entries billed at an older data version "
            "(refreshed at scrape).",
        )
        self._m_delta_queries = self._metrics.counter(
            "freshness_delta_queries_total",
            "Queries billed by delta-crawl repair cycles, by job.",
            ("job",),
        )
        self._m_skyline_age = self._metrics.gauge(
            "freshness_skyline_age_seconds",
            "Seconds since each watch job last verified its skyline "
            "against the live endpoint (refreshed at scrape).",
            ("job",),
        )
        #: job_id -> monotonic time of the last completed crawl or repair
        #: cycle (drives the skyline-age gauge above).
        self._skyline_verified_at: dict[str, float] = {}
        # Observer-owned families this daemon reads back for /api/stats
        # (get-or-create returns the instances the observer registered).
        self._m_shard = self._metrics.counter(
            "repro_shard_queries_total",
            "Queries routed to each backend shard.",
            ("backend",),
        )
        self._m_steal = self._metrics.counter(
            "repro_work_steals_total",
            "Queries served off their home shard (work stealing).",
            ("backend",),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CrawlCoordinator":
        """Bind the socket, verify the backend pool, replay the catalog.

        A failed start (port taken, backends that disagree) releases
        everything it acquired, and closes the store if the coordinator
        opened it from a path.
        """
        super().start()
        if self._resume:
            replayed = self._replay_catalog()
            if replayed:
                logger.info("resumed %d catalog job(s)", replayed)
        logger.info(
            "coordinating %d backend(s), fingerprint %s, at %s",
            len(self._specs), self._fingerprint[:8], self.url,
        )
        return self

    def _open(self) -> None:
        # One long-lived probe set for health/schema/identity; jobs get
        # their own EndpointSet so per-job billing telemetry stays exact.
        self._probe = EndpointSet(
            self._specs,
            timeout=self._client_timeout,
            max_retries=self._client_retries,
        )
        self._fingerprint = self._probe.fingerprint
        self._store.attach_observer(self._observer)
        self._store.register_endpoint(
            self._probe.schema,
            self._probe.k,
            name=self._probe.service_name,
            ranking=self._probe.ranking_label,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self._max_parallel_jobs, thread_name_prefix="repro-job"
        )

    def _replay_catalog(self) -> int:
        """Re-enqueue unfinished jobs, oldest first (their original order)."""
        stale = [
            job
            for job in reversed(self._store.jobs(status=RESUMABLE_STATUSES))
            if job.fingerprint == self._fingerprint
        ]
        for job in stale:
            self._launch(job.job_id)
        return len(stale)

    def stop(self, *, cancel_jobs: bool = True) -> None:
        """Shut down the HTTP front end and the job pool (idempotent).

        With ``cancel_jobs`` every running job is asked to stop at its
        next answer and the pool is joined; without it the daemon exits
        while jobs keep their catalog rows ``running`` -- exactly the
        state ``--resume`` recovers from.
        """
        super().stop()
        if cancel_jobs:
            with self._active_lock:
                active = list(self._active.values())
            for job in active:
                job.cancel.set()
        if self._pool is not None:
            self._pool.shutdown(wait=cancel_jobs, cancel_futures=True)
            self._pool = None
        if self._probe is not None:
            self._probe.close()
            self._probe = None
        self._store.attach_observer(None)
        if self._owns_store:
            self._store.close()

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Endpoint fingerprint of the coordinated backend pool."""
        return self._fingerprint

    @property
    def store(self) -> CrawlStore:
        """The shared crawl store (ledger + job catalog)."""
        return self._store

    @property
    def backends(self) -> tuple[BackendSpec, ...]:
        """The coordinated backend pool."""
        return self._specs

    # ------------------------------------------------------------------
    # job intake
    # ------------------------------------------------------------------
    def submit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Validate and file one job submission; returns its status view."""
        assert self._probe is not None, "coordinator not started"
        try:
            spec = decode_job_spec(payload)
        except ValueError as exc:
            raise JobRejected(400, "bad_request", str(exc)) from None
        wanted = spec["fingerprint"]
        if wanted and wanted != self._fingerprint:
            raise JobRejected(
                409,
                "fingerprint_mismatch",
                f"coordinator serves endpoint {self._fingerprint}; the job "
                f"is pinned to {wanted}",
            )
        if spec["algorithm"]:
            try:
                algo = get_algorithm(spec["algorithm"])
            except AlgorithmNotFoundError as exc:
                raise JobRejected(400, "bad_request", str(exc.args[0])) from None
            if not algo.supports(self._probe.schema):
                raise JobRejected(
                    400,
                    "bad_request",
                    f"algorithm {algo.name!r} does not support this "
                    f"endpoint's interface taxonomy",
                )
        else:
            algo = resolve_algorithm(self._probe.schema)
        record = self._store.create_job(
            self._fingerprint,
            tenant=spec["tenant"],
            algorithm=algo.name,
            spec=encode_job_spec(spec),
            backends=len(self._specs),
        )
        self._launch(record.job_id)
        status = self.job_status(record.job_id)
        assert status is not None
        return status

    def cancel(self, job_id: str) -> dict[str, Any] | None:
        """Cancel a job; terminal jobs are left as-is.  ``None`` = no job."""
        record = self._store.job(job_id)
        if record is None:
            return None
        with self._active_lock:
            active = self._active.get(job_id)
        if active is not None:
            active.cancel.set()
            if active.future is not None and active.future.cancel():
                # Still queued: it never started, finalise it here.
                self._store.update_job(
                    job_id, status="cancelled", error="cancelled before start"
                )
                with self._active_lock:
                    self._active.pop(job_id, None)
        elif record.status in RESUMABLE_STATUSES:
            # Orphan of a previous coordinator incarnation.
            self._store.update_job(
                job_id, status="cancelled", error="cancelled"
            )
        return self.job_status(job_id)

    # ------------------------------------------------------------------
    # status views (what the HTTP routes serve)
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        assert self._probe is not None, "coordinator not started"
        with self._active_lock:
            active = len(self._active)
        return {
            "status": "ok",
            "fingerprint": self._fingerprint,
            "backends": self._probe.backend_status(),
            "jobs": self._job_counts(),
            "active_jobs": active,
        }

    def schema_payload(self) -> dict[str, Any]:
        assert self._probe is not None, "coordinator not started"
        return {
            "name": self._probe.service_name,
            "k": self._probe.k,
            "schema": encode_schema(self._probe.schema),
            "ranking": self._probe.ranking_label,
            "fingerprint": self._fingerprint,
            "batch": False,
            "backends": len(self._specs),
        }

    def _job_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self._store.jobs():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    def metrics_payload(self) -> Reply:
        """Prometheus text exposition, after setting the scrape-time gauges
        (job counts, checkpoint lag, stale ledger entries, skyline age)."""
        for status, count in self._job_counts().items():
            self._m_jobs.set(count, status=status)
        now = time.monotonic()
        for session_id, at in list(self._observer.checkpoint_at.items()):
            self._m_ckpt_lag.set(max(now - at, 0.0), session=session_id)
        if self._fingerprint:
            self._m_stale.set(
                self._store.ledger_stale_count(self._fingerprint)
            )
        for job_id, at in list(self._skyline_verified_at.items()):
            self._m_skyline_age.set(max(now - at, 0.0), job=job_id)
        return super().metrics_payload()

    def stats_payload(self) -> dict[str, Any]:
        """Operational counters served at ``GET /api/stats``."""
        uptime = self.uptime_s
        with self._active_lock:
            active = len(self._active)
        per_job: dict[str, int] = {}
        per_tenant: dict[str, int] = {}
        for (job_id, tenant), value in self._m_job_queries.samples():
            per_job[job_id] = per_job.get(job_id, 0) + int(value)
            per_tenant[tenant] = per_tenant.get(tenant, 0) + int(value)
        return {
            "name": "coordinator",
            "uptime_s": round(uptime, 3) if uptime is not None else None,
            "in_flight": int(self._m_inflight.value()),
            "fingerprint": self._fingerprint,
            "backends": len(self._specs),
            "jobs": self._job_counts(),
            "active_jobs": active,
            "queries_by_job": per_job,
            "queries_by_tenant": per_tenant,
            "requests": {
                labels[0]: int(value)
                for labels, value in self._m_requests.samples()
            },
            "shards": {
                labels[0]: int(value)
                for labels, value in self._m_shard.samples()
            },
            "steals": {
                labels[0]: int(value)
                for labels, value in self._m_steal.samples()
            },
        }

    def jobs_index(self) -> dict[str, Any]:
        return {
            "jobs": [
                {
                    "job_id": job.job_id,
                    "tenant": job.tenant,
                    "algorithm": job.algorithm,
                    "status": job.status,
                    "backends": job.backends,
                    "billed": job.progress.get("billed"),
                    "created_at": job.created_at,
                }
                for job in self._store.jobs()
            ]
        }

    def job_status(self, job_id: str) -> dict[str, Any] | None:
        """Anytime view of one job, or ``None`` if the catalog has none."""
        record = self._store.job(job_id)
        if record is None:
            return None
        body: dict[str, Any] = {
            "job_id": record.job_id,
            "tenant": record.tenant,
            "algorithm": record.algorithm,
            "status": record.status,
            "fingerprint": record.fingerprint,
            "session_id": record.session_id,
            "backends": record.backends,
            "spec": dict(record.spec),
            "progress": dict(record.progress),
            "result": dict(record.result) if record.result else None,
            "error": record.error,
            "created_at": record.created_at,
            "updated_at": record.updated_at,
        }
        with self._active_lock:
            active = self._active.get(job_id)
        if active is not None and active.session is not None:
            # Live counters straight off the running session; the durable
            # checkpoint below lags by at most ``checkpoint_every`` answers.
            body["live"] = self._progress_of(active)
        stored = self._store.session(record.session_id)
        if stored is not None:
            body["checkpoint"] = dict(stored.checkpoint)
        return body

    # ------------------------------------------------------------------
    # routes (called from handler threads)
    # ------------------------------------------------------------------
    def _route_table(self) -> dict[tuple[str, str], Handler]:
        return {
            ("GET", "/healthz"): lambda r: (200, self.health(), {}),
            ("GET", "/api/schema"): lambda r: (200, self.schema_payload(), {}),
            ("GET", "/api/jobs"): lambda r: (200, self.jobs_index(), {}),
            ("POST", "/api/jobs"): self._submit_reply,
            ("GET", "/api/jobs/:id"): _job_reply(self.job_status),
            ("DELETE", "/api/jobs/:id"): _job_reply(self.cancel),
            ("GET", "/api/stats"): lambda r: (200, self.stats_payload(), {}),
            ("GET", "/metrics"): lambda r: self.metrics_payload(),
        }

    def _account(self, route: str, headers: Any, elapsed: float) -> None:
        self._m_requests.inc(route=route)

    def _submit_reply(self, request: Request) -> Reply:
        try:
            return 201, self.submit(request.payload), {}
        except JobRejected as exc:
            return error_reply(exc.status, exc.error, str(exc))

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _launch(self, job_id: str) -> None:
        assert self._pool is not None, "coordinator not started"
        active = _ActiveJob(job_id)
        with self._active_lock:
            self._active[job_id] = active
        active.future = self._pool.submit(self._run_job, active)

    def _progress_of(self, active: _ActiveJob) -> dict[str, Any]:
        session, endpoints = active.session, active.endpoints
        assert session is not None and endpoints is not None
        return {
            "billed": session.cost,
            "stats": session.engine_stats.as_dict(),
            "shards": endpoints.stats(),
        }

    def _result_payload(
        self, result: Any, endpoints: EndpointSet
    ) -> dict[str, Any]:
        payload = {
            "algorithm": result.algorithm,
            "complete": bool(result.complete),
            "total_cost": int(result.total_cost),
            "skyline_size": result.skyline_size,
            "skyline": sorted(
                [int(v) for v in row.values] for row in result.skyline
            ),
            "stats": result.stats.as_dict() if result.stats else None,
            "shards": endpoints.stats(),
        }
        freshness = getattr(result, "freshness", None)
        if freshness is not None:
            payload["freshness"] = freshness.as_dict()
        return payload

    def _run_job(self, active: _ActiveJob) -> None:
        job_id = active.job_id
        store = self._store
        record = store.job(job_id)
        if record is None:  # pragma: no cover - catalog raced away
            return
        if active.cancel.is_set():
            store.update_job(
                job_id, status="cancelled", error="cancelled before start"
            )
            with self._active_lock:
                self._active.pop(job_id, None)
            return
        spec = dict(JOB_SPEC_DEFAULTS)
        spec.update(record.spec)
        endpoints: EndpointSet | None = None
        try:
            endpoints = EndpointSet(
                self._specs,
                timeout=self._client_timeout,
                max_retries=self._client_retries,
                observer=self._observer,
            )
            algo = get_algorithm(record.algorithm)
            per_backend = int(spec["workers"] or self._workers_per_backend)
            update_every = max(int(spec["checkpoint_every"]), 1)
            answers = itertools.count(1)

            tenant = record.tenant

            def on_query(_result: Any) -> None:
                if active.cancel.is_set():
                    raise JobCancelled(f"job {job_id} cancelled")
                self._m_job_queries.inc(job=job_id, tenant=tenant)
                if next(answers) % update_every == 0:
                    store.update_job(job_id, progress=self._progress_of(active))

            # The set routes each query to its home backend, so the one
            # concurrent strategy drains it like any endpoint; a window of
            # per-backend width x pool size keeps about the per-backend
            # width in flight on every mirror.
            cfg = DiscoveryConfig(
                budget=spec["budget"],
                dedup=spec["dedup"],
                strategy="async",
                workers=per_backend * endpoints.size,
                store=store,
                session_id=record.session_id,
                checkpoint_every=update_every,
                on_query=on_query,
            )
            store.update_job(job_id, status="running")
            # The job keeps its live session (the anytime ``live`` view
            # reads it) and runs the one session lifecycle on it.
            session = DiscoverySession.from_config(
                endpoints, cfg, algorithm=algo.name
            )
            active.session = session
            active.endpoints = endpoints
            result = session.finish(algo, cfg, session.run(algo.run, cfg))
            watching = bool(spec.get("watch")) and result.complete
            store.update_job(
                job_id,
                # A watch job keeps its catalog row ``running`` between
                # cycles, so a restarted coordinator's --resume re-arms it.
                status="running" if watching
                else ("finished" if result.complete else "partial"),
                progress=self._progress_of(active),
                result=self._result_payload(result, endpoints),
            )
            self._skyline_verified_at[job_id] = time.monotonic()
            if watching:
                self._watch(active, spec, endpoints, algo.name, cfg)
                store.update_job(
                    job_id, status="cancelled", error="watch stopped"
                )
        except JobCancelled:
            store.update_job(
                job_id, status="cancelled", error="cancelled by tenant"
            )
        except BaseException as exc:  # noqa: BLE001 - job isolation
            logger.exception("job %s failed", job_id)
            try:
                store.update_job(
                    job_id,
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                )
            except Exception:  # pragma: no cover - store went away too
                pass
        finally:
            if endpoints is not None:
                endpoints.close()
            with self._active_lock:
                self._active.pop(job_id, None)

    def _watch(
        self,
        active: _ActiveJob,
        spec: Mapping[str, Any],
        endpoints: EndpointSet,
        algorithm: str,
        cfg: DiscoveryConfig,
    ) -> None:
        """Continuous-monitor loop of a ``watch`` job.

        Sleeps ``interval_s`` between cycles (waking immediately on
        cancel), then repairs the job's skyline with a delta-crawl against
        the live endpoint.  An unchanged endpoint costs ~nothing: the
        repair finds no stale ledger entries, issues no probes and replays
        everything free.  Each cycle refreshes the job's result payload
        (carrying the ``freshness`` repair report), a ``watch`` progress
        block and the freshness metric families.  Returns when the tenant
        cancels; budget exhaustion mid-repair leaves the cycle partial and
        keeps watching.
        """
        job_id = active.job_id
        interval = float(spec["watch"]["interval_s"])
        cycles = 0
        while not active.cancel.wait(interval):
            cycles += 1
            endpoints.refresh_data_version()
            repair = Discoverer(cfg).run(endpoints, algorithm, mode="delta")
            report = repair.freshness
            assert report is not None
            if report.billed:
                self._m_delta_queries.inc(report.billed, job=job_id)
            self._skyline_verified_at[job_id] = time.monotonic()
            watch_progress = {
                "cycles": cycles,
                "epoch": report.epoch,
                "billed": report.billed,
                "complete": bool(repair.complete),
                "skyline_changed": report.skyline_changed,
                "skyline_added": sorted(
                    [int(v) for v in values] for values in report.skyline_added
                ),
                "skyline_removed": sorted(
                    [int(v) for v in values]
                    for values in report.skyline_removed
                ),
                "revalidated": report.revalidated,
            }
            self._store.update_job(
                job_id,
                status="running",
                progress={
                    **self._progress_of(active),
                    "watch": watch_progress,
                },
                result=self._result_payload(repair, endpoints),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "running" if self._httpd is not None else "stopped"
        return (
            f"CrawlCoordinator({len(self._specs)} backends, {state} at "
            f"{self.url})"
        )


def _job_reply(view: Callable[[str], dict[str, Any] | None]) -> Handler:
    """An ``/api/jobs/:id`` handler serving ``view(id)``; 404 on ``None``."""

    def handle(request: Request) -> Reply:
        body = view(request.param)
        if body is None:
            return error_reply(404, "not_found", f"no job {request.param!r}")
        return 200, body, {}

    return handle


__all__ = [
    "CrawlCoordinator",
    "JobCancelled",
    "JobRejected",
    "RESUMABLE_STATUSES",
]
