"""Sharded multi-tenant crawl coordination: discovery jobs as a service.

This package is the deployment layer above the networked service: where
:mod:`repro.service` exposes *one* hidden database and
:mod:`repro.store` makes *one* crawl durable, the coordinator runs
discovery as a shared service over a **pool** of backends and a
**shared** ledger:

* :class:`EndpointSet` -- N :class:`~repro.service.RemoteTopKInterface`
  backends (each with its own API key and budget) behind one
  :class:`~repro.hiddendb.SearchEndpoint`: fingerprint-verified, sharded
  by canonical query key, with work stealing when a backend stalls or
  exhausts its budget.  The execution engine drains a set like any
  other endpoint, so a sharded run pays exactly what a serial
  single-backend run pays;
* :class:`CrawlCoordinator` -- the ``repro coordinate`` daemon: accepts
  jobs over JSON (``POST /api/jobs``), streams anytime progress
  (``GET /api/jobs/<id>``), cancels (``DELETE``), and checkpoints every
  job through :class:`~repro.store.CrawlStore` sessions so concurrent
  tenants share one ledger (a duplicate job bills ~nothing) and
  ``--resume`` recovers every unfinished job after a crash.

Typical embedded usage::

    from repro.coordinator import CrawlCoordinator

    with CrawlCoordinator(
        ["http://db-a:8080=key1", "http://db-b:8080=key2"],
        "jobs.db",
    ) as coord:
        # POST {"algorithm": "sq-db-sky", "tenant": "alice"} to
        # http://127.0.0.1:<coord.port>/api/jobs, then poll
        # /api/jobs/<job_id> until status is "finished".
        coord.wait()
"""

from .daemon import (
    RESUMABLE_STATUSES,
    CrawlCoordinator,
    JobCancelled,
    JobRejected,
)
from .endpoints import (
    BackendSpec,
    EndpointSet,
    EndpointSetError,
)

__all__ = [
    "BackendSpec",
    "CrawlCoordinator",
    "EndpointSet",
    "EndpointSetError",
    "JobCancelled",
    "JobRejected",
    "RESUMABLE_STATUSES",
]
