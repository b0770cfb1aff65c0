"""Networked hidden-database service: serve a table, crawl it remotely.

The paper's algorithms target *real* web databases reached through
rate-limited top-k search forms; this subpackage recreates those conditions
for the in-process simulator so discovery can run over the wire:

* :mod:`repro.service.server` -- :class:`HiddenDBServer`, a threaded HTTP
  server exposing any :class:`~repro.hiddendb.table.Table` + ranker as a
  JSON top-k search API with per-API-key query budgets and configurable
  fault/latency injection, on the JSON-over-HTTP front it shares with the
  crawl coordinator (:mod:`repro.service.front`);
* :mod:`repro.service.client` -- the one remote-client protocol,
  :class:`QueryClientCore` (billing-safe request ids, retry/backoff
  against faults and throttles, batching with ``partial_results``), and
  its blocking transport
  :class:`RemoteTopKInterface` (keep-alive connections, one per thread);
* :mod:`repro.service.aclient` -- the protocol's asyncio transport,
  :class:`AsyncRemoteTopKInterface` (pooled non-blocking connections on
  one event loop, built for ``DiscoveryConfig(strategy="async")``'s very
  wide dispatch windows);
* :mod:`repro.service.wire` -- the JSON wire format shared by both sides;
* :mod:`repro.service.faults` -- deterministic, thread-safe fault/latency
  injection used by the server.

Because every discovery algorithm is written against the
:class:`~repro.hiddendb.endpoint.SearchEndpoint` protocol, a
``RemoteTopKInterface`` drops into :class:`repro.Discoverer` unchanged::

    from repro import Discoverer, DiscoveryConfig
    from repro.service import HiddenDBServer, RemoteTopKInterface

    with HiddenDBServer(table, k=10) as server:
        remote = RemoteTopKInterface(server.url)
        # dedup: a query the run already paid for is answered from the
        # engine's memo instead of billed again.
        result = Discoverer(DiscoveryConfig(dedup=True)).run(remote)

The CLI mirrors this: ``repro serve --dataset diamonds`` in one terminal,
``repro discover --url http://127.0.0.1:8080`` in another.
"""

from .aclient import AsyncRemoteTopKInterface
from .client import QueryClientCore, RemoteServiceError, RemoteTopKInterface
from .faults import FaultConfig, FaultInjector
from .server import (
    HiddenDBServer,
    KeyUsage,
    ServerStats,
    ServiceStartupError,
)

__all__ = [
    "AsyncRemoteTopKInterface",
    "FaultConfig",
    "FaultInjector",
    "HiddenDBServer",
    "KeyUsage",
    "QueryClientCore",
    "RemoteServiceError",
    "RemoteTopKInterface",
    "ServerStats",
    "ServiceStartupError",
]
