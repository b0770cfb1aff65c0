"""Shared plumbing for the figure-reproduction experiments.

All experiment runs route through one module-level
:class:`~repro.core.facade.Discoverer` so the figure modules never hand-roll
algorithm dispatch; they name a registry algorithm (``"sq"``, ``"rq"``,
``"pq"``, ``"baseline"``, ...) or let the facade auto-dispatch.

The *execution substrate* is configurable too: figure runners build their
search endpoints through :func:`make_interface`, and
:func:`configure_experiments` swaps what that returns and how the facade
drains frontiers.  Every figure can therefore reproduce

* **in process** (the default: a :class:`TopKInterface` per table, serial
  execution -- the historical query counts),
* **remotely** (``remote=True``: each table is stood up as an ephemeral
  :class:`~repro.service.HiddenDBServer` and crawled over HTTP),
* **durably/resumably** (``store=...``: every billed answer lands in a
  :class:`~repro.store.CrawlStore` ledger keyed by a content-derived
  endpoint label, so re-running a figure replays it free and a killed
  sweep resumes), and
* **concurrently** (``strategy``/``workers``/``batch_size`` forwarded to
  the execution engine).

Because all strategies preserve billed cost and skyline, the reported
figure numbers are identical in every mode; the engine counters of each
run are exposed through :func:`engine_summary` so runners can record
:class:`~repro.core.engine.EngineStats` next to their query counts.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

from ..core import Discoverer, DiscoveryConfig
from ..core.base import DiscoveryResult
from ..hiddendb.interface import TopKInterface
from ..hiddendb.ranking import Ranker
from ..hiddendb.table import Table

#: Default top-k of the simulated search forms in the offline experiments.
DEFAULT_K = 10

#: The facade every experiment runs through (rebound by
#: :func:`configure_experiments`; figure modules must call
#: :func:`run_discovery` rather than capturing this reference).
DISCOVERER = Discoverer()

# Substrate state installed by configure_experiments().
_REMOTE = False
_STORE = None
_OWNS_STORE = False
_SERVERS: dict[str, Any] = {}
_CLIENTS: list[Any] = []


def configure_experiments(
    *,
    remote: bool = False,
    store: Any = None,
    resume: bool = False,
    strategy: str | None = None,
    workers: int = 1,
    batch_size: int = 16,
    dedup: bool | None = None,
    checkpoint_every: int = 32,
) -> None:
    """Reconfigure the substrate every figure runner executes on.

    ``remote=True`` serves each experiment table from an ephemeral
    :class:`~repro.service.HiddenDBServer` (one per distinct
    table/k/ranking, reused across runs) and crawls it over HTTP.
    ``store`` mounts a :class:`~repro.store.CrawlStore` (instance or
    path; a path is opened here and closed by :func:`reset_experiments`)
    so runs are ledgered and -- with ``resume=True`` -- resumable.  The
    remaining knobs configure the execution engine exactly like the
    ``repro discover`` flags of the same names.

    Call :func:`reset_experiments` to restore the plain in-process
    defaults (and stop any ephemeral servers).
    """
    global DISCOVERER, _REMOTE, _STORE, _OWNS_STORE
    reset_experiments()
    if store is not None and not hasattr(store, "register_endpoint"):
        from ..store import CrawlStore

        store = CrawlStore(str(store))
        _OWNS_STORE = True
    _STORE = store
    _REMOTE = bool(remote)
    DISCOVERER = Discoverer(
        DiscoveryConfig(
            strategy=strategy,
            workers=workers,
            batch_size=batch_size,
            dedup=dedup,
            store=store,
            resume=resume,
            checkpoint_every=checkpoint_every,
        )
    )


def reset_experiments() -> None:
    """Restore in-process serial defaults; stop ephemeral servers."""
    global DISCOVERER, _REMOTE, _STORE, _OWNS_STORE
    DISCOVERER = Discoverer()
    _REMOTE = False
    for client in _CLIENTS:
        client.close()
    _CLIENTS.clear()
    for server in _SERVERS.values():
        server.stop()
    _SERVERS.clear()
    if _OWNS_STORE and _STORE is not None:
        _STORE.close()
    _STORE = None
    _OWNS_STORE = False


def _endpoint_label(
    table: Table, ranker: Ranker | None, k: int, budget: int | None
) -> str:
    """Content-derived endpoint identity of one experiment interface.

    Hashes the actual matrix (plus schema, ranking, ``k`` and budget), so
    a crawl-store ledger is shared exactly between runs over identical
    data -- and never between different sweep points of a figure.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(table.matrix).tobytes())
    h.update(
        repr(
            [
                (a.name, a.domain_size, a.kind.value)
                for a in table.schema.attributes
            ]
        ).encode()
    )
    describe = getattr(ranker, "describe", None)
    h.update(f"|k={k}|budget={budget}|{describe() if describe else ''}".encode())
    return f"exp-{h.hexdigest()[:12]}"


def make_interface(
    table: Table,
    k: int = DEFAULT_K,
    ranker: Ranker | None = None,
    budget: int | None = None,
):
    """The search endpoint a figure runner crawls ``table`` through.

    In-process by default.  After ``configure_experiments(remote=True)``
    the table is served by an ephemeral :class:`HiddenDBServer` (its
    ``budget``, if any, becomes the server's per-key budget) and a
    :class:`RemoteTopKInterface` client is returned instead -- the figure
    then reproduces over the wire with unchanged numbers.  When a crawl
    store is configured, the endpoint is pre-registered under its
    content-derived label so one store can ledger a whole figure sweep.
    """
    label = _endpoint_label(table, ranker, k, budget)
    if _REMOTE:
        from ..service import HiddenDBServer, RemoteTopKInterface

        server = _SERVERS.get(label)
        if server is None:
            server = HiddenDBServer(
                table, ranker, k=k, port=0, key_budget=budget, name=label
            ).start()
            _SERVERS[label] = server
        elif budget is not None:
            # An in-process TopKInterface gets a fresh budget per
            # construction; give a reused budgeted server the same
            # semantics.
            server.reset_billing()
        interface = RemoteTopKInterface(server.url)
        _CLIENTS.append(interface)
    else:
        interface = TopKInterface(
            table, ranker=ranker, k=k, budget=budget, name=label
        )
    if _STORE is not None:
        # attach_store() registers with allow_new=False (refusing ledger
        # mix-ups); a figure sweep legitimately crawls many endpoints, so
        # pre-register each one explicitly.
        _STORE.register_endpoint(
            table.schema,
            k,
            name=label,
            ranking=getattr(interface, "ranking_label", ""),
            allow_new=True,
        )
    return interface


def run_discovery(
    interface,
    algorithm: str | None = None,
    **overrides,
) -> DiscoveryResult:
    """Run one registered algorithm (or auto-dispatch) on ``interface``."""
    return DISCOVERER.run(interface, algorithm, **overrides)


def engine_summary(result) -> str:
    """Compact :class:`EngineStats` cell for figure rows.

    ``<strategy>/w<workers>:<issued>q`` plus ``+Nd`` memo hits and
    ``+Nl`` ledger replays when present -- the execution story of the run
    next to its billed query count.
    """
    stats = getattr(result, "stats", None)
    if stats is None:
        return "-"
    cell = f"{stats.strategy}/w{stats.workers}:{stats.issued}q"
    if stats.deduped:
        cell += f"+{stats.deduped}d"
    if stats.ledger_hits:
        cell += f"+{stats.ledger_hits}l"
    return cell


def ground_truth_values(table: Table) -> frozenset[tuple[int, ...]]:
    """Skyline of ``table`` as a value-vector set (oracle access)."""
    return frozenset(
        tuple(int(v) for v in row) for row in table.matrix[table.skyline_indices()]
    )


def run_range_algorithm(
    table: Table,
    algorithm: str,
    k: int = DEFAULT_K,
    ranker: Ranker | None = None,
    verify: bool = True,
) -> DiscoveryResult:
    """Run ``"sq"`` or ``"rq"`` discovery over ``table`` and optionally check
    the answer against the ground truth."""
    if algorithm not in ("sq", "rq"):
        raise ValueError(f"unknown range algorithm {algorithm!r}")
    result = run_discovery(make_interface(table, k=k, ranker=ranker), algorithm)
    if verify:
        expected = ground_truth_values(table)
        if result.skyline_values != expected:
            raise AssertionError(
                f"{algorithm} returned {len(result.skyline_values)} skyline "
                f"vectors, expected {len(expected)}"
            )
    return result


def run_pq(
    table: Table,
    k: int = DEFAULT_K,
    ranker: Ranker | None = None,
    verify: bool = True,
) -> DiscoveryResult:
    """Run PQ-DB-SKY over ``table`` with optional verification."""
    result = run_discovery(make_interface(table, k=k, ranker=ranker), "pq")
    if verify:
        expected = ground_truth_values(table)
        if result.skyline_values != expected:
            raise AssertionError("PQ-DB-SKY missed part of the skyline")
    return result


def skyline_count(table: Table) -> int:
    """Number of distinct skyline value vectors of ``table``."""
    return len(ground_truth_values(table))
