"""Sharded endpoint fan-out: N remote backends behind one search endpoint.

A coordinator serves discovery jobs against *several* deployments of the
same hidden database -- e.g. two mirrors of one flight-search site, each
with its own API key and per-key query budget.  :class:`EndpointSet` makes
that pool look like a single :class:`~repro.hiddendb.endpoint.SearchEndpoint`:

* **identity** -- every backend must advertise the same endpoint
  fingerprint (schema + ``k`` + name + ranking, verified from the free
  bootstrap metadata), because answers from *different* databases must
  never be merged into one skyline;
* **sharding** -- each query has a *home* backend chosen by a stable hash
  of its canonical key, so repeated queries land on the same mirror and
  its server-side replay cache keeps working across restarts;
* **work stealing** -- when the home backend has exhausted its budget (or
  died after the client's retry schedule), the query spills to the next
  healthy backend instead of failing the whole crawl.  Only when *every*
  backend is exhausted does :class:`~repro.hiddendb.QueryBudgetExceeded`
  propagate, turning the run into the usual partial anytime result.

Because the paper's cost metric bills a query the same no matter which
mirror answers it, sharding changes wall-clock time only: a crawl fanned
over an :class:`EndpointSet` issues the exact query set -- and therefore
pays the exact cost and discovers the exact skyline -- of a single-backend
run.  The set is a plain endpoint, so the execution engine drains it like
any other: :class:`~repro.core.engine.AsyncStrategy` calls
:meth:`EndpointSet.query` from its thread pool, the set routes each call
to its home backend, and the engine's strict dispatch-order merge (the
determinism invariant) never learns that there are several backends.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..hiddendb import Query, QueryBudgetExceeded, QueryResult
from ..hiddendb.errors import HiddenDBError
from ..service.client import RemoteServiceError, RemoteTopKInterface
from ..service.server import ANONYMOUS_KEY


class EndpointSetError(HiddenDBError):
    """The backend pool cannot act as one coherent endpoint.

    Raised when the pool is empty or its backends disagree on endpoint
    identity (different schema/``k``/ranking fingerprints): merging
    answers from different databases would corrupt the skyline.
    """


@dataclass(frozen=True)
class BackendSpec:
    """One backend of a sharded deployment: where it lives, how it bills.

    ``api_key`` of ``None`` queries anonymously (the server's shared
    default-budget pool).
    """

    url: str
    api_key: str | None = None

    @classmethod
    def parse(cls, text: str) -> "BackendSpec":
        """The CLI's ``--backend`` syntax: ``URL`` or ``URL=APIKEY``."""
        url, sep, key = text.partition("=")
        url = url.strip()
        if not url:
            raise ValueError(f"backend spec {text!r} has no URL")
        return cls(url, key.strip() or None) if sep else cls(url)


class _Backend:
    """Runtime state of one pooled backend."""

    __slots__ = ("spec", "client", "exhausted", "unhealthy", "stolen", "error")

    def __init__(self, spec: BackendSpec, client: Any) -> None:
        self.spec = spec
        self.client = client
        #: Budget spent: skipped by the router for the rest of this set's life.
        self.exhausted = False
        #: Transport declared it dead after the client's full retry schedule.
        self.unhealthy = False
        #: Queries this backend absorbed for another backend's shard.
        self.stolen = 0
        #: The exception that flagged it (re-raised when nothing is left).
        self.error: Exception | None = None


class EndpointSet:
    """N :class:`RemoteTopKInterface` backends behind one search endpoint.

    Parameters
    ----------
    backends:
        :class:`BackendSpec` instances or ``"URL"`` / ``"URL=APIKEY"``
        strings.  Each gets its own HTTP client (so per-backend billing
        telemetry stays separable); construction fetches every backend's
        free bootstrap metadata and refuses a pool whose members are not
        the same endpoint.
    timeout / max_retries:
        Forwarded to each backend client.
    client_factory:
        Test seam: a ``(url, **kwargs) -> client`` callable replacing
        :class:`RemoteTopKInterface`.
    observer:
        Optional :class:`~repro.obs.RunObserver`; records shard routing
        and work-steal counters and is forwarded to every backend client
        (transport attempt/retry/fault events).

    The set deliberately does **not** expose ``batch_query``: the engine
    then dispatches every query individually, so each lands on its home
    backend (and budget exhaustion is observed per query, when stealing
    must kick in).
    """

    def __init__(
        self,
        backends: Iterable[BackendSpec | str],
        *,
        timeout: float = 30.0,
        max_retries: int = 8,
        client_factory: Callable[..., Any] | None = None,
        observer: Any | None = None,
    ) -> None:
        specs = tuple(
            spec if isinstance(spec, BackendSpec) else BackendSpec.parse(str(spec))
            for spec in backends
        )
        if not specs:
            raise EndpointSetError("an EndpointSet needs at least one backend")
        factory = client_factory or RemoteTopKInterface
        pool: list[_Backend] = []
        try:
            for spec in specs:
                kwargs: dict[str, Any] = {
                    "timeout": timeout,
                    "max_retries": max_retries,
                }
                if spec.api_key is not None:
                    kwargs["api_key"] = spec.api_key
                pool.append(_Backend(spec, factory(spec.url, **kwargs)))
            fingerprints = {b.client.endpoint_fingerprint for b in pool}
            if len(fingerprints) > 1:
                detail = ", ".join(
                    f"{b.spec.url} -> {b.client.endpoint_fingerprint}"
                    for b in pool
                )
                raise EndpointSetError(
                    f"backends disagree on endpoint identity ({detail}); a "
                    f"sharded crawl must fan out over mirrors of the *same* "
                    f"database"
                )
            # Same identity is not enough for *live* databases: mirrors
            # whose contents drifted apart (different data versions) would
            # merge answers computed against different tuple sets.
            versions = {
                int(getattr(b.client, "data_version", 0)) for b in pool
            }
            if len(versions) > 1:
                detail = ", ".join(
                    f"{b.spec.url} -> v{getattr(b.client, 'data_version', 0)}"
                    for b in pool
                )
                raise EndpointSetError(
                    f"backends disagree on data version ({detail}); mirrors "
                    f"of a live database must be mutated in lockstep before "
                    f"a sharded crawl fans out over them"
                )
        except BaseException:
            for backend in pool:
                close = getattr(backend.client, "close", None)
                if close is not None:
                    close()
            raise
        self._backends = tuple(pool)
        self._fingerprint = next(iter(fingerprints))
        self._data_version = next(iter(versions))
        self._lock = threading.Lock()
        self._observer: Any | None = None
        if observer is not None:
            self.attach_observer(observer)

    # ------------------------------------------------------------------
    # SearchEndpoint surface (what sessions and the crawl store read)
    # ------------------------------------------------------------------
    @property
    def schema(self):
        """Schema of the (identical) backends."""
        return self._backends[0].client.schema

    @property
    def k(self) -> int:
        """Top-k output limit of the backends."""
        return self._backends[0].client.k

    @property
    def service_name(self) -> str:
        """Service name the backends advertise (endpoint identity)."""
        return self._backends[0].client.service_name

    @property
    def ranking_label(self) -> str:
        """Ranking-function label of the backends (endpoint identity)."""
        return self._backends[0].client.ranking_label

    @property
    def fingerprint(self) -> str:
        """The shared endpoint fingerprint every backend was verified against."""
        return self._fingerprint

    @property
    def data_version(self) -> int:
        """The data version every backend agreed on when last verified.

        Highest version any backend has advertised since -- individual
        clients track skew from answer headers; call
        :meth:`refresh_data_version` to re-verify pool-wide agreement.
        """
        advertised = max(
            int(getattr(b.client, "data_version", 0)) for b in self._backends
        )
        return max(self._data_version, advertised)

    def refresh_data_version(self) -> int:
        """Re-read every backend's data version over ``/healthz`` (free).

        Raises :class:`EndpointSetError` when the mirrors disagree --
        a delta crawl must not revalidate a ledger against a pool that is
        mid-rollout.  Returns the agreed version.
        """
        versions: dict[str, int] = {}
        for b in self._backends:
            refresh = getattr(b.client, "refresh_data_version", None)
            if refresh is None:
                continue
            try:
                versions[b.spec.url] = int(refresh())
            except (RemoteServiceError, OSError) as exc:
                raise EndpointSetError(
                    f"cannot read data version from {b.spec.url}: {exc}"
                ) from exc
        if len(set(versions.values())) > 1:
            detail = ", ".join(
                f"{url} -> v{version}" for url, version in versions.items()
            )
            raise EndpointSetError(
                f"backends disagree on data version ({detail}); refusing to "
                f"crawl a pool that is mid-rollout"
            )
        if versions:
            self._data_version = next(iter(set(versions.values())))
        return self._data_version

    @property
    def queries_issued(self) -> int:
        """Billed queries across the whole pool -- the paper's cost metric."""
        return sum(b.client.queries_issued for b in self._backends)

    @property
    def retries(self) -> int:
        """Transport retries across the pool (health, not cost)."""
        return sum(b.client.retries for b in self._backends)

    def attach_observer(self, observer: Any | None) -> None:
        """Attach (or detach, with ``None``) a run observer.

        The set records shard routing / work stealing itself and forwards
        the observer to every backend client, so transport-level events
        (attempt, retry, fault) carry the same run's trace ids.
        """
        self._observer = observer
        for backend in self._backends:
            attach = getattr(backend.client, "attach_observer", None)
            if attach is not None:
                attach(observer)

    def set_replay_nonce(self, nonce: str | None) -> None:
        """Forward the session's deterministic request-id nonce to every
        backend, so a resumed crawl re-presents the ids its crashed
        incarnation used and each server replays already-billed answers
        free (sharding keeps ids on their home backend)."""
        for backend in self._backends:
            backend.client.set_replay_nonce(nonce)

    # ------------------------------------------------------------------
    # sharding + work stealing
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of pooled backends."""
        return len(self._backends)

    def shard_of(self, key: str) -> int:
        """Stable home-backend index for a canonical query key.

        CRC-32 rather than ``hash()``: identical across processes and
        Python invocations, so a resumed coordinator routes every query
        to the same mirror (whose replay cache remembers it).
        """
        return zlib.crc32(key.encode("utf-8")) % len(self._backends)

    def query(self, query: Query) -> QueryResult:
        """Answer ``query`` from its home backend (stealing if it cannot)."""
        home = self.shard_of(query.canonical_key())
        budget_error: Exception | None = None
        transport_error: Exception | None = None
        n = len(self._backends)
        for step in range(n):
            backend = self._backends[(home + step) % n]
            if backend.exhausted or backend.unhealthy:
                continue
            try:
                result = backend.client.query(query)
            except QueryBudgetExceeded as exc:
                with self._lock:
                    backend.exhausted = True
                    backend.error = exc
                budget_error = exc
                continue
            except RemoteServiceError as exc:
                with self._lock:
                    backend.unhealthy = True
                    backend.error = exc
                transport_error = exc
                continue
            if step:
                with self._lock:
                    backend.stolen += 1
            observer = self._observer
            if observer is not None:
                observer.shard_event(backend.spec.url, stolen=bool(step))
            return result
        # Nothing answered.  Prefer reporting budget exhaustion: it turns
        # the run into the standard partial anytime result (resumable when
        # budgets refresh) instead of a hard transport failure.
        if budget_error is None and transport_error is None:
            for backend in self._backends:  # flagged by earlier queries
                if backend.exhausted and backend.error is not None:
                    budget_error = backend.error
                elif backend.unhealthy and backend.error is not None:
                    transport_error = backend.error
        if budget_error is not None:
            raise budget_error
        if transport_error is not None:
            raise transport_error
        raise EndpointSetError("no healthy backend left in the pool")

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def take_throttle_signals(self) -> tuple[int, float]:
        """Pool-wide pressure since the last call: ``(count, 0.0)``.

        Adds up every backend client's 429/503/timeout count, so a
        ``workers="auto"`` drain over the pool backs off as one window.
        No ``Retry-After`` is reported: each client already sleeps out
        its own server's hint before retrying, and a pool-wide hold-off
        would let one throttled mirror stall dispatch to all the others.
        """
        count = sum(
            b.client.take_throttle_signals()[0] for b in self._backends
        )
        return count, 0.0

    def stats(self) -> list[dict[str, Any]]:
        """Per-backend share of this set's billed work (local counters)."""
        return [
            {
                "url": b.spec.url,
                "issued": b.client.queries_issued,
                "retries": b.client.retries,
                "stolen": b.stolen,
                "exhausted": b.exhausted,
                "unhealthy": b.unhealthy,
            }
            for b in self._backends
        ]

    def backend_status(self) -> list[dict[str, Any]]:
        """Liveness, identity and billing headroom of every backend.

        Uses only unbilled routes (``/healthz`` and ``/api/stats``), so a
        coordinator can poll it freely.
        """
        out: list[dict[str, Any]] = []
        for b in self._backends:
            key = b.spec.api_key or ANONYMOUS_KEY
            entry: dict[str, Any] = {
                "url": b.spec.url,
                "api_key": key,
                "issued": b.client.queries_issued,
                "stolen": b.stolen,
                "exhausted": b.exhausted,
                "unhealthy": b.unhealthy,
            }
            try:
                health = b.client.healthz()
                stats = b.client.server_stats()
            except (RemoteServiceError, OSError) as exc:
                entry["ok"] = False
                entry["error"] = str(exc)
            else:
                entry["ok"] = health.get("status") == "ok"
                entry["fingerprint"] = health.get("fingerprint")
                entry["data_version"] = health.get("data_version", 0)
                usage = (stats.get("keys") or {}).get(key) or {}
                entry["budget"] = usage.get("budget", stats.get("default_budget"))
                entry["remaining"] = usage.get("remaining")
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every backend client's connections (idempotent)."""
        for backend in self._backends:
            close = getattr(backend.client, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "EndpointSet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"EndpointSet({self.size} backends, fingerprint "
            f"{self._fingerprint[:8]}, issued={self.queries_issued})"
        )


__all__ = [
    "BackendSpec",
    "EndpointSet",
    "EndpointSetError",
]
