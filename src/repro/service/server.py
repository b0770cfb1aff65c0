"""HTTP server exposing a hidden database as a JSON top-k search API.

:class:`HiddenDBServer` wraps any :class:`~repro.hiddendb.table.Table` plus a
domination-consistent ranker in a :class:`~repro.service.front.JsonHttpFront`,
so the simulator can be crawled the way the paper's target sites are: over
the network, through a rate-limited search form, by concurrent clients.

Routes (all bodies JSON except ``/metrics``), as the route table lists them:

=========================  =====================================================
``GET  /api/schema``       public search-form metadata: schema, ``k``, name
``POST /api/query``        one conjunctive query; billed per ``X-Api-Key``
``POST /api/batch``        up to ``MAX_BATCH_ITEMS`` queries in one round
                           trip; billed, validated and fault-injected per
                           item (latency is drawn per item but slept once,
                           at the per-batch maximum -- one round trip)
``GET  /api/stats``        billing counters (total, per key incl. configured
                           budgets and remaining headroom, faults injected),
                           uptime, in-flight requests, per-key HTTP totals
``GET  /metrics``          the same counters plus a request-latency
                           histogram by matched route, in Prometheus text
                           format
``POST /api/mutate``       operator action: apply an insert/delete/update
                           batch (``{"ops": [...]}``) or deterministic
                           churn (``{"churn": {"frac", "seed"}}``) to the
                           served table; unbilled, bumps ``data_version``
``POST /api/reset``        ops/test helper: clear billing counters (all
                           keys, or the string ``api_key`` named)
``GET  /healthz``          liveness probe carrying the endpoint fingerprint
                           (CI boot check, coordinator shard verification)
=========================  =====================================================

Live databases advertise a monotonic ``data_version`` (the table's
mutation counter) in ``/api/schema``, ``/api/stats``, ``/healthz`` and as
an ``X-Data-Version`` header on every fresh answer, so clients detect
endpoint churn without a billed probe.  The fingerprint deliberately does
*not* fold the version in: identity ("same database?") and freshness
("same contents?") are separate questions.

The query endpoint reproduces the in-process
:class:`~repro.hiddendb.interface.TopKInterface` contract exactly --
validate first, then check the caller's budget, then bill and execute -- so
a remote run is query-for-query identical to a local one.  Error responses
carry ``{"error", "retriable"}``; injected faults (configured via
:class:`~repro.service.faults.FaultConfig`) are retriable and never billed,
while ``budget_exceeded`` (HTTP 429) and ``unsupported_query`` (HTTP 400)
are terminal and map back onto the simulator's exceptions client-side.

Billing is retry-safe: a request carrying an ``X-Request-Id`` header that
was already billed gets its answer *replayed* instead of re-executed, so a
client whose response was lost in transit (timeout, connection reset after
the server charged the query) can retry without being billed twice.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping

from ..datagen.mutations import churn_ops, validate_ops
from ..hiddendb.errors import UnsupportedQueryError
from ..hiddendb.dataplane import default_ranker, make_engine
from ..hiddendb.ranking import Ranker
from ..hiddendb.table import Table
from .faults import FaultConfig, FaultInjector
from .front import (
    Handler,
    JsonHttpFront,
    Reply,
    ServiceStartupError,
    error_reply,
)
from .wire import (
    decode_query,
    encode_answer,
    encode_batch_item,
    encode_schema,
    endpoint_fingerprint,
)

logger = logging.getLogger("repro.service")

#: Billing identity assumed when a request carries no ``X-Api-Key`` header.
ANONYMOUS_KEY = "anonymous"

#: Billed answers remembered for idempotent replay, per server.
REPLAY_CAPACITY = 4096

#: Longest a duplicate request waits for the in-flight original to finish
#: before being processed as fresh (only reachable when injected latency
#: exceeds the client's timeout).
INFLIGHT_WAIT_SECONDS = 60.0

#: Most queries accepted in one ``/api/batch`` round trip.
MAX_BATCH_ITEMS = 256

#: ``Retry-After`` seconds named on load-shedding 503s (the concurrency
#: cap has no token-refill deadline to be honest about, so the server
#: names a short fixed pause instead).
LOAD_SHED_RETRY_AFTER = 0.05


@dataclass(frozen=True)
class KeyUsage:
    """Billing state of one API key."""

    key: str
    issued: int
    budget: int | None

    @property
    def remaining(self) -> int | None:
        """Queries left before 429s start (``None`` = unlimited)."""
        if self.budget is None:
            return None
        return max(self.budget - self.issued, 0)


@dataclass(frozen=True)
class ServerStats:
    """Aggregate billing counters of a :class:`HiddenDBServer`."""

    queries_total: int
    faults_injected: int
    keys: tuple[KeyUsage, ...]
    #: Budget assumed for keys without a per-key override (``None`` =
    #: unlimited).
    default_budget: int | None = None

    def usage(self, key: str) -> KeyUsage | None:
        """Usage record of ``key``, or ``None`` if it never queried."""
        for usage in self.keys:
            if usage.key == key:
                return usage
        return None


class _Billing:
    """Thread-safe per-key query counters with budget enforcement."""

    def __init__(
        self, default_budget: int | None, budgets: Mapping[str, int | None]
    ) -> None:
        self._default_budget = default_budget
        self._budgets = dict(budgets)
        self._issued: dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def default_budget(self) -> int | None:
        return self._default_budget

    def budget_of(self, key: str) -> int | None:
        return self._budgets.get(key, self._default_budget)

    def charge(self, key: str) -> int | None:
        """Bill one query to ``key``; its 1-based sequence, or ``None`` when
        the budget is exhausted (nothing is billed then)."""
        budget = self.budget_of(key)
        with self._lock:
            issued = self._issued.get(key, 0)
            if budget is not None and issued >= budget:
                return None
            self._issued[key] = issued + 1
            return issued + 1

    def reset(self, key: str | None = None) -> None:
        with self._lock:
            if key is None:
                self._issued.clear()
            else:
                self._issued.pop(key, None)

    def snapshot(self) -> tuple[int, tuple[KeyUsage, ...]]:
        with self._lock:
            issued = dict(self._issued)
        # Keys with configured budget overrides are reported even before
        # their first query: the coordinator sizes shard budgets from
        # this snapshot *without* issuing a billed probe.
        for key in self._budgets:
            issued.setdefault(key, 0)
        keys = tuple(
            KeyUsage(key=key, issued=count, budget=self.budget_of(key))
            for key, count in sorted(issued.items())
        )
        return sum(issued.values()), keys


class _TokenBucket:
    """Thread-safe per-key token bucket (``rate`` tokens/s, ``burst`` cap).

    Each key starts with a full bucket; a request takes one token.  When
    the bucket is empty :meth:`acquire` returns the honest number of
    seconds until a token refills -- exactly what the server advertises
    as ``Retry-After`` -- so a well-behaved client never has to guess.
    """

    def __init__(
        self, rate: float, burst: int, clock=time.monotonic
    ) -> None:
        self._rate = float(rate)
        self._burst = float(burst)
        self._clock = clock
        #: key -> (tokens remaining, stamp of the last refill).
        self._buckets: dict[str, tuple[float, float]] = {}
        self._lock = threading.Lock()

    def acquire(self, key: str) -> float:
        """Take one token for ``key``; ``0.0`` on success, else seconds
        until the next token is available."""
        now = self._clock()
        with self._lock:
            tokens, stamp = self._buckets.get(key, (self._burst, now))
            tokens = min(self._burst, tokens + (now - stamp) * self._rate)
            if tokens >= 1.0:
                self._buckets[key] = (tokens - 1.0, now)
                return 0.0
            self._buckets[key] = (tokens, now)
            return (1.0 - tokens) / self._rate

    def reset(self, key: str | None = None) -> None:
        with self._lock:
            if key is None:
                self._buckets.clear()
            else:
                self._buckets.pop(key, None)


class HiddenDBServer(JsonHttpFront):
    """Serve a table + ranker as a networked top-k search interface.

    Parameters
    ----------
    table:
        The hidden data.
    ranker:
        Domination-consistent ranking function (default: unit-weight SUM).
    k:
        Top-k output limit of the search form.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` / :attr:`url` after :meth:`start`).
    key_budget:
        Default per-API-key query budget (``None`` = unlimited), mirroring
        per-IP / per-API-key limits of real sites.
    budgets:
        Per-key overrides of ``key_budget``.
    faults:
        Optional :class:`FaultConfig` injecting latency jitter and retriable
        429/5xx errors on the query endpoint.
    rate_limit:
        Per-API-key sustained query rate in QPS, enforced with a token
        bucket (``None`` = unlimited).  Requests over the rate get a 429
        with an honest ``Retry-After`` naming the seconds until the next
        token refills.
    burst:
        Token-bucket capacity: how many queries a key may issue
        back-to-back before the sustained ``rate_limit`` applies.
        Defaults to ``max(1, round(rate_limit))``.
    max_inflight:
        Server-wide concurrency cap on query handling (``None`` =
        unbounded).  Excess load is shed with a retriable 503.
    validate:
        Enforce the per-attribute interface taxonomy (leave on).
    name:
        Service name reported by ``/api/schema`` and ``/api/stats``.
    engine:
        Serving engine (:mod:`repro.hiddendb.dataplane`): ``auto`` picks
        the fastest bit-identical path for the table/ranker pair -- the
        SQL-native index walk for a :class:`~repro.hiddendb.sqltable.
        SQLTable` under its persisted ranking, the rank-ordered in-memory
        scan otherwise.
    """

    def __init__(
        self,
        table: Table,
        ranker: Ranker | None = None,
        *,
        k: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        key_budget: int | None = None,
        budgets: Mapping[str, int | None] | None = None,
        faults: FaultConfig | None = None,
        rate_limit: float | None = None,
        burst: int | None = None,
        max_inflight: int | None = None,
        validate: bool = True,
        name: str = "hidden-db",
        engine: str = "auto",
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if key_budget is not None and key_budget < 0:
            raise ValueError(f"key_budget must be >= 0, got {key_budget}")
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be > 0, got {rate_limit}")
        if burst is not None:
            if rate_limit is None:
                raise ValueError("burst requires rate_limit")
            if burst < 1:
                raise ValueError(f"burst must be >= 1, got {burst}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        super().__init__(host, port, metrics_prefix="hiddendb", log=logger)
        self._table = table
        self._ranker = ranker if ranker is not None else default_ranker(table)
        self._engine = make_engine(table, self._ranker, engine)
        self._k = k
        self._billing = _Billing(key_budget, budgets or {})
        self._injector = (
            FaultInjector(faults) if faults is not None and faults.active else None
        )
        # Traffic shaping: per-key token bucket + server-wide concurrency
        # cap.  Throttled requests are never billed and never replay-cached.
        self._limiter = (
            _TokenBucket(rate_limit, burst if burst is not None
                         else max(1, round(rate_limit)))
            if rate_limit is not None
            else None
        )
        self._max_inflight = max_inflight
        self._active_queries = 0
        self._shape_lock = threading.Lock()
        self._validate = validate
        self._name = name
        self._schema_payload = encode_schema(table.schema)
        # Answers already billed, keyed by (api key, client request id): a
        # client that lost the response retries the same id and gets the
        # answer replayed instead of being billed twice.
        self._replay: OrderedDict[tuple[str, str], Reply] = OrderedDict()
        # Request ids currently being processed: a duplicate (client retry
        # racing its own timed-out original) waits for the original instead
        # of double-billing the query.
        self._inflight: dict[tuple[str, str], threading.Event] = {}
        self._replay_lock = threading.Lock()
        # Billing counters in the front's metrics scope *shadow* (never
        # replace) the authoritative _Billing ledger: metrics are monotone
        # across /api/reset, billing is not.
        self._m_requests = self._metrics.counter(
            "hiddendb_requests_total",
            "HTTP requests received, by API key.",
            ("key",),
        )
        self._m_latency = self._metrics.histogram(
            "hiddendb_request_latency_seconds",
            "Wall-clock request handling latency, by route.",
            ("route",),
        )
        self._m_billed = self._metrics.counter(
            "hiddendb_queries_billed_total",
            "Queries billed against a key's budget.",
            ("key",),
        )
        self._m_replayed = self._metrics.counter(
            "hiddendb_queries_replayed_total",
            "Billed answers replayed for retried request ids, by API key.",
            ("key",),
        )
        self._m_faulted = self._metrics.counter(
            "hiddendb_queries_faulted_total",
            "Injected retriable faults returned, by API key.",
            ("key",),
        )
        self._m_scan = self._metrics.histogram(
            "hiddendb_table_scan_seconds",
            "Top-k answer computation latency, by serving engine.",
            ("engine",),
        )
        self._m_mutations = self._metrics.counter(
            "hiddendb_mutations_applied_total",
            "Mutation operations applied through /api/mutate.",
        )
        self._m_throttled = self._metrics.counter(
            "hiddendb_server_throttled_total",
            "Queries throttled (429 rate limit / 503 load shed), by API key.",
            ("key",),
        )
        self._m_version = self._metrics.gauge(
            "hiddendb_data_version",
            "Monotonic data version of the served table.",
        )
        self._m_version.set(float(self.data_version))
        # /api/mutate batches serialize here: concurrent operator batches
        # would otherwise interleave their table rebuilds.
        self._mutate_lock = threading.Lock()

    def start(self) -> "HiddenDBServer":
        """Bind the socket and serve from a daemon thread; returns ``self``."""
        super().start()
        logger.info("serving %s (n=%d, k=%d) at %s",
                    self._name, self._table.n, self._k, self.url)
        return self

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Top-k output limit of the served search form."""
        return self._k

    @property
    def name(self) -> str:
        """Service name."""
        return self._name

    @property
    def engine(self) -> str:
        """Name of the serving engine answering queries (``scan`` /
        ``rank`` / ``sqlite``)."""
        return self._engine.label

    @property
    def data_version(self) -> int:
        """Monotonic mutation counter of the served table (0 = never
        mutated).  Advertised on every metadata route and answer header;
        deliberately *not* part of :attr:`fingerprint`."""
        return int(getattr(self._table, "data_version", 0))

    @property
    def fingerprint(self) -> str:
        """Endpoint identity hash (schema + ``k`` + name + ranking).

        The same value the remote client derives from ``/api/schema`` and
        the crawl store keys its ledger by; advertised on ``/healthz`` and
        ``/api/schema`` so a coordinator can verify that every backend of
        a shard set serves the *same* hidden database without issuing a
        billed query.
        """
        return endpoint_fingerprint(
            self._table.schema, self._k, self._name, self._ranker.describe()
        )

    def health(self) -> dict[str, Any]:
        """Liveness view served at ``GET /healthz``."""
        return {
            "status": "ok",
            "name": self._name,
            "fingerprint": self.fingerprint,
            "data_version": self.data_version,
        }

    def stats(self) -> ServerStats:
        """Current billing counters."""
        total, keys = self._billing.snapshot()
        injected = self._injector.injected if self._injector is not None else 0
        return ServerStats(
            queries_total=total,
            faults_injected=injected,
            keys=keys,
            default_budget=self._billing.default_budget,
        )

    def reset_billing(self, key: str | None = None) -> None:
        """Clear billing counters (ops/test helper; all keys by default).

        Also drops the matching request-id replay entries: after a reset,
        a retried pre-reset id must be billed as a fresh query, not
        replayed unbilled with a stale sequence number.
        """
        self._billing.reset(key)
        with self._replay_lock:
            if key is None:
                self._replay.clear()
            else:
                for replay_key in [
                    k for k in self._replay if k[0] == key
                ]:
                    del self._replay[replay_key]

    # ------------------------------------------------------------------
    # request handling (called from handler threads)
    # ------------------------------------------------------------------
    def _route_table(self) -> dict[tuple[str, str], Handler]:
        return {
            ("GET", "/api/schema"): lambda r: self._handle_schema(),
            ("POST", "/api/query"): lambda r: self._handle_query(
                r.payload, _api_key(r.headers), r.headers.get("x-request-id")
            ),
            ("POST", "/api/batch"): lambda r: self._handle_batch(
                r.payload, _api_key(r.headers)
            ),
            ("GET", "/api/stats"): lambda r: self._handle_stats(),
            ("GET", "/metrics"): lambda r: self.metrics_payload(),
            ("POST", "/api/mutate"): lambda r: self._handle_mutate(r.payload),
            ("POST", "/api/reset"): lambda r: self._handle_reset(r.payload),
            ("GET", "/healthz"): lambda r: (200, self.health(), {}),
        }

    def _account(self, route: str, headers: Any, elapsed: float) -> None:
        self._m_requests.inc(key=_api_key(headers))
        self._m_latency.observe(elapsed, route=route)

    def _handle_schema(self) -> Reply:
        return (
            200,
            {
                "name": self._name,
                "k": self._k,
                "schema": self._schema_payload,
                # Ranking identity: folded into crawl-store endpoint
                # fingerprints so differently-ranked services never share
                # a query ledger.
                "ranking": self._ranker.describe(),
                # Server-computed identity hash; clients re-derive it from
                # the fields above, shard sets verify the two agree.
                "fingerprint": self.fingerprint,
                # Capability advertisement: clients that see this pack
                # frontier waves into /api/batch round trips.
                "batch": True,
                "max_batch": MAX_BATCH_ITEMS,
                # Freshness: bumped once per applied mutation batch.
                "data_version": self.data_version,
            },
            {},
        )

    def _handle_stats(self) -> Reply:
        stats = self.stats()
        uptime = self.uptime_s
        # HTTP request totals (all routes, incl. unbilled stats/schema
        # probes) complement the *billed* counters in ``keys``.
        requests = {
            labels[0]: int(value)
            for labels, value in self._m_requests.samples()
        }
        return (
            200,
            {
                "name": self._name,
                "engine": self._engine.label,
                "data_version": self.data_version,
                "uptime_s": round(uptime, 3) if uptime is not None else None,
                "in_flight": int(self._m_inflight.value()),
                "queries_total": stats.queries_total,
                "faults_injected": stats.faults_injected,
                "default_budget": stats.default_budget,
                "requests": requests,
                "keys": {
                    usage.key: {
                        "issued": usage.issued,
                        "budget": usage.budget,
                        "remaining": usage.remaining,
                    }
                    for usage in stats.keys
                },
            },
            {},
        )

    def _handle_reset(self, payload: Mapping[str, Any]) -> Reply:
        api_key = payload.get("api_key")
        if api_key is not None and not isinstance(api_key, str):
            return error_reply(
                400, "bad_request", "api_key must be a string or null"
            )
        self.reset_billing(api_key)
        return self._handle_stats()

    def _handle_mutate(self, payload: Mapping[str, Any]) -> Reply:
        """Apply an operator mutation batch to the served table.

        Accepts either an explicit ``{"ops": [...]}`` batch or
        ``{"churn": {"frac": F, "seed": S}}``, which draws the
        deterministic :func:`~repro.datagen.mutations.churn_ops` batch
        server-side (the wire then carries two numbers instead of
        thousands of ops).  Mutations are an operator action: they are
        never billed and never count against any key's budget.
        """
        apply = getattr(self._table, "apply_mutations", None)
        if apply is None:
            return error_reply(
                400,
                "mutations_unsupported",
                f"table {type(self._table).__name__} does not support "
                "mutations",
            )
        ops = payload.get("ops")
        churn = payload.get("churn")
        if (ops is None) == (churn is None):
            return error_reply(
                400, "bad_request", "exactly one of ops or churn is required"
            )
        try:
            with self._mutate_lock:
                if churn is not None:
                    if not isinstance(churn, Mapping) or "frac" not in churn:
                        raise ValueError("churn must be an object with frac")
                    batch = churn_ops(
                        self._table,
                        float(churn["frac"]),
                        int(churn.get("seed", 0)),
                    )
                else:
                    batch = validate_ops(ops)
                applied = int(apply(batch))
        except (KeyError, TypeError, ValueError) as exc:
            return error_reply(400, "bad_mutation", str(exc))
        version = self.data_version
        self._m_mutations.inc(applied)
        self._m_version.set(float(version))
        logger.info(
            "%s: applied %d mutations, data_version=%d",
            self._name, applied, version,
        )
        return (
            200,
            {"applied": applied, "data_version": version},
            {"X-Data-Version": str(version)},
        )

    def _handle_query(
        self,
        payload: Mapping[str, Any],
        api_key: str,
        request_id: str | None = None,
        inject: bool = True,
    ) -> Reply:
        if request_id is None:
            return self._answer_query(payload, api_key, None, inject=inject)
        replay_key = (api_key, request_id)
        while True:
            with self._replay_lock:
                replayed = self._replay.get(replay_key)
                if replayed is None:
                    pending = self._inflight.get(replay_key)
                    if pending is None:
                        self._inflight[replay_key] = threading.Event()
                        break
            if replayed is not None:
                self._m_replayed.inc(key=api_key)
                return replayed
            # The original request is still being processed (e.g. sleeping
            # in injected latency past the client's timeout): wait for it
            # and replay its answer rather than billing a second time.
            if not pending.wait(INFLIGHT_WAIT_SECONDS):
                return (
                    503,
                    {"error": "in_flight_timeout", "retriable": True},
                    {"Retry-After": "0"},
                )
        try:
            return self._answer_query(payload, api_key, replay_key, inject=inject)
        finally:
            with self._replay_lock:
                event = self._inflight.pop(replay_key, None)
            if event is not None:
                event.set()

    def _peek_replay(self, api_key: str, request_id: str | None) -> Reply | None:
        """Already-billed answer for ``request_id``, if one is cached."""
        if request_id is None:
            return None
        with self._replay_lock:
            return self._replay.get((api_key, request_id))

    def _handle_batch(self, payload: Mapping[str, Any], api_key: str) -> Reply:
        """Answer a batch of queries in one round trip.

        Every item goes through the same pipeline as ``/api/query`` --
        replay for already-billed request ids, per-item fault draws,
        per-item validation and billing -- but injected *latency* is slept
        once at the per-batch maximum: a batch models one round trip whose
        items the upstream site processes concurrently, which is exactly
        the economy batching exists to exploit.
        """
        items = payload.get("items")
        if not isinstance(items, list) or not items:
            return error_reply(
                400, "bad_request", "items must be a non-empty list"
            )
        if len(items) > MAX_BATCH_ITEMS:
            return (
                400,
                {"error": "batch_too_large", "limit": MAX_BATCH_ITEMS,
                 "retriable": False},
                {},
            )
        outcomes: list[Reply | None] = [None] * len(items)
        fresh: list[int] = []
        max_delay = 0.0
        for index, item in enumerate(items):
            if not isinstance(item, Mapping):
                outcomes[index] = error_reply(
                    400, "bad_request", "item must be an object"
                )
                continue
            request_id = item.get("id")
            request_id = str(request_id) if request_id is not None else None
            replayed = self._peek_replay(api_key, request_id)
            if replayed is not None:
                # Replays (client retries of billed items) neither redraw
                # faults nor pay latency again.
                self._m_replayed.inc(key=api_key)
                outcomes[index] = replayed
                continue
            if self._injector is not None:
                delay, code = self._injector.draw()
                max_delay = max(max_delay, delay)
                if code is not None:
                    self._m_faulted.inc(key=api_key)
                    outcomes[index] = (
                        code,
                        {"error": "injected_fault", "retriable": True},
                        {"Retry-After": "0"},
                    )
                    continue
            fresh.append(index)
        if max_delay > 0.0:
            time.sleep(max_delay)
        for index in fresh:
            item = items[index]
            request_id = item.get("id")
            outcomes[index] = self._handle_query(
                {"query": item.get("query")},
                api_key,
                str(request_id) if request_id is not None else None,
                inject=False,
            )
        body = {
            "items": [
                encode_batch_item(status, item_body)
                for status, item_body, _headers in outcomes
            ]
        }
        return 200, body, {}

    def _admit(self, api_key: str) -> Reply | None:
        """Traffic-shaping admission: ``None`` to proceed (an in-flight
        slot is then held and must be released), else the throttle
        response.  Throttled queries are never billed, never replayed,
        and never draw injected faults."""
        with self._shape_lock:
            if (
                self._max_inflight is not None
                and self._active_queries >= self._max_inflight
            ):
                self._m_throttled.inc(key=api_key)
                return (
                    503,
                    {
                        "error": "overloaded",
                        "retriable": True,
                        "retry_after": LOAD_SHED_RETRY_AFTER,
                    },
                    {"Retry-After": f"{LOAD_SHED_RETRY_AFTER:.3f}"},
                )
            self._active_queries += 1
        if self._limiter is not None:
            wait = self._limiter.acquire(api_key)
            if wait > 0.0:
                with self._shape_lock:
                    self._active_queries -= 1
                self._m_throttled.inc(key=api_key)
                return (
                    429,
                    {
                        "error": "rate_limited",
                        "retriable": True,
                        "retry_after": round(wait, 4),
                    },
                    {"Retry-After": f"{wait:.3f}"},
                )
        return None

    def _answer_query(
        self,
        payload: Mapping[str, Any],
        api_key: str,
        replay_key: tuple[str, str] | None,
        inject: bool = True,
    ) -> Reply:
        if self._limiter is None and self._max_inflight is None:
            return self._serve_query(payload, api_key, replay_key, inject=inject)
        throttled = self._admit(api_key)
        if throttled is not None:
            return throttled
        try:
            return self._serve_query(payload, api_key, replay_key, inject=inject)
        finally:
            with self._shape_lock:
                self._active_queries -= 1

    def _serve_query(
        self,
        payload: Mapping[str, Any],
        api_key: str,
        replay_key: tuple[str, str] | None,
        inject: bool = True,
    ) -> Reply:
        if inject and self._injector is not None:
            delay, code = self._injector.draw()
            if delay > 0.0:
                time.sleep(delay)
            if code is not None:
                self._m_faulted.inc(key=api_key)
                return (
                    code,
                    {"error": "injected_fault", "retriable": True},
                    {"Retry-After": "0"},
                )
        try:
            query = decode_query(payload.get("query"))
        except (KeyError, TypeError, ValueError) as exc:
            return error_reply(400, "bad_request", str(exc))
        if self._validate:
            try:
                query.validate(self._table.schema)
            except UnsupportedQueryError as exc:
                return error_reply(400, "unsupported_query", str(exc))
        sequence = self._billing.charge(api_key)
        if sequence is None:
            limit = self._billing.budget_of(api_key)
            return (
                429,
                {"error": "budget_exceeded", "limit": limit, "retriable": False},
                {"X-Budget-Remaining": "0"},
            )
        self._m_billed.inc(key=api_key)
        scan_started = time.perf_counter()
        rows = self._engine.top_rows(query, self._k)
        self._m_scan.observe(
            time.perf_counter() - scan_started, engine=self._engine.label
        )
        body = encode_answer(rows, overflow=len(rows) == self._k, sequence=sequence)
        budget = self._billing.budget_of(api_key)
        # The version the answer was computed against: replayed answers
        # keep the header they were billed with, so a replay after churn
        # correctly reports the (older) version of its cached rows.
        headers = {
            "X-Queries-Issued": str(sequence),
            "X-Data-Version": str(self.data_version),
        }
        if budget is not None:
            headers["X-Budget-Remaining"] = str(max(budget - sequence, 0))
        if replay_key is not None:
            with self._replay_lock:
                self._replay[replay_key] = (200, body, headers)
                while len(self._replay) > REPLAY_CAPACITY:
                    self._replay.popitem(last=False)
        return 200, body, headers

    def __repr__(self) -> str:
        state = "running" if self._httpd is not None else "stopped"
        return (
            f"HiddenDBServer({self._name}: n={self._table.n}, k={self._k}, "
            f"{state} at {self.url})"
        )


def _api_key(headers: Mapping[str, str]) -> str:
    """The billing identity a request names (``X-Api-Key``)."""
    return headers.get("x-api-key") or ANONYMOUS_KEY


__all__ = [
    "ANONYMOUS_KEY",
    "HiddenDBServer",
    "KeyUsage",
    "MAX_BATCH_ITEMS",
    "ServerStats",
    "ServiceStartupError",
]
