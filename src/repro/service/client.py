"""Remote search endpoint: one client protocol, two transports.

A remote client implements the
:class:`~repro.hiddendb.endpoint.SearchEndpoint` protocol over HTTP, so any
registered discovery algorithm crawls a networked
:class:`~repro.service.server.HiddenDBServer` (or anything speaking the same
wire format) without per-algorithm changes.  The protocol is written once,
as coroutines of :class:`QueryClientCore`, and never touches a socket:

* **billed once** -- every logical query carries one ``X-Request-Id``
  across all its attempts, so the server replays an already-billed answer
  instead of charging it again; durable crawls derive the id from a
  session nonce so the guarantee survives process restarts;
* **retry with exponential backoff** -- retriable failures (injected
  429/5xx faults, connection resets) are retried up to ``max_retries``
  times, each sleep floored by the server's ``Retry-After``; terminal
  errors map back onto the simulator's exceptions (``budget_exceeded`` ->
  :class:`QueryBudgetExceeded`, ``unsupported_query`` ->
  :class:`UnsupportedQueryError`), so algorithm code cannot tell a remote
  run from a local one;
* **no answer reuse** -- every query goes over the wire.  Reusing a
  paid-for answer is the execution engine's job: its memo within a run
  (``DiscoveryConfig(dedup=True)``) and a crawl-store ledger across runs
  (``DiscoveryConfig(store=...)``);
* **batched round trips** -- ``batch_query()`` sends a frontier wave as
  one ``POST /api/batch`` with per-item billing and retries, and a
  terminal failure carries every paid-for answer as ``partial_results``.

A transport contributes one HTTP round trip (``_exchange``), the backoff
sleeper and a way to run a protocol coroutine.  :class:`RemoteTopKInterface`
is the blocking transport: thread-local keep-alive ``http.client``
connections, with coroutines run to completion in one ``send`` in the
calling thread (:func:`~repro.hiddendb.endpoint.run_inline`) because its
hooks never suspend.  The asyncio transport is
:class:`~repro.service.aclient.AsyncRemoteTopKInterface`, whose event loop
runs on the thread that waits on it.  Counters are lock-guarded, so a
``workers > 1`` strategy's thread pool may drive one blocking client from
several threads.
"""

from __future__ import annotations

import http.client
import inspect
import json
import math
import socket
import threading
import time
import urllib.parse
import uuid
from typing import Any, Awaitable, Callable, Coroutine, Mapping, Sequence

from ..hiddendb.attributes import Schema
from ..hiddendb.endpoint import run_inline
from ..hiddendb.errors import (
    HiddenDBError,
    QueryBudgetExceeded,
    UnsupportedQueryError,
)
from ..hiddendb.interface import QueryResult
from ..hiddendb.query import Query, query_fingerprint
from .server import ANONYMOUS_KEY, MAX_BATCH_ITEMS
from .wire import (
    decode_answer,
    decode_batch_answer,
    decode_schema,
    encode_batch_request,
    encode_query,
    endpoint_fingerprint,
)

#: Ceiling on a server-supplied ``Retry-After`` hint actually slept
#: (protection against a hostile or misconfigured header; the per-attempt
#: exponential backoff has its own much smaller ``backoff_cap``).
RETRY_AFTER_CAP = 30.0


def _parse_retry_after(value: "str | float | None") -> float | None:
    """``Retry-After`` header/body value -> seconds (``None`` if absent
    or malformed, non-finite included; negative values clamp to 0)."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    if not math.isfinite(seconds):
        return None
    return max(0.0, seconds)


class RemoteServiceError(HiddenDBError):
    """The remote service could not be reached or kept failing.

    Raised when the transport fails terminally: connection refused with no
    retries left, retriable errors past ``max_retries``, or a malformed /
    unexpected response.  ``status`` carries the last HTTP status code seen,
    if any.
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class QueryClientCore:
    """The remote hidden-DB client protocol, written once.

    Everything that must behave *identically* whether the wire is driven
    by blocking sockets (:class:`RemoteTopKInterface`) or an asyncio
    event loop (:class:`~repro.service.aclient.AsyncRemoteTopKInterface`)
    lives here: the single-query path, the batch loop and its
    ``partial_results`` contract, the retry loop, the response tail
    (budget and data-version headers, error classification,
    ``Retry-After``, JSON body), the operator calls, deterministic
    ``X-Request-Id`` replay derivation and the telemetry counters.  The
    protocol runs as coroutines that only ever await the transport.

    Subclasses contribute only transport: :meth:`_exchange` (one HTTP
    round trip), a ``sleep`` callable for backoff (awaited when it returns
    an awaitable), :meth:`_run` (drive a protocol coroutine to completion
    for the blocking surface) and their connection lifecycle (``close``).
    """

    def _init_core(
        self,
        url: str,
        *,
        api_key: str,
        timeout: float,
        max_retries: int,
        backoff: float,
        backoff_cap: float,
        replay_nonce: str | None,
        sleep: Callable[[float], Awaitable[None] | None],
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._url = url.rstrip("/")
        split = urllib.parse.urlsplit(self._url)
        if split.scheme not in ("http", "https") or not split.hostname:
            raise ValueError(f"url must be http(s)://host[:port], got {url!r}")
        self._scheme = split.scheme
        self._netloc = split.netloc
        self._host = split.hostname
        self._port = split.port or (443 if split.scheme == "https" else 80)
        #: Guards the billable/retry counters.
        self._lock = threading.Lock()
        self._api_key = api_key
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._sleep = sleep
        self._replay_nonce = replay_nonce or None
        self._count = 0
        self._retries = 0
        self._throttled = 0
        #: Pressure accumulator drained by ``take_throttle_signals()``:
        #: 429/503/timeout signals (and the max ``Retry-After`` seen)
        #: since the last drain, feeding the engine's AIMD window.
        self._pressure_events = 0
        self._pressure_retry_after = 0.0
        self._budget_remaining: int | None = None
        self._data_version = 0
        self._version_skews = 0
        self._schema: Schema | None = None
        self._k = 0
        self._service_name = ""
        self._ranking_label = ""
        self._supports_batch = False
        self._max_batch = MAX_BATCH_ITEMS
        #: Observability hook (:class:`repro.obs.RunObserver`), bound by a
        #: traced session via :meth:`attach_observer`; ``None`` keeps every
        #: instrumentation site a single is-not-None check.
        self._observer = None

    def _fetch_metadata(self) -> None:
        """Fetch the ``/api/schema`` bootstrap payload and fold it in."""
        metadata = self._run(self._request("GET", "/api/schema"))
        self._schema = decode_schema(metadata["schema"])
        self._k = int(metadata["k"])
        self._service_name = str(metadata.get("name", ""))
        self._ranking_label = str(metadata.get("ranking", ""))
        self._supports_batch = bool(metadata.get("batch", False))
        self._max_batch = int(metadata.get("max_batch", MAX_BATCH_ITEMS))
        self._data_version = int(metadata.get("data_version", 0))

    # ------------------------------------------------------------------
    # SearchEndpoint metadata surface
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The served search form's schema (fetched at construction)."""
        assert self._schema is not None
        return self._schema

    @property
    def k(self) -> int:
        """Top-k output limit of the remote search form."""
        return self._k

    @property
    def queries_issued(self) -> int:
        """Billable queries this client sent."""
        return self._count

    # ------------------------------------------------------------------
    # replay ids and counters (lock-guarded: workers share one client)
    # ------------------------------------------------------------------
    def set_replay_nonce(self, nonce: str | None) -> None:
        """Derive ``X-Request-Id`` deterministically from ``nonce`` + query.

        Called by a durable :class:`~repro.core.base.DiscoverySession`
        with its crawl session's persistent nonce: a resumed crawl then
        re-presents the exact ids of its crashed incarnation, and queries
        the server billed whose answers never reached the store are
        replayed free instead of billed twice.  ``None`` restores random
        per-query ids.
        """
        with self._lock:
            self._replay_nonce = nonce or None

    def attach_observer(self, observer) -> None:
        """Bind (or with ``None`` detach) a :class:`repro.obs.RunObserver`.

        Called -- duck-typed, like :meth:`set_replay_nonce` -- by a traced
        :class:`~repro.core.base.DiscoverySession`.  While bound, the
        client emits transport lifecycle events (attempt / retry / fault /
        billed) and stamps every wire request with
        the observer's deterministic ``X-Trace-Id``, so server access logs
        correlate with the engine-side spans of the same logical query.
        """
        with self._lock:
            self._observer = observer

    def _trace_id(self, query: Query) -> str | None:
        """Wire trace id for ``query`` (``None`` with no observer bound)."""
        observer = self._observer
        if observer is None:
            return None
        return observer.trace_id(query)

    def _request_id(self, query: Query) -> str:
        nonce = self._replay_nonce
        if nonce is None:
            return uuid.uuid4().hex
        return f"{nonce}-{query_fingerprint(query)}"

    def _count_billed(self, query: Query | None = None) -> None:
        with self._lock:
            self._count += 1
        # "client_billed", not "billed": the engine's note_answer hook owns
        # the canonical billed span, which stays 1:1 with total_cost --
        # this side records the counter only.
        if self._observer is not None:
            self._observer.client_event("client_billed", query, span=False)

    def _count_retry(
        self, query: Query | None = None, trace_id: str | None = None
    ) -> None:
        with self._lock:
            self._retries += 1
        if self._observer is not None:
            self._observer.client_event("retry", query, trace_id=trace_id)

    def _note_throttle(self, exc: "_Retriable") -> None:
        """Record a throttle-class failure (429/503/transport timeout).

        Only these count as *window pressure* for the adaptive engine;
        other retriable statuses (502/504 relay hiccups) are retried but
        do not shrink the in-flight window.

        Only a 429's ``Retry-After`` becomes a *dispatch hold-off*: it
        names a token-refill deadline the whole client should pace on.
        A load-shed 503 is a transient concurrency signal -- answered by
        shrinking the window, not by stalling it -- so its hint floors
        this request's retry sleep but never gates the other workers.
        The hold-off is capped like the sleep (:data:`RETRY_AFTER_CAP`):
        a hostile hint must not stall the whole window either.
        """
        if exc.status not in (429, 503) and exc.status is not None:
            return
        retry_after = exc.retry_after if exc.status == 429 else None
        with self._lock:
            self._throttled += 1
            self._pressure_events += 1
            if (
                retry_after is not None
                and retry_after > self._pressure_retry_after
            ):
                self._pressure_retry_after = min(retry_after, RETRY_AFTER_CAP)

    def take_throttle_signals(self) -> tuple[int, float]:
        """Drain pressure accumulated since the last call.

        Returns ``(count, max_retry_after_seconds)``; polled by the
        adaptive drain (:mod:`repro.core.adaptive`) between merges.  The
        cumulative total stays readable as :attr:`throttled`.
        """
        with self._lock:
            count = self._pressure_events
            retry_after = self._pressure_retry_after
            self._pressure_events = 0
            self._pressure_retry_after = 0.0
        return count, retry_after

    def _retry_delay(self, attempt: int, hint: "float | None") -> float:
        """Seconds to sleep before retry ``attempt`` (1-based).

        The server's ``Retry-After`` is honored as a *floor* -- sleeping
        less would only harvest another 429 -- while the exponential
        backoff still escalates underneath it, so repeated failures of
        one request back off even against a server that keeps naming
        tiny deadlines.
        """
        backoff = min(self._backoff * 2 ** (attempt - 1), self._backoff_cap)
        if hint is None:
            return backoff
        return max(backoff, min(hint, RETRY_AFTER_CAP))

    def _note_budget(self, remaining: str | None) -> None:
        if remaining is None:
            return
        try:
            value = int(remaining)
        except ValueError:
            return
        with self._lock:
            self._budget_remaining = value

    def _note_data_version(self, advertised: "str | int | None") -> None:
        """Track the endpoint's ``X-Data-Version`` advertisement.

        A version ahead of the one we tracked means the hidden database
        mutated under us; a crawl store registers the endpoint at this
        version (``attach_store``), and its ledger views stay epoch-pinned
        and go stale-silent on their own.  Detection is free -- the header
        rides on answers we paid for anyway.  Replayed answers may carry
        the *older* version they were billed under; those never roll the
        tracked version back.
        """
        if advertised is None:
            return
        try:
            version = int(advertised)
        except (TypeError, ValueError):
            return
        stale = False
        with self._lock:
            if version > self._data_version:
                self._data_version = version
                self._version_skews += 1
                stale = True
        if stale and self._observer is not None:
            self._observer.client_event(
                "data_version_skew", version=version
            )

    def _classify_payload(self, status: int, payload: Any) -> Exception:
        """Decoded error body -> retry / simulator exception (shared by the
        response tail and the per-item handling of batch answers).

        A body that is not a JSON object classifies by status alone; one
        naming an unreadable budget limit is a :class:`RemoteServiceError`.
        """
        if not isinstance(payload, Mapping):
            payload = {}
        error = payload.get("error", "")
        if error == "budget_exceeded":
            limit = payload.get("limit")
            try:
                return QueryBudgetExceeded(int(limit or 0))
            except (TypeError, ValueError):
                return RemoteServiceError(
                    f"HTTP {status}: malformed budget limit {limit!r}",
                    status=status,
                )
        if error == "unsupported_query":
            return UnsupportedQueryError(
                payload.get("message", f"HTTP {status}")
            )
        if payload.get("retriable") or status in (429, 502, 503, 504):
            return _Retriable(
                f"HTTP {status} ({error or 'no detail'})",
                status=status,
                # Batch items carry the shaping deadline in the body
                # (per-item headers do not survive the batch envelope);
                # for whole responses the response tail overrides this
                # with the Retry-After header when present.
                retry_after=_parse_retry_after(payload.get("retry_after")),
            )
        return RemoteServiceError(
            f"HTTP {status}: {payload.get('message', error) or 'unexpected error'}",
            status=status,
        )

    # ------------------------------------------------------------------
    # blocking surface (SearchEndpoint + operator calls)
    # ------------------------------------------------------------------
    def query(self, query: Query) -> QueryResult:
        """Issue one query over the wire.

        Raises
        ------
        UnsupportedQueryError
            The remote interface rejected the query shape.
        QueryBudgetExceeded
            This API key's server-side budget is exhausted.
        RemoteServiceError
            The service stayed unreachable/faulty past ``max_retries``, or
            answered with a body that does not decode.
        """
        return self._run(self._query(query))

    def batch_query(self, queries: Sequence[Query]) -> tuple[QueryResult, ...]:
        """Answer several independent queries in one ``/api/batch`` trip.

        Per-item semantics match :meth:`query` exactly: each billed item
        advances :attr:`queries_issued` by one, and
        items that draw injected faults are retried (in ever smaller
        follow-up batches) under stable request ids so the server never
        bills an item twice.  Against a server that does not advertise the
        batch capability this degrades to per-query dispatch.

        Raises the first terminal per-item failure by batch position, with
        every answer obtained (and billed) attached as
        ``exc.partial_results`` -- a tuple aligned with ``queries`` whose
        ``None`` holes mark the items that were *not* answered -- so
        callers can still account for what they paid for.
        """
        return self._run(self._batch_query(list(queries)))

    def server_stats(self) -> dict[str, Any]:
        """The service's ``/api/stats`` payload (billing counters)."""
        return self._run(self._request("GET", "/api/stats"))

    def healthz(self) -> dict[str, Any]:
        """The service's ``/healthz`` payload (liveness + fingerprint).

        Never billed -- this is how a coordinator verifies a backend is
        alive and serving the expected endpoint identity for free.
        """
        return self._run(self._request("GET", "/healthz"))

    def refresh_data_version(self) -> int:
        """Re-read the endpoint's data version over ``/healthz`` (free).

        Folds the advertised version into the tracked one and returns it
        -- the cheap per-mount staleness probe the coordinator and delta
        crawls use.
        """
        self._note_data_version(self.healthz().get("data_version", 0))
        return self._data_version

    def mutate(
        self,
        ops: Sequence[Mapping[str, Any]] | None = None,
        *,
        churn: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Apply an operator mutation batch via ``POST /api/mutate``.

        Exactly one of ``ops`` (explicit insert/delete/update batch) or
        ``churn`` (``{"frac": F, "seed": S}``, drawn server-side) must be
        given.  Unbilled.  Returns the server's ``{"applied",
        "data_version"}`` payload after folding the new version into the
        tracked one.
        """
        if (ops is None) == (churn is None):
            raise ValueError("exactly one of ops or churn is required")
        body: dict[str, Any] = (
            {"ops": list(ops)} if ops is not None else {"churn": dict(churn)}
        )
        payload = self._run(self._request("POST", "/api/mutate", body))
        self._note_data_version(payload.get("data_version", 0))
        return payload

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # protocol coroutines (await only the transport hooks)
    # ------------------------------------------------------------------
    async def _query(self, query: Query) -> QueryResult:
        # One request id per *logical* query, reused across retries: the
        # server replays an already-billed answer for a seen id, so a
        # response lost after billing is never billed twice.  Durable
        # crawls derive the id from the session nonce + canonical query
        # key, extending the same guarantee across process restarts.
        payload = await self._request(
            "POST",
            "/api/query",
            {"query": encode_query(query)},
            request_id=self._request_id(query),
            trace_id=self._trace_id(query),
        )
        return self._answer(query, payload)

    def _answer(self, query: Query, payload: Any) -> QueryResult:
        """A billed answer body -> counted :class:`QueryResult`."""
        try:
            rows, overflow, sequence = decode_answer(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise RemoteServiceError(
                f"malformed answer body: {exc!r}"
            ) from None
        self._count_billed(query)
        return QueryResult(
            query=query, rows=rows, overflow=overflow, sequence=sequence
        )

    async def _batch_query(
        self, queries: list[Query]
    ) -> tuple[QueryResult, ...]:
        results: list[QueryResult | None] = [None] * len(queries)
        try:
            if not self._supports_batch:
                # Pre-batch server: per-query dispatch, same contract.
                for index, query in enumerate(queries):
                    results[index] = await self._query(query)
            elif queries:
                await self._batch_rounds(
                    queries, list(range(len(queries))), results
                )
        except HiddenDBError as exc:
            # Aligned-with-holes: billed answers (including ones *after*
            # the first failing position) stay attached; failed or unsent
            # items stay None and are the only unanswered slots.
            exc.partial_results = tuple(results)
            raise
        return tuple(results)  # type: ignore[return-value]

    async def _batch_rounds(
        self,
        queries: list[Query],
        pending: list[int],
        results: list[QueryResult | None],
    ) -> None:
        """Send ``pending`` in ``/api/batch`` chunks, retrying retriable
        items in ever smaller rounds; fills ``results`` in place and
        raises the first terminal failure by batch position."""
        ids = {index: self._request_id(queries[index]) for index in pending}
        failures: dict[int, Exception] = {}
        attempt = 0
        while pending:
            retry: list[int] = []
            retry_after: float | None = None
            for start in range(0, len(pending), self._max_batch):
                chunk = pending[start : start + self._max_batch]
                payload = await self._request(
                    "POST",
                    "/api/batch",
                    encode_batch_request(
                        [queries[i] for i in chunk], [ids[i] for i in chunk]
                    ),
                )
                try:
                    outcomes = decode_batch_answer(payload, len(chunk))
                except (KeyError, TypeError, ValueError) as exc:
                    raise RemoteServiceError(
                        f"malformed batch answer: {exc!r}"
                    ) from None
                for index, (status, body) in zip(chunk, outcomes):
                    if status < 400:
                        try:
                            results[index] = self._answer(queries[index], body)
                        except RemoteServiceError as exc:
                            failures[index] = exc
                        continue
                    exc = self._classify_payload(status, body)
                    if isinstance(exc, _Retriable):
                        self._note_throttle(exc)
                        if exc.retry_after is not None and (
                            retry_after is None
                            or exc.retry_after > retry_after
                        ):
                            retry_after = exc.retry_after
                        retry.append(index)
                    else:
                        failures[index] = exc
            if not retry:
                break
            if attempt >= self._max_retries:
                for index in retry:
                    failures[index] = RemoteServiceError(
                        f"batch item still failing after "
                        f"{self._max_retries} retries",
                    )
                break
            self._count_retry()
            await self._pause(self._retry_delay(attempt + 1, retry_after))
            attempt += 1
            pending = retry
        if failures:
            raise failures[min(failures)]

    async def _request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        request_id: str | None = None,
        trace_id: str | None = None,
    ) -> Any:
        """One logical request: attempts under the same headers until an
        answer, a terminal error, or ``max_retries`` retries."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "X-Api-Key": self._api_key,
        }
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        failure: _Retriable | None = None
        for attempt in range(self._max_retries + 1):
            if failure is not None:
                self._count_retry(trace_id=trace_id)
                await self._pause(
                    self._retry_delay(attempt, failure.retry_after)
                )
            if self._observer is not None:
                self._observer.client_event(
                    "attempt", trace_id=trace_id, path=path
                )
            try:
                status, response_headers, raw = await self._exchange(
                    method, path, data, headers
                )
                return self._response(
                    method, path, status, response_headers, raw
                )
            except _Retriable as exc:
                failure = exc
                self._note_throttle(exc)
                if self._observer is not None:
                    self._observer.client_event(
                        "fault", trace_id=trace_id, status=exc.status,
                        path=path,
                    )
        raise RemoteServiceError(
            f"{method} {path} still failing after {self._max_retries} "
            f"retries: {failure.reason}",
            status=failure.status,
        )

    def _response(
        self,
        method: str,
        path: str,
        status: int,
        headers: Mapping[str, str],
        raw: bytes,
    ) -> Any:
        """Response tail: fold the budget and data-version headers, map an
        error status onto retry / simulator semantics, parse the body."""
        # Budget headers arrive on error responses too (a 429 reports 0
        # remaining); record them before classifying the status.
        self._note_budget(headers.get("x-budget-remaining"))
        self._note_data_version(headers.get("x-data-version"))
        if status >= 400:
            try:
                payload = json.loads(raw.decode("utf-8"))
            except ValueError:
                payload = {}
            exc = self._classify_payload(status, payload)
            if isinstance(exc, _Retriable):
                hinted = _parse_retry_after(headers.get("retry-after"))
                if hinted is not None:
                    exc.retry_after = hinted
            raise exc
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise RemoteServiceError(
                f"malformed response body from {method} {path}: {exc}",
                status=status,
            ) from None

    async def _pause(self, seconds: float) -> None:
        """Back off for ``seconds`` through the transport's sleeper."""
        outcome = self._sleep(seconds)
        if inspect.isawaitable(outcome):
            await outcome

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    async def _exchange(
        self,
        method: str,
        path: str,
        data: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, Mapping[str, str], bytes]:
        """One HTTP round trip -> ``(status, headers, body)``.

        The returned headers answer lower-cased names.  A transient
        transport failure (refused, reset, timeout) raises
        :class:`_Retriable` with ``status=None``.
        """
        raise NotImplementedError

    def _run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Drive a protocol coroutine to completion; return its result."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the transport's connections (reopened on next use)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # client-side telemetry
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """Base URL of the remote service."""
        return self._url

    @property
    def api_key(self) -> str:
        """Billing identity this client queries under."""
        return self._api_key

    @property
    def service_name(self) -> str:
        """Name the service reported at construction."""
        return self._service_name

    @property
    def ranking_label(self) -> str:
        """Ranking-function label the service reported (endpoint identity)."""
        return self._ranking_label

    @property
    def endpoint_fingerprint(self) -> str:
        """Identity hash of the connected endpoint, derived client-side.

        Computed from the bootstrap metadata (schema, ``k``, name,
        ranking) with the same scheme the server and the crawl store use,
        so it equals the server's ``/healthz`` fingerprint exactly when
        both sides agree on what is being served.
        """
        if self._schema is None:
            raise RemoteServiceError("client holds no schema metadata yet")
        return endpoint_fingerprint(
            self._schema, self._k, self._service_name, self._ranking_label
        )

    @property
    def retries(self) -> int:
        """Transport retries performed so far (a health signal, not a cost)."""
        return self._retries

    @property
    def throttled(self) -> int:
        """Cumulative 429/503/timeout signals seen (window pressure)."""
        return self._throttled

    @property
    def budget_remaining(self) -> int | None:
        """Server-reported remaining budget (``None`` until known/unlimited)."""
        return self._budget_remaining

    @property
    def data_version(self) -> int:
        """Latest data version the endpoint advertised to this client."""
        return self._data_version

    @property
    def version_skews(self) -> int:
        """Times the endpoint's data version moved ahead mid-session."""
        return self._version_skews

    @property
    def supports_batch(self) -> bool:
        """Whether the service advertises the ``/api/batch`` capability."""
        return self._supports_batch

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self._url}, key={self._api_key!r}, "
            f"issued={self._count})"
        )


class RemoteTopKInterface(QueryClientCore):
    """A :class:`SearchEndpoint` speaking HTTP to a hidden-DB service:
    the blocking transport of the :class:`QueryClientCore` protocol.

    Parameters
    ----------
    url:
        Base URL of the service (e.g. ``http://127.0.0.1:8080``).  The
        schema and ``k`` are fetched once at construction.
    api_key:
        Billing identity sent as ``X-Api-Key`` (per-key budgets are enforced
        server-side).
    timeout:
        Per-request socket timeout in seconds.
    max_retries:
        Retries per query on retriable failures before giving up with
        :class:`RemoteServiceError`.
    backoff / backoff_cap:
        Exponential backoff: retry ``i`` sleeps ``min(backoff * 2**i,
        backoff_cap)`` seconds.
    replay_nonce:
        When set, ``X-Request-Id`` values are derived deterministically
        from this nonce plus the query's canonical key instead of drawn at
        random.  A crawl resumed after a crash re-presents the ids of
        queries billed but lost in flight, and the server *replays* those
        answers instead of billing them twice.  Durable sessions set this
        via :meth:`set_replay_nonce`.
    sleep:
        Injection point for the backoff sleeper (tests pass a no-op); it
        must block, not return an awaitable.
    """

    def __init__(
        self,
        url: str,
        *,
        api_key: str = ANONYMOUS_KEY,
        timeout: float = 30.0,
        max_retries: int = 8,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        replay_nonce: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._init_core(
            url,
            api_key=api_key,
            timeout=timeout,
            max_retries=max_retries,
            backoff=backoff,
            backoff_cap=backoff_cap,
            replay_nonce=replay_nonce,
            sleep=sleep,
        )
        # Connections are thread-local (HTTPConnection is not thread-safe;
        # the concurrent strategy calls query() from its thread pool);
        # every opened connection is also tracked for close().
        self._local = threading.local()
        self._conns: list[http.client.HTTPConnection] = []
        self._fetch_metadata()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    # Every hook of this transport blocks instead of suspending, so a
    # protocol coroutine completes on its first ``send``.
    _run = staticmethod(run_inline)

    async def _exchange(
        self,
        method: str,
        path: str,
        data: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, Mapping[str, str], bytes]:
        try:
            conn = self._connection()
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            # Transient transport failure (refused mid-restart, reset,
            # timeout, half-closed keep-alive): reconnect on retry.
            self._drop_connection()
            raise _Retriable(str(exc) or type(exc).__name__, status=None) from None
        # ``HTTPMessage`` lookups are case-insensitive.
        return response.status, response.headers, raw

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's persistent keep-alive connection (opened lazily).

        One crawl issues thousands of sequential queries; reusing one
        HTTP/1.1 connection per thread avoids paying connect/teardown per
        query (the server keeps connections alive for exactly this
        reason).  Connections are thread-local because the concurrent
        strategy issues queries from several pool threads at once.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            factory = (
                http.client.HTTPSConnection
                if self._scheme == "https"
                else http.client.HTTPConnection
            )
            conn = factory(self._netloc, timeout=self._timeout)
            conn.connect()
            # Disable Nagle: each query is one small request waiting on one
            # small response, the exact pattern Nagle + delayed ACK turns
            # into ~40ms/query stalls on a keep-alive connection.
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._local.conn = conn
            with self._lock:
                self._conns.append(conn)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def close(self) -> None:
        """Close every opened connection (reopened on the next request)."""
        self._local.conn = None
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()


class _Retriable(Exception):
    """Internal: a failure worth another attempt.

    ``retry_after`` carries the server's honest shaping deadline in
    seconds (header on whole responses, ``retry_after`` body field on
    batch items), ``None`` when the server named none.
    """

    def __init__(
        self,
        reason: str,
        status: int | None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.status = status
        self.retry_after = retry_after


__all__ = ["QueryClientCore", "RemoteServiceError", "RemoteTopKInterface"]
