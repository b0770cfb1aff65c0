"""Asyncio transport for the remote client protocol.

:class:`AsyncRemoteTopKInterface` runs the one client protocol of
:class:`~repro.service.client.QueryClientCore` -- caching, billing,
request-id replay, retry, batching, error mapping, telemetry -- over
**non-blocking sockets** driven by one asyncio event loop, so hundreds of
queries can be in flight without a thread apiece.  The blocking
:class:`~repro.service.client.RemoteTopKInterface` runs the same protocol
over ``http.client``; the two differ only in transport, so their billing
semantics cannot drift.  The client implements the
:class:`~repro.hiddendb.endpoint.AsyncSearchEndpoint` protocol (``aquery``
/ ``abatch_query``) and, through the shared core, the blocking
:class:`~repro.hiddendb.endpoint.SearchEndpoint` surface, so it also drops
into serial strategies unchanged.

Transport specifics:

* **connection pooling** -- keep-alive HTTP/1.1 connections are pooled on
  the client's private event loop and reused across queries; concurrent
  in-flight queries each hold one connection and return it on completion;
* **minimal HTTP parsing** -- responses are read with a purpose-built
  status-line / headers / ``Content-Length`` parser instead of the stdlib
  ``http.client`` machinery, which is a measurable per-query saving at
  high concurrency (the wire format is fixed and simple, so the client
  does the minimum work the format requires);
* **event-loop affinity** -- all I/O runs on one
  :class:`~repro.hiddendb.endpoint.EventLoopRunner` owned by the client,
  so pooled connections stay valid across calls.  ``aquery`` /
  ``abatch_query`` may be awaited from any loop; the work is marshalled
  to the client's loop and awaited without blocking the caller's loop.
  ``close()`` releases everything deterministically, and like the
  blocking client the next request reconnects, on a fresh loop.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Awaitable, Callable, Coroutine, Mapping, Sequence

from ..hiddendb.endpoint import EventLoopRunner
from ..hiddendb.interface import QueryResult
from ..hiddendb.query import Query
from .client import QueryClientCore, _Retriable
from .server import ANONYMOUS_KEY

# Unused here: crawlbench/bench_trace.py wraps the codec at this import path.
from .wire import decode_answer, encode_query  # noqa: F401

#: Idle keep-alive connections retained per client.
DEFAULT_POOL_SIZE = 128


class _Connection:
    """One pooled keep-alive connection (reader/writer pair)."""

    __slots__ = ("reader", "writer")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer

    @property
    def usable(self) -> bool:
        return not self.writer.is_closing()

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass


class AsyncRemoteTopKInterface(QueryClientCore):
    """An :class:`AsyncSearchEndpoint` speaking HTTP to a hidden-DB service.

    Construction performs the same ``/api/schema`` bootstrap as the
    blocking client (on the client's private loop).  Parameters mirror
    :class:`~repro.service.client.RemoteTopKInterface`; ``sleep`` may be a
    plain callable or a coroutine function (tests pass a no-op),
    ``pool_size`` bounds the idle keep-alive connections retained.
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
        cache_size: int | None = None,
        replay_nonce: str | None = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        sleep: Callable[[float], Awaitable[None] | None] = asyncio.sleep,
    ) -> None:
        self._init_core(
            url,
            api_key=api_key,
            timeout=timeout,
            max_retries=max_retries,
            backoff=backoff,
            backoff_cap=backoff_cap,
            cache_size=cache_size,
            replay_nonce=replay_nonce,
            sleep=sleep,
        )
        self._pool_size = pool_size
        #: Idle connections; touched only on the runner's loop, so no lock.
        self._pool: list[_Connection] = []
        #: Started on first use (and again after ``close()``).
        self._runner: EventLoopRunner | None = None
        try:
            self._fetch_metadata()
        except BaseException:
            # A failed bootstrap must not leak the loop thread (callers
            # may retry construction in a supervisor loop).
            self.close()
            raise

    # ------------------------------------------------------------------
    # AsyncSearchEndpoint surface
    # ------------------------------------------------------------------
    async def aquery(self, query: Query) -> QueryResult:
        """Issue one query without blocking (or answer it from the cache).

        Awaitable from any event loop; the I/O runs on the client's own
        loop.  Semantics are the shared protocol's, as for ``query()``.
        """
        return await self._marshal(self._query(query))

    async def abatch_query(
        self, queries: Sequence[Query]
    ) -> tuple[QueryResult, ...]:
        """Answer several independent queries in one ``/api/batch`` trip
        (the ``partial_results`` contract of ``batch_query()``)."""
        return await self._marshal(self._batch_query(list(queries)))

    # ------------------------------------------------------------------
    # loop lifecycle and marshalling
    # ------------------------------------------------------------------
    @property
    def aio_runner(self) -> EventLoopRunner:
        """The client's event-loop runner (started on first use).

        Exposed so the async execution strategy can schedule transports
        directly on the loop that owns this client's connection pool --
        one cross-thread hop per query instead of two.
        """
        runner = self._runner
        if runner is None:
            with self._lock:
                if self._runner is None:
                    self._runner = EventLoopRunner(name="repro-aclient")
                runner = self._runner
        return runner

    def _run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run ``coro`` on the client's loop, blocking until it finishes."""
        return self.aio_runner.run(coro)

    async def _marshal(self, coro):
        """Run ``coro`` on the client's loop, awaited from any loop."""
        runner = self.aio_runner
        if asyncio.get_running_loop() is runner.loop:
            return await coro
        return await asyncio.wrap_future(runner.submit(coro))

    def close(self) -> None:
        """Close every pooled connection and stop the client's loop.

        The next request starts a fresh loop and reconnects.
        """
        with self._lock:
            runner, self._runner = self._runner, None
        if runner is None:
            return
        try:
            runner.run(self._drain_pool())
        except Exception:
            pass
        runner.close()

    # ------------------------------------------------------------------
    # transport (runs on the client's loop)
    # ------------------------------------------------------------------
    async def _exchange(
        self,
        method: str,
        path: str,
        data: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, Mapping[str, str], bytes]:
        body = data or b""
        held: list[_Connection] = []  # visible to cleanup if we time out

        async def exchange():
            conn = await self._acquire()
            held.append(conn)
            head = f"{method} {path} HTTP/1.1\r\nHost: {self._netloc}\r\n"
            for name, value in headers.items():
                head += f"{name}: {value}\r\n"
            head += f"Content-Length: {len(body)}\r\n\r\n"
            conn.writer.write(head.encode("latin-1") + body)
            await conn.writer.drain()
            return await self._read_response(conn.reader)

        try:
            # One timeout bounds the whole round trip -- connect, write,
            # response -- matching the blocking client's socket timeout.
            status, response_headers, raw = await asyncio.wait_for(
                exchange(), self._timeout
            )
        except asyncio.CancelledError:
            # A cancelled drain abandons the request mid-flight; the
            # connection's stream state is unknown, so drop it.
            for conn in held:
                conn.close()
            raise
        except (
            OSError,
            EOFError,
            ConnectionError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
        ) as exc:
            # Transient transport failure (refused mid-restart, reset,
            # timeout, half-closed keep-alive): reconnect on retry.
            for conn in held:
                conn.close()
            raise _Retriable(
                str(exc) or type(exc).__name__, status=None
            ) from None
        conn = held[0]
        if response_headers.get("connection", "").lower() == "close":
            conn.close()
        else:
            self._release(conn)
        return status, response_headers, raw

    @staticmethod
    async def _read_response(
        reader: asyncio.StreamReader,
    ) -> tuple[int, dict[str, str], bytes]:
        """Minimal HTTP/1.1 response parse: status, headers, sized body.

        The service always sends ``Content-Length`` (no chunked encoding),
        so the full generality -- and Python-level cost -- of the stdlib
        parser is not needed on this hot path.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                raise EOFError("connection closed before response") from None
            raise
        status_line, _, header_block = head.partition(b"\r\n")
        parts = status_line.split(None, 2)
        if (
            len(parts) < 2
            or not parts[0].startswith(b"HTTP/")
            or not parts[1].isdigit()
        ):
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not declared.isdigit():
            raise ConnectionError(f"malformed Content-Length {declared!r}")
        length = int(declared)
        raw = await reader.readexactly(length) if length else b""
        return status, headers, raw

    async def _acquire(self) -> _Connection:
        """A pooled keep-alive connection, opening a fresh one when dry."""
        while self._pool:
            conn = self._pool.pop()
            if conn.usable:
                return conn
            conn.close()
        reader, writer = await asyncio.open_connection(
            self._host,
            self._port,
            ssl=True if self._scheme == "https" else None,
        )
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Disable Nagle: each query is one small request waiting on
            # one small response, the exact pattern Nagle + delayed ACK
            # turns into ~40ms/query stalls on a keep-alive connection.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return _Connection(reader, writer)

    def _release(self, conn: _Connection) -> None:
        if conn.usable and len(self._pool) < self._pool_size:
            self._pool.append(conn)
        else:
            conn.close()

    async def _drain_pool(self) -> None:
        pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()


__all__ = ["AsyncRemoteTopKInterface", "DEFAULT_POOL_SIZE"]
