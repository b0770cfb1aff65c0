"""Asyncio transport for the remote client protocol.

:class:`AsyncRemoteTopKInterface` runs the one client protocol of
:class:`~repro.service.client.QueryClientCore` -- caching, billing,
request-id replay, retry, batching, error mapping, telemetry -- over
**non-blocking sockets** driven by an asyncio event loop, so hundreds of
queries can be in flight without a thread apiece.  The blocking
:class:`~repro.service.client.RemoteTopKInterface` runs the same protocol
over ``http.client``; the two differ only in transport, so their billing
semantics cannot drift.  The client implements the
:class:`~repro.hiddendb.endpoint.AsyncSearchEndpoint` protocol (``aquery``
/ ``abatch_query``) and, through the shared core, the blocking
:class:`~repro.hiddendb.endpoint.SearchEndpoint` surface, so it also drops
into serial strategies unchanged.

Transport specifics:

* **one protocol per connection** -- each keep-alive HTTP/1.1 connection
  is an :class:`asyncio.Protocol` that parses the response out of its
  buffer with a purpose-built status-line / headers / ``Content-Length``
  reader (the wire format is fixed and simple, so the client does the
  minimum work the format requires) and settles the waiter of the one
  request in flight on it.  One ``call_later`` timer per request bounds
  connect, write and response together by the client's ``timeout``;
* **connection pooling** -- connections opened on the client's own loop
  are pooled and reused across queries; concurrent in-flight queries
  each hold one connection and return it on completion;
* **no loop thread** -- the client's loop
  (:class:`~repro.hiddendb.endpoint.EventLoopRunner`, ``aio_runner``)
  runs only while the thread driving the crawl waits on it: the
  execution engine submits each transport as a task and runs the loop
  until the answer it needs next is in, and the blocking surface runs it
  for one request.  So that surface is driven by one thread at a time,
  and cannot be called from inside a running event loop.  ``aquery`` /
  ``abatch_query`` run on whichever loop awaits them; a connection opened
  on any loop but the client's closes with its request, so none outlives
  the loop it was opened on.  ``close()`` releases everything
  deterministically, and like the blocking client the next request
  reconnects, on a fresh loop.
"""

from __future__ import annotations

import asyncio
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


def _parse_head(head: bytes) -> tuple[int, dict[str, str], int]:
    """Status, lower-cased headers and body length of a response head
    (the service always sends ``Content-Length``, never chunked bodies)."""
    status_line, _, header_block = head.partition(b"\r\n")
    parts = status_line.split(None, 2)
    if (
        len(parts) < 2
        or not parts[0].startswith(b"HTTP/")
        or not parts[1].isdigit()
    ):
        raise ConnectionError(f"malformed status line {status_line!r}")
    headers: dict[str, str] = {}
    for line in header_block.decode("latin-1").split("\r\n"):
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length", "0") or "0"
    if not declared.isdigit():
        raise ConnectionError(f"malformed Content-Length {declared!r}")
    return int(parts[1]), headers, int(declared)


class _Connection(asyncio.Protocol):
    """One keep-alive connection on ``loop``.

    :meth:`request` writes one request (as soon as the connection is up)
    and returns a future of its ``(status, headers, body)``.  Everything
    that ends the request early -- a failed connect, a malformed or cut
    response, :meth:`expire` -- fails that future with an
    :class:`OSError`.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self._transport: asyncio.Transport | None = None
        self._buffer = bytearray()
        self._waiter: asyncio.Future | None = None
        self._unsent = b""
        self._closed = False
        self._connecting: asyncio.Task | None = None

    def connect(self, host: str, port: int, ssl) -> "_Connection":
        """Open the connection, in a task of its own; returns ``self``."""
        self._connecting = self.loop.create_task(
            self.loop.create_connection(lambda: self, host, port, ssl=ssl)
        )
        self._connecting.add_done_callback(self._connected)
        return self

    @property
    def usable(self) -> bool:
        return not self._closed and not self._transport.is_closing()

    def request(self, data: bytes) -> asyncio.Future:
        self._waiter = self.loop.create_future()
        if self._transport is None:
            self._unsent = data  # written by connection_made
        else:
            self._transport.write(data)
        return self._waiter

    def expire(self) -> None:
        """The request in flight ran out of time: fail it, drop the
        connection (its stream state is unknown)."""
        if self._waiter is not None:
            self._fail(TimeoutError("timed out"))
            self.close()

    def close(self) -> None:
        self._closed = True
        if self._connecting is not None:
            self._connecting.cancel()
        if self._transport is not None:
            self._transport.close()

    def _fail(self, exc: BaseException) -> None:
        waiter, self._waiter = self._waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_exception(exc)

    def _connected(self, task: asyncio.Task) -> None:
        error = None if task.cancelled() else task.exception()
        if error is not None:
            self._closed = True
            self._fail(error)

    # -- asyncio.Protocol ----------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        if self._closed:
            transport.close()
        elif self._unsent:
            transport.write(self._unsent)
            self._unsent = b""

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if self._waiter is None:
            return
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            return
        try:
            status, headers, length = _parse_head(bytes(self._buffer[:end]))
        except ConnectionError as exc:
            self._fail(exc)
            self.close()
            return
        start = end + 4
        if len(self._buffer) < start + length:
            return
        body = bytes(self._buffer[start : start + length])
        del self._buffer[: start + length]
        waiter, self._waiter = self._waiter, None
        if not waiter.done():
            waiter.set_result((status, headers, body))

    def connection_lost(self, exc: Exception | None) -> None:
        self._closed = True
        self._fail(exc or ConnectionError("connection closed before response"))


class AsyncRemoteTopKInterface(QueryClientCore):
    """An :class:`AsyncSearchEndpoint` speaking HTTP to a hidden-DB service.

    Construction performs the same ``/api/schema`` bootstrap as the
    blocking client (on the client's loop).  Parameters mirror
    :class:`~repro.service.client.RemoteTopKInterface`; ``sleep`` may be a
    plain callable or a coroutine function (tests pass a no-op),
    ``pool_size`` bounds the idle keep-alive connections retained.  The
    blocking surface (``query()``, ``batch_query()``, the operator calls,
    ``close()``) is driven by one thread at a time and cannot be called
    from inside a running event loop.
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
            replay_nonce=replay_nonce,
            sleep=sleep,
        )
        self._pool_size = pool_size
        #: Idle connections of the client's own loop.
        self._pool: list[_Connection] = []
        #: Created on first use (and again after ``close()``).
        self._runner: EventLoopRunner | None = None
        try:
            self._fetch_metadata()
        except BaseException:
            # A failed bootstrap must not leave the loop open (callers
            # may retry construction in a supervisor loop).
            self.close()
            raise

    # ------------------------------------------------------------------
    # AsyncSearchEndpoint surface
    # ------------------------------------------------------------------
    async def aquery(self, query: Query) -> QueryResult:
        """Issue one query without blocking.

        Runs on whichever event loop awaits it; the execution engine
        awaits it in a task on the client's own loop.  Semantics are the
        shared protocol's, as for ``query()``.
        """
        return await self._query(query)

    async def abatch_query(
        self, queries: Sequence[Query]
    ) -> tuple[QueryResult, ...]:
        """Answer several independent queries in one ``/api/batch`` trip
        (the ``partial_results`` contract of ``batch_query()``)."""
        return await self._batch_query(list(queries))

    # ------------------------------------------------------------------
    # loop lifecycle
    # ------------------------------------------------------------------
    @property
    def aio_runner(self) -> EventLoopRunner:
        """The client's event loop (created on first use).

        The execution engine's marker of an endpoint that owns a loop: it
        submits the crawl's transports to it as tasks, which start in
        dispatch order and reuse the pooled connections, and runs it on
        the crawl's own thread while waiting for an answer.
        """
        if self._runner is None:
            self._runner = EventLoopRunner()
        return self._runner

    def _run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run ``coro`` on the client's loop, blocking until it finishes."""
        return self.aio_runner.run(coro)

    def close(self) -> None:
        """Close every pooled connection and the client's loop.

        The next request starts a fresh loop and reconnects.
        """
        runner, self._runner = self._runner, None
        pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()
        if runner is not None:
            runner.close()

    # ------------------------------------------------------------------
    # transport (runs on whichever loop awaits it)
    # ------------------------------------------------------------------
    async def _exchange(
        self,
        method: str,
        path: str,
        data: bytes | None,
        headers: Mapping[str, str],
    ) -> tuple[int, Mapping[str, str], bytes]:
        body = data or b""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self._netloc}\r\n"
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        head += f"Content-Length: {len(body)}\r\n\r\n"
        loop = asyncio.get_running_loop()
        conn = self._acquire(loop)
        # One timer bounds the whole round trip -- connect, write,
        # response -- matching the blocking client's socket timeout.
        timer = loop.call_later(self._timeout, conn.expire)
        try:
            status, response_headers, raw = await conn.request(
                head.encode("latin-1") + body
            )
        except asyncio.CancelledError:
            # A cancelled drain abandons the request mid-flight; the
            # connection's stream state is unknown, so drop it.
            conn.close()
            raise
        except OSError as exc:
            # Transient transport failure (refused mid-restart, reset,
            # timeout, half-closed keep-alive): reconnect on retry.
            conn.close()
            raise _Retriable(
                str(exc) or type(exc).__name__, status=None
            ) from None
        finally:
            timer.cancel()
        if response_headers.get("connection", "").lower() == "close":
            conn.close()
        else:
            self._release(conn)
        return status, response_headers, raw

    def _acquire(self, loop: asyncio.AbstractEventLoop) -> _Connection:
        """A pooled keep-alive connection, opening a fresh one when dry
        (asyncio's TCP transports disable Nagle themselves)."""
        while self._pool and loop is self._runner.loop:
            conn = self._pool.pop()
            if conn.usable:
                return conn
            conn.close()
        ssl = True if self._scheme == "https" else None
        return _Connection(loop).connect(self._host, self._port, ssl)

    def _release(self, conn: _Connection) -> None:
        """Pool ``conn`` if it belongs to the client's own loop; one
        opened on any other loop closes now, so none outlives its loop."""
        runner = self._runner
        if (
            runner is not None
            and conn.loop is runner.loop
            and conn.usable
            and len(self._pool) < self._pool_size
        ):
            self._pool.append(conn)
        else:
            conn.close()


__all__ = ["AsyncRemoteTopKInterface", "DEFAULT_POOL_SIZE"]
