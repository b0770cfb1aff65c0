"""One JSON-over-HTTP front for the repro daemons.

:class:`JsonHttpFront` is the stdlib HTTP plumbing that
:class:`~repro.service.server.HiddenDBServer` and
:class:`~repro.coordinator.CrawlCoordinator` share: binding, the serving
thread, lifecycle, request-body framing and JSON parsing, error replies,
per-request accounting, the access log and ``/metrics``.  A daemon is a
subclass that supplies its route table, handlers and views.

A route maps ``(method, path)`` to a handler that takes a
:class:`Request` and returns ``(status, body, headers)``: a ``dict`` body
is sent as JSON, a ``str`` body as text under the ``Content-Type`` its
headers name.  A path ending in ``/:id`` matches one trailing segment.
Every declared body is read before routing, so a keep-alive connection
stays framed whatever the route does with it.  The front answers a
``Content-Length`` that is not a decimal (closing the connection) or a
POST body that is not a JSON object with 400 ``bad_request``, an unknown
route with 404 ``not_found``, and anything a handler raises with 500
``internal_error``, logged once with its traceback; all three carry
``{"error", "message"?, "retriable": false}``.  Metrics label a request
by its matched route, and every unmatched request by the one
:data:`UNMATCHED_ROUTE`, so junk paths cannot grow the exposition.
"""

from __future__ import annotations

import errno
import json
import logging
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping, NamedTuple

from ..hiddendb.errors import HiddenDBError
from ..obs import MetricsRegistry, render_prometheus
from ..obs.exposition import CONTENT_TYPE as METRICS_CONTENT_TYPE

#: Route label of every request that no route matched.
UNMATCHED_ROUTE = "unmatched"

#: What a handler returns: ``(status, body, headers)``.
Reply = tuple[int, dict[str, Any] | str, Mapping[str, str]]


class ServiceStartupError(HiddenDBError):
    """The service could not start (e.g. its port is already taken).

    Maps low-level socket errors at bind time onto one actionable
    message, instead of a raw ``OSError`` traceback.
    """


class Request(NamedTuple):
    """What a handler sees of a request: its headers, the JSON object body
    of a POST (``{}`` for other methods) and the segment a trailing
    ``/:id`` matched (``None`` for other routes)."""

    headers: Any
    payload: dict[str, Any]
    param: str | None


#: A route handler.
Handler = Callable[[Request], Reply]


def error_reply(status: int, error: str, message: str | None = None) -> Reply:
    """Terminal error: ``{"error", "message"?, "retriable": false}``."""
    body: dict[str, Any] = {"error": error}
    if message is not None:
        body["message"] = message
    body["retriable"] = False
    return status, body, {}


class _QuietThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for crawler traffic.

    * no tracebacks on client disconnects: a crawler that is killed (or
      times out) mid-request resets its sockets; the stdlib default
      prints a full traceback per connection, which buries real errors.
      Disconnects are routine for this service -- the durable-crawl tests
      SIGKILL clients on purpose -- so they are logged at debug level;
    * a deep listen backlog (``request_queue_size``): wide-window async
      clients open dozens to hundreds of connections in one burst, and
      the stdlib default backlog of 5 would refuse the overflow
      (handler threads are already daemonic via the stdlib base class);
    * an immediate :meth:`shutdown` (see there).
    """

    #: Listen backlog -- sized for a wide-window async client's connect burst.
    request_queue_size = 128
    #: The front whose routes the handlers serve.
    front: "JsonHttpFront"

    def shutdown(self) -> None:
        """Stop ``serve_forever`` now rather than at its next poll.

        The serving loop only checks for a shutdown request between
        0.5 s polls of the listening socket.  Shutting that socket down
        makes it readable at once, so the loop wakes, fails to accept,
        and sees the request.  A shorter poll would also stop quickly,
        but its wake-ups cost the serving threads the interpreter lock
        twenty times a second for the server's whole life.
        """
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # not supported here: wait out the poll instead
            pass
        super().shutdown()

    def handle_error(self, request, client_address) -> None:  # noqa: D102
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            self.front._log.debug(
                "client %s disconnected: %s", client_address, exc
            )
            return
        super().handle_error(request, client_address)


class _FrontHandler(BaseHTTPRequestHandler):
    """Serves each request through its server's :class:`JsonHttpFront`."""

    protocol_version = "HTTP/1.1"
    # Small request/response pairs over keep-alive connections stall on
    # Nagle + delayed ACK; send responses immediately.
    disable_nagle_algorithm = True
    # The stdlib logs a malformed request line before it parses any
    # headers; until then ``log_message`` reads this ``None``.
    headers = None

    def _dispatch(self) -> None:
        front = self.server.front
        handler, route, param = front._match(self.command, self.path)
        front._m_inflight.inc()
        started = time.monotonic()
        try:
            self._reply(*self._handle(handler, param))
        finally:
            front._m_inflight.dec()
            front._account(route, self.headers, time.monotonic() - started)

    do_GET = do_POST = do_DELETE = _dispatch  # noqa: N815 (stdlib naming)

    def _handle(self, handler: Handler | None, param: str | None) -> Reply:
        # A Content-Length that is not a non-negative decimal is refused
        # before any of the body is read: ``int()`` would raise on ``abc``,
        # and ``rfile.read(-1)`` would hold the thread until the client
        # hangs up.
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True
            return error_reply(
                400, "bad_request", f"invalid Content-Length {declared!r}"
            )
        raw = self.rfile.read(int(declared))
        if handler is None:
            return error_reply(404, "not_found")
        payload: Any = {}
        if self.command == "POST":
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = None
            if not isinstance(payload, dict):
                return error_reply(400, "bad_request", "invalid JSON body")
        try:
            return handler(Request(self.headers, payload, param))
        except Exception as exc:  # noqa: BLE001 - one request, not the daemon
            self.server.front._log.exception(
                "%s %s failed", self.command, self.path
            )
            return error_reply(
                500, "internal_error", f"{type(exc).__name__}: {exc}"
            )

    def _reply(
        self, status: int, body: Any, headers: Mapping[str, str]
    ) -> None:
        self.send_response(status)
        if isinstance(body, str):
            encoded = body.encode("utf-8")
        else:
            encoded = json.dumps(body).encode("utf-8")
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format: str, *args: Any) -> None:
        log = self.server.front._log
        if not log.isEnabledFor(logging.DEBUG):
            return
        line = format % args
        # Client-propagated trace ids make access-log lines joinable
        # with the crawl-side JSONL spans for the same logical query.
        trace_id = self.headers.get("X-Trace-Id") if self.headers else None
        if trace_id:
            line += f" trace={trace_id}"
        log.debug("%s %s", self.address_string(), line)


class JsonHttpFront:
    """Lifecycle, routing and accounting of one JSON-over-HTTP daemon.

    ``host`` / ``port`` is the bind address (``port=0`` picks an ephemeral
    port; read it back from :attr:`port` / :attr:`url` after
    :meth:`start`).  The front's own metric family is
    ``<metrics_prefix>_requests_in_flight``; ``log`` takes the access log
    and handler failures.  Subclasses supply :meth:`_route_table` and may
    extend :meth:`_open`, :meth:`stop` and :meth:`_account`.
    """

    def __init__(
        self, host: str, port: int, *, metrics_prefix: str, log: logging.Logger
    ) -> None:
        self._host = host
        self._requested_port = port
        self._bound_port: int | None = None
        self._httpd: _QuietThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started: float | None = None
        self._log = log
        # Per-instance observability scope, scraped at /metrics.
        self._metrics = MetricsRegistry()
        self._m_inflight = self._metrics.gauge(
            f"{metrics_prefix}_requests_in_flight",
            "HTTP requests currently being processed.",
        )
        self._routes = self._route_table()

    def _route_table(self) -> dict[tuple[str, str], Handler]:
        """``(method, path) -> handler`` for every route of the daemon."""
        raise NotImplementedError

    def _open(self) -> None:
        """Acquire what the routes need: runs once the socket is bound,
        before the first request is served."""

    def _account(self, route: str, headers: Any, elapsed: float) -> None:
        """Record one answered request (called from handler threads)."""

    def start(self) -> "JsonHttpFront":
        """Bind the socket, :meth:`_open`, and serve from a daemon thread.

        Returns ``self``.  If the bind or :meth:`_open` fails,
        :meth:`stop` runs before the error propagates, so a failed start
        holds neither the socket nor anything :meth:`_open` acquired.
        """
        if self._httpd is not None:
            raise RuntimeError(f"{type(self).__name__} already started")
        try:
            self._httpd = self._bind()
            self._bound_port = self._httpd.server_address[1]
            self._open()
        except BaseException:
            self.stop()
            raise
        self._started = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"{self._log.name}:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _bind(self) -> _QuietThreadingHTTPServer:
        address = (self._host, self._requested_port)
        try:
            httpd = _QuietThreadingHTTPServer(address, _FrontHandler)
        except OSError as exc:
            if exc.errno not in (errno.EADDRINUSE, errno.EACCES):
                raise
            reason = (
                "already in use"
                if exc.errno == errno.EADDRINUSE
                else "not permitted"
            )
            raise ServiceStartupError(
                f"port {self._requested_port} on {self._host or '*'} is "
                f"{reason}; pick another --port (0 chooses a free one) "
                f"or stop the process bound to it"
            ) from None
        httpd.front = self
        return httpd

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        httpd, self._httpd = self._httpd, None
        if httpd is None:
            return
        # ``shutdown`` waits for ``serve_forever`` to return, so it is
        # only called when the serving thread was started.
        if self._thread is not None:
            httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        httpd.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def wait(self, timeout: float | None = None) -> None:
        """Block the calling thread while the daemon serves (CLI foreground
        mode); a ``timeout`` in seconds returns control after that long."""
        if self._thread is None:
            raise RuntimeError(f"{type(self).__name__} not started")
        self._thread.join(timeout)

    @property
    def host(self) -> str:
        """Bind host."""
        return self._host

    @property
    def port(self) -> int:
        """Actual bound port (resolves ``port=0`` once started; the last
        bound port keeps being reported after :meth:`stop`)."""
        if self._bound_port is not None:
            return self._bound_port
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL clients should connect to.

        Wildcard binds (``0.0.0.0`` / ``::`` / ``""``) are advertised as
        the loopback address -- a wildcard is not a routable destination.
        """
        host = self._host
        if host in ("", "0.0.0.0", "::"):
            host = "127.0.0.1"
        elif ":" in host:  # bare IPv6 literal needs brackets in a URL
            host = f"[{host}]"
        return f"http://{host}:{self.port}"

    @property
    def routes(self) -> tuple[tuple[str, str], ...]:
        """The ``(method, path)`` pairs the daemon answers, in table order."""
        return tuple(self._routes)

    @property
    def metrics(self) -> MetricsRegistry:
        """Per-instance metrics scope (rendered at ``GET /metrics``)."""
        return self._metrics

    @property
    def uptime_s(self) -> float | None:
        """Seconds since :meth:`start` bound the socket (``None`` before)."""
        if self._started is None:
            return None
        return time.monotonic() - self._started

    def metrics_payload(self) -> Reply:
        """Prometheus text exposition of the per-instance registry."""
        text = render_prometheus(self._metrics)
        return 200, text, {"Content-Type": METRICS_CONTENT_TYPE}

    def _match(
        self, method: str, path: str
    ) -> tuple[Handler | None, str, str | None]:
        """The handler, metric label and ``:id`` segment of a request.

        The ``/:id`` form is tried first, so a literal ``:id`` in a path
        is a parameter value, never the route itself.
        """
        prefix, _, segment = path.rpartition("/")
        route = prefix + "/:id"
        if segment and (method, route) in self._routes:
            return self._routes[method, route], route, segment
        if (method, path) in self._routes:
            return self._routes[method, path], path, None
        return None, UNMATCHED_ROUTE, None


__all__ = [
    "Handler",
    "JsonHttpFront",
    "Reply",
    "Request",
    "ServiceStartupError",
    "UNMATCHED_ROUTE",
    "error_reply",
]
