"""One JSON-over-HTTP front for the repro daemons.

:class:`JsonHttpFront` is the HTTP plumbing that
:class:`~repro.service.server.HiddenDBServer` and
:class:`~repro.coordinator.CrawlCoordinator` share: binding, a thread per
connection, lifecycle, reading requests and writing replies, JSON
parsing, error replies, per-request accounting, the access log and
``/metrics``.  A daemon is a subclass that supplies its route table,
handlers and views.

A route maps ``(method, path)`` to a handler that takes a
:class:`Request` and returns ``(status, body, headers)``: a ``dict`` body
is sent as JSON (:func:`encode_json`), a ``bytes`` body as JSON the
handler already encoded, and a ``str`` body as text under the
``Content-Type`` its headers name.  A path ending in ``/:id`` matches
one trailing segment.
The front answers a POST body that is not a JSON object with 400
``bad_request``, an unknown route with 404 ``not_found``, and anything a
handler raises with 500 ``internal_error``, logged once with its
traceback; all carry ``{"error", "message"?, "retriable": false}``.
Metrics label a request by its matched route, and every unmatched
request by the one :data:`UNMATCHED_ROUTE`, so junk paths cannot grow
the exposition.

The front reads requests (:func:`read_request`) and writes replies, each
in one ``sendall``, itself.  It speaks the HTTP/1.1 its clients use:

* ``GET``, ``POST`` and ``DELETE`` in ``HTTP/1.1`` or ``HTTP/1.0``;
  header names match in any case, and a repeated header keeps its first
  value;
* keep-alive by default on 1.1.  ``Connection: close``, or 1.0 without
  ``Connection: keep-alive``, closes the connection after the reply.
  Requests sent back to back are answered in order;
* an interim ``100 Continue`` for ``Expect: 100-continue`` on 1.1;
* bodies framed by ``Content-Length`` alone, each read whole before
  routing, so a keep-alive connection stays framed whatever the route
  does with it.

It refuses anything else with the one error shape, its ``error`` the
status name (``bad_request``), and closes the connection: a malformed
request or header line (400), another method (501) or version (505), a
request line over :data:`MAX_LINE` bytes (414), a header line over it or
more than :data:`MAX_HEADERS` headers (431), a ``Content-Length`` that
is not a non-negative decimal or appears twice (400), a
``Content-Length`` over :data:`MAX_BODY` (413, before any of the body is
read or ``100 Continue`` sent), any ``Transfer-Encoding`` (501: its body
cannot be framed), and a request that ends before its headers or its
``Content-Length`` bytes do (400, with no handler run).
"""

from __future__ import annotations

import email.utils
import errno
import functools
import json
import logging
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import IO, Any, Callable, Mapping, NamedTuple

from ..hiddendb.errors import HiddenDBError
from ..obs import MetricsRegistry, render_prometheus
from ..obs.exposition import CONTENT_TYPE as METRICS_CONTENT_TYPE

#: Route label of every request that no route matched.
UNMATCHED_ROUTE = "unmatched"

#: Longest request line or header line, in bytes, and most header lines
#: in one request: the limits ``http.server`` enforces.
MAX_LINE = 65536
MAX_HEADERS = 100

#: Longest request body, in bytes.  The largest bodies the clients send
#: are about 1 MB: 10,000 ``/api/mutate`` ops on gflights (0.45-1.0 MB
#: across the CLI datasets) and 1,024 queries in one ``/api/batch``
#: (0.19-0.29 MB).  16 MiB leaves them 16 times that, while a connection
#: thread never holds more than this much of a body in memory.
MAX_BODY = 16 * 1024 * 1024

#: What a handler returns: ``(status, body, headers)``.  A ``bytes`` body
#: is JSON already encoded by :func:`encode_json` (the hidden-DB server
#: encodes each billed answer once and replays those bytes).
Reply = tuple[int, dict[str, Any] | bytes | str, Mapping[str, str]]

_METHODS = frozenset({"GET", "POST", "DELETE"})
_VERSIONS = frozenset({"HTTP/1.1", "HTTP/1.0"})
#: Interim reply to ``Expect: 100-continue``.
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
    for status in HTTPStatus
}


class ServiceStartupError(HiddenDBError):
    """The service could not start (e.g. its port is already taken).

    Maps low-level socket errors at bind time onto one actionable
    message, instead of a raw ``OSError`` traceback.
    """


class Request(NamedTuple):
    """What a handler sees of a request: its headers keyed by lower-cased
    name, the JSON object body of a POST (``{}`` for other methods) and
    the segment a trailing ``/:id`` matched (``None`` for other routes)."""

    headers: dict[str, str]
    payload: dict[str, Any]
    param: str | None


#: A route handler.
Handler = Callable[[Request], Reply]


def encode_json(body: Mapping[str, Any]) -> bytes:
    """A JSON reply body as the front sends it."""
    return json.dumps(body).encode("utf-8")


def error_reply(status: int, error: str, message: str | None = None) -> Reply:
    """Terminal error: ``{"error", "message"?, "retriable": false}``."""
    body: dict[str, Any] = {"error": error}
    if message is not None:
        body["message"] = message
    body["retriable"] = False
    return status, body, {}


class HttpRequest(NamedTuple):
    """One request as :func:`read_request` read it off the wire."""

    method: str
    path: str
    version: str
    #: Header values keyed by lower-cased name.
    headers: dict[str, str]
    body: bytes
    #: Whether the connection stays open after the reply.
    keep_alive: bool


class HttpRefusal(Exception):
    """A request outside the subset the front speaks: it is answered with
    ``status`` and the one error shape, then the connection closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def read_request(
    rfile: IO[bytes], send_continue: Callable[[], object] | None = None
) -> HttpRequest | None:
    """Read one request off ``rfile``, a buffered binary stream.

    Returns ``None`` when the stream ends before a request starts, and
    raises :class:`HttpRefusal` for anything outside the subset the
    module docstring lists.  ``send_continue`` is called before the body
    of an ``HTTP/1.1`` request that carries ``Expect: 100-continue``.
    """
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise HttpRefusal(414, f"request line over {MAX_LINE} bytes")
    words = line.decode("latin-1").split()
    if len(words) != 3 or not (
        line.endswith(b"\n") and words[2].startswith("HTTP/")
    ):
        raise HttpRefusal(400, f"malformed request line {line[:80]!r}")
    method, path, version = words
    if version not in _VERSIONS:
        raise HttpRefusal(505, f"unsupported version {version[:20]!r}")
    if method not in _METHODS:
        raise HttpRefusal(501, f"unsupported method {method[:20]!r}")
    headers: dict[str, str] = {}
    count = 0
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if line == b"\r\n" or line == b"\n":
            break
        if len(line) > MAX_LINE:
            raise HttpRefusal(431, f"header line over {MAX_LINE} bytes")
        if not line.endswith(b"\n"):
            raise HttpRefusal(400, "request ended inside its headers")
        count += 1
        if count > MAX_HEADERS:
            raise HttpRefusal(431, f"more than {MAX_HEADERS} headers")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise HttpRefusal(400, f"malformed header line {line[:80]!r}")
        name = name.lower()
        if name not in headers:
            headers[name] = value.strip()
        elif name == "content-length":
            raise HttpRefusal(400, "Content-Length appears twice")
    if "transfer-encoding" in headers:
        raise HttpRefusal(501, "Transfer-Encoding is not supported")
    declared = headers.get("content-length", "0")
    if not (declared.isascii() and declared.isdigit()):
        # Refused before any of the body is read: ``int()`` would raise
        # on ``abc``, and ``read(-1)`` would hold the thread until the
        # client hangs up.
        raise HttpRefusal(400, f"invalid Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY:
        # Refused before the body: ``read(length)`` would ask for the
        # whole declared size at once.
        raise HttpRefusal(413, f"body of {length} bytes over {MAX_BODY}")
    if (
        send_continue is not None
        and version == "HTTP/1.1"
        and headers.get("expect", "").lower() == "100-continue"
    ):
        send_continue()
    body = rfile.read(length) if length else b""
    if len(body) < length:
        raise HttpRefusal(400, f"body ended at {len(body)} of {length} bytes")
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        keep_alive = connection != "close"
    else:
        keep_alive = connection == "keep-alive"
    return HttpRequest(method, path, version, headers, body, keep_alive)


class _FrontServer(socketserver.ThreadingTCPServer):
    """The listening socket of a :class:`JsonHttpFront`, tuned for crawler
    traffic; each connection is served by the front in its own thread.

    * no tracebacks on client disconnects: a crawler that is killed (or
      times out) mid-request resets its sockets; the stdlib default
      prints a full traceback per connection, which buries real errors.
      Disconnects are routine for this service -- the durable-crawl tests
      SIGKILL clients on purpose -- so they are logged at debug level;
    * a deep listen backlog (``request_queue_size``): wide-window async
      clients open dozens to hundreds of connections in one burst, and
      the stdlib default backlog of 5 would refuse the overflow;
    * daemonic connection threads, which never hold up interpreter exit;
    * an immediate :meth:`shutdown` (see there).
    """

    allow_reuse_address = True
    daemon_threads = True
    #: Listen backlog -- sized for a wide-window async client's connect burst.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], front: JsonHttpFront) -> None:
        self.front = front
        super().__init__(address, None)

    def finish_request(self, request, client_address) -> None:  # noqa: D102
        self.front._serve_connection(request, client_address)

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
        self._httpd: _FrontServer | None = None
        self._thread: threading.Thread | None = None
        self._started: float | None = None
        self._log = log
        # ``(second, "Date: ...\r\n")``: replies share one formatting a
        # second.
        self._date_line = (-1, "")
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

    def _account(
        self, route: str, headers: Mapping[str, str], elapsed: float
    ) -> None:
        """Record one answered request (called from connection threads):
        ``elapsed`` runs from the route match to the reply written."""

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

    def _bind(self) -> _FrontServer:
        address = (self._host, self._requested_port)
        try:
            return _FrontServer(address, self)
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

    # ------------------------------------------------------------------
    # connections (each served in its own thread)
    # ------------------------------------------------------------------
    def _serve_connection(
        self, sock: socket.socket, client: tuple[str, int]
    ) -> None:
        """Answer the requests of one connection in order until it closes."""
        # Small request/response pairs over keep-alive connections stall
        # on Nagle + delayed ACK; send replies immediately.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        send_continue = functools.partial(sock.sendall, _CONTINUE)
        with sock.makefile("rb") as rfile:
            while True:
                try:
                    request = read_request(rfile, send_continue)
                except HttpRefusal as refusal:
                    status = refusal.status
                    self._log.debug("%s refused: %s", client[0], refusal)
                    error = HTTPStatus(status).name.lower()
                    reply = error_reply(status, error, str(refusal))
                    sock.sendall(self._encode(reply, close=True))
                    return
                if request is None:
                    return
                self._serve(sock, client[0], request)
                if not request.keep_alive:
                    return

    def _serve(
        self, sock: socket.socket, host: str, request: HttpRequest
    ) -> None:
        handler, route, param = self._match(request.method, request.path)
        self._m_inflight.inc()
        started = time.monotonic()
        try:
            reply = self._handle(handler, request, param)
            if self._log.isEnabledFor(logging.DEBUG):
                # Client-propagated trace ids make access-log lines
                # joinable with the crawl-side spans.  The line precedes
                # the reply, so it is out once the client has its answer.
                trace_id = request.headers.get("x-trace-id")
                self._log.debug(
                    '%s "%s %s %s" %d%s', host, request.method, request.path,
                    request.version, reply[0],
                    f" trace={trace_id}" if trace_id else "",
                )
            sock.sendall(self._encode(reply, close=not request.keep_alive))
        finally:
            self._m_inflight.dec()
            self._account(route, request.headers, time.monotonic() - started)

    def _handle(
        self, handler: Handler | None, request: HttpRequest, param: str | None
    ) -> Reply:
        if handler is None:
            return error_reply(404, "not_found")
        payload: Any = {}
        if request.method == "POST":
            try:
                payload = json.loads(request.body.decode("utf-8") or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError):
                payload = None
            if not isinstance(payload, dict):
                return error_reply(400, "bad_request", "invalid JSON body")
        try:
            return handler(Request(request.headers, payload, param))
        except Exception as exc:  # noqa: BLE001 - one request, not the daemon
            self._log.exception("%s %s failed", request.method, request.path)
            return error_reply(
                500, "internal_error", f"{type(exc).__name__}: {exc}"
            )

    def _encode(self, reply: Reply, close: bool) -> bytes:
        """Status line, headers and body of one reply, as one buffer."""
        status, body, headers = reply
        if isinstance(body, str):
            payload = body.encode("utf-8")
            kind = ""
        else:
            payload = body if isinstance(body, bytes) else encode_json(body)
            kind = "Content-Type: application/json\r\n"
        status_line = _STATUS_LINES.get(status) or f"HTTP/1.1 {status} \r\n"
        head = (
            f"{status_line}{self._date()}{kind}"
            f"Content-Length: {len(payload)}\r\n"
        )
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        if close:
            head += "Connection: close\r\n"
        return (head + "\r\n").encode("latin-1") + payload

    def _date(self) -> str:
        """The ``Date`` header line, formatted at most once a second."""
        now = int(time.time())
        second, line = self._date_line
        if second != now:
            line = f"Date: {email.utils.formatdate(now, usegmt=True)}\r\n"
            self._date_line = (now, line)
        return line


__all__ = [
    "Handler",
    "HttpRefusal",
    "HttpRequest",
    "JsonHttpFront",
    "MAX_BODY",
    "MAX_HEADERS",
    "MAX_LINE",
    "Reply",
    "Request",
    "ServiceStartupError",
    "UNMATCHED_ROUTE",
    "encode_json",
    "error_reply",
    "read_request",
]
