"""The one JSON-over-HTTP front, driven through both daemons built on it.

Every case runs against a :class:`HiddenDBServer` and a
:class:`CrawlCoordinator` (fronting one such server), over raw sockets
where the case is about framing or connection reuse.
"""

from __future__ import annotations

import http.client
import io
import json
import logging
import socket
import string
import time
import urllib.error
import urllib.parse
import urllib.request
from http import HTTPStatus

import pytest
from hypothesis import given, settings, strategies as st

from repro.coordinator import CrawlCoordinator
from repro.hiddendb import InterfaceKind
from repro.hiddendb.query import Query
from repro.service.front import (
    MAX_BODY,
    MAX_HEADERS,
    HttpRefusal,
    HttpRequest,
    read_request,
)
from repro.service.wire import encode_query

from ..conftest import (
    exchanges_on_one_connection,
    make_table,
    parse_prometheus,
    raw_exchange,
)

#: Per daemon: the metric family labelled by route, and a request that
#: hits a known route with the label readers depend on (crawlbench reads
#: the server's ``/api/query`` series, the coordinator tests its job
#: route).
ROUTE_LABELS = {
    "server": ("hiddendb_request_latency_seconds", "/api/query"),
    "coordinator": ("coordinator_requests_total", "/api/jobs/:id"),
}


@pytest.fixture(params=["server", "coordinator"])
def daemon(request, serve, tmp_path):
    """A started daemon of each kind (the coordinator fronts one server)."""
    table = make_table(
        [(0, 9), (3, 3), (9, 0), (5, 5)], kinds=InterfaceKind.RQ, domain=10
    )
    backend = serve(table, k=2)
    if request.param == "server":
        return backend
    coordinator = CrawlCoordinator([backend.url], str(tmp_path / "jobs.db"))
    request.addfinalizer(coordinator.stop)
    return coordinator.start()


def kind(daemon) -> str:
    return "coordinator" if isinstance(daemon, CrawlCoordinator) else "server"


def request_bytes(
    method: str,
    path: str,
    body: bytes = b"",
    *,
    version: str = "HTTP/1.1",
    headers: tuple[str, ...] = (),
) -> bytes:
    head = f"{method} {path} {version}\r\nHost: test\r\n"
    for line in headers:
        head += f"{line}\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


def get_status(url: str) -> int:
    try:
        with urllib.request.urlopen(url, timeout=10) as reply:
            return reply.status
    except urllib.error.HTTPError as err:
        err.close()
        return err.code


def route_series(daemon, family: str, settled) -> set[str]:
    """Route label values of ``family`` once ``settled(labels)`` holds.

    Requests are counted just after their reply goes out, so a scrape
    can miss the last few; poll (up to 5 s) instead of racing them.
    """
    deadline = time.monotonic() + 5.0
    while True:
        with urllib.request.urlopen(daemon.url + "/metrics", timeout=10) as r:
            samples = parse_prometheus(r.read().decode())[family]["samples"]
        labels = {dict(labels)["route"] for _name, labels in samples}
        if settled(labels) or time.monotonic() > deadline:
            return labels
        time.sleep(0.02)


def hit_known_route(daemon) -> None:
    if kind(daemon) == "server":
        request = urllib.request.Request(
            daemon.url + "/api/query",
            data=json.dumps({"query": encode_query(Query.select_all())})
            .encode(),
            method="POST",
        )
        urllib.request.urlopen(request, timeout=10).close()
    else:
        assert get_status(daemon.url + "/api/jobs/nope") == 404  # no job


MALFORMED_REQUEST_LINES = {
    "garbage": b"GARBAGE\r\n\r\n",
    "http-9.9": b"GET /healthz HTTP/9.9\r\n\r\n",
    "70kb-uri": b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
}


@pytest.mark.parametrize(
    "line", MALFORMED_REQUEST_LINES.values(), ids=MALFORMED_REQUEST_LINES
)
def test_malformed_request_line_gets_a_response(daemon, line):
    # The stdlib logs the error before any header is parsed; a log hook
    # that reads the headers must not turn that into a dropped connection.
    assert raw_exchange(daemon.url, line)
    assert get_status(daemon.url + "/healthz") == 200


BODY_CARRYING_REQUESTS = {
    "get-with-body": ("GET", "/healthz"),
    "post-unknown-route": ("POST", "/api/nope"),
    "delete-with-body": ("DELETE", "/api/jobs/nope"),
}


@pytest.mark.parametrize(
    "method, path",
    BODY_CARRYING_REQUESTS.values(),
    ids=BODY_CARRYING_REQUESTS,
)
def test_declared_body_is_read_whatever_the_route(daemon, method, path):
    # An unread body would be parsed as the next request line on the
    # keep-alive connection.
    first, second = exchanges_on_one_connection(
        daemon.url,
        [
            request_bytes(method, path, b'{"tenant": "x"}'),
            request_bytes("GET", "/healthz"),
        ],
    )
    assert first[0] in (200, 404)
    assert second[0] == 200
    assert json.loads(second[1])["status"] == "ok"


def test_unmatched_paths_share_one_route_label(daemon):
    family, known = ROUTE_LABELS[kind(daemon)]
    hit_known_route(daemon)
    before = route_series(
        daemon, family, lambda labels: {known, "/metrics"} <= labels
    )
    assert known in before
    for index in range(50):
        assert get_status(f"{daemon.url}/junk/{index}") == 404
    after = route_series(daemon, family, lambda labels: labels - before)
    assert before < after
    assert len(after - before) <= 1


@pytest.mark.parametrize("body", [b"{not json", b"[1, 2]"])
def test_bad_post_body_is_400_with_the_one_error_shape(daemon, body):
    path = "/api/query" if kind(daemon) == "server" else "/api/jobs"
    ((status, reply),) = exchanges_on_one_connection(
        daemon.url, [request_bytes("POST", path, body)]
    )
    assert status == 400
    assert json.loads(reply) == {
        "error": "bad_request",
        "message": "invalid JSON body",
        "retriable": False,
    }


def test_unknown_route_is_404_with_the_one_error_shape(daemon):
    ((status, reply),) = exchanges_on_one_connection(
        daemon.url, [request_bytes("GET", "/nope")]
    )
    assert status == 404
    assert json.loads(reply) == {"error": "not_found", "retriable": False}


def test_handler_failure_is_a_500_reply_and_the_connection_survives(
    serve, caplog, monkeypatch
):
    table = make_table([(0, 9), (3, 3)], kinds=InterfaceKind.RQ, domain=10)
    server = serve(table, k=1)

    def broken_view():
        raise RuntimeError("view exploded")

    monkeypatch.setattr(server, "_handle_stats", broken_view)
    with caplog.at_level(logging.ERROR, logger="repro.service"):
        failed, healthy = exchanges_on_one_connection(
            server.url,
            [
                request_bytes("GET", "/api/stats"),
                request_bytes("GET", "/healthz"),
            ],
        )
    assert failed[0] == 500
    assert json.loads(failed[1]) == {
        "error": "internal_error",
        "message": "RuntimeError: view exploded",
        "retriable": False,
    }
    assert healthy[0] == 200
    logged = [record for record in caplog.records if record.exc_info]
    assert len(logged) == 1
    assert "GET /api/stats" in logged[0].getMessage()


# ----------------------------------------------------------------------
# the reader: what the front accepts, what it refuses, how it frames
# ----------------------------------------------------------------------


class _Unclosable(io.BytesIO):
    """Received bytes that ``http.client`` may "close" after each reply."""

    def close(self) -> None:
        pass


class _Received:
    """Stands in for the socket ``http.client.HTTPResponse`` reads from."""

    def __init__(self, stream: io.BytesIO) -> None:
        self._stream = stream

    def makefile(self, mode: str) -> io.BytesIO:
        return self._stream


def parse_replies(data: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Every reply in ``data``: ``(status, headers by lower-cased name,
    body)``.  An interim ``100 Continue`` is skipped."""
    stream = _Unclosable(data)
    replies = []
    while stream.tell() < len(data):
        response = http.client.HTTPResponse(_Received(stream))
        response.begin()
        headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        replies.append((response.status, headers, response.read()))
    return replies


#: Per daemon: a POST route and a body it answers with success.
POST_ROUTES = {
    "server": (
        "/api/query",
        json.dumps({"query": encode_query(Query.select_all())}).encode(),
        200,
    ),
    "coordinator": (
        "/api/jobs",
        json.dumps({"tenant": "alice", "budget": 5}).encode(),
        201,
    ),
}


def test_requests_sent_in_one_write_are_answered_in_order(daemon):
    path, _body, _status = POST_ROUTES[kind(daemon)]
    data = b"".join([
        request_bytes("GET", "/healthz"),
        request_bytes("POST", path, b"[1, 2]"),
        request_bytes("GET", "/nope"),
        request_bytes("GET", "/healthz", headers=("Connection: close",)),
    ])
    replies = parse_replies(raw_exchange(daemon.url, data))
    assert [status for status, _headers, _body in replies] == [
        200, 400, 404, 200,
    ]
    assert json.loads(replies[0][2])["status"] == "ok"
    assert json.loads(replies[1][2])["message"] == "invalid JSON body"
    assert json.loads(replies[2][2])["error"] == "not_found"
    assert replies[3][1]["connection"] == "close"
    assert "connection" not in replies[0][1]
    assert all("date" in headers for _status, headers, _body in replies)


@pytest.mark.parametrize("daemon", ["server"], indirect=True)
def test_header_names_match_in_any_case(daemon):
    path, body, _status = POST_ROUTES["server"]
    first = request_bytes(
        "POST", path, body, headers=("x-api-key: alice", "x-request-id: r1")
    )
    retry = request_bytes(
        "POST",
        path,
        body,
        headers=("X-API-KEY: alice", "X-Request-ID: r1", "connection: CLOSE"),
    )
    replies = parse_replies(raw_exchange(daemon.url, first + retry))
    assert [status for status, _headers, _body in replies] == [200, 200]
    assert replies[0][2] == replies[1][2]  # the retry is replayed
    stats = daemon.stats()
    assert stats.usage("alice").issued == 1
    assert stats.queries_total == 1


@pytest.mark.parametrize(
    "version, headers",
    [("HTTP/1.1", ("Connection: close",)), ("HTTP/1.0", ())],
    ids=["connection-close", "http-1.0"],
)
def test_connection_closes_after_the_reply_when_asked(
    daemon, version, headers
):
    # raw_exchange reads until the server closes: it times out otherwise.
    data = request_bytes("GET", "/healthz", version=version, headers=headers)
    ((status, reply_headers, body),) = parse_replies(
        raw_exchange(daemon.url, data)
    )
    assert status == 200
    assert json.loads(body)["status"] == "ok"
    assert reply_headers["connection"] == "close"


def test_http_1_0_keep_alive_keeps_the_connection(daemon):
    first, second = exchanges_on_one_connection(
        daemon.url,
        [
            request_bytes(
                "GET",
                "/healthz",
                version="HTTP/1.0",
                headers=("Connection: keep-alive",),
            ),
            request_bytes("GET", "/healthz"),
        ],
    )
    assert first[0] == second[0] == 200


def test_expect_100_continue_is_answered_before_the_body(daemon):
    path, body, answered = POST_ROUTES[kind(daemon)]
    head, _, body = request_bytes(
        "POST",
        path,
        body,
        headers=("Expect: 100-continue", "Connection: close"),
    ).partition(b"\r\n\r\n")
    parts = urllib.parse.urlsplit(daemon.url)
    interim = b"HTTP/1.1 100 Continue\r\n\r\n"
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=5.0
    ) as sock:
        sock.sendall(head + b"\r\n\r\n")
        received = b""
        while len(received) < len(interim):
            chunk = sock.recv(len(interim) - len(received))
            assert chunk, "closed before 100 Continue"
            received += chunk
        assert received == interim
        sock.sendall(body)
        while chunk := sock.recv(65536):
            received += chunk
    ((status, _headers, reply),) = parse_replies(received)
    assert status == answered
    if kind(daemon) == "coordinator":
        assert json.loads(reply)["tenant"] == "alice"
    else:
        assert json.loads(reply)["rows"]


def with_headers(count: int) -> bytes:
    """A GET carrying ``count`` header lines, ``Host`` included."""
    extra = tuple(f"X-Header-{index}: {index}" for index in range(count - 1))
    return request_bytes("GET", "/healthz", headers=extra)


def test_a_hundred_headers_are_read(daemon):
    ((status, _body),) = exchanges_on_one_connection(
        daemon.url, [with_headers(MAX_HEADERS)]
    )
    assert status == 200


#: Requests the front refuses before routing, and the status of each.
REFUSALS = {
    "garbage-line": (b"GARBAGE\r\n\r\n", 400),
    "two-word-line": (b"GET /healthz\r\n\r\n", 400),
    "http-2.0": (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    "put": (request_bytes("PUT", "/healthz"), 501),
    "70kb-uri": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    "70kb-header": (
        request_bytes("GET", "/healthz", headers=("X-Big: " + "a" * 70_000,)),
        431,
    ),
    "101-headers": (with_headers(MAX_HEADERS + 1), 431),
    "no-colon": (request_bytes("GET", "/healthz", headers=("X-Nope",)), 400),
    "folded": (
        request_bytes("GET", "/healthz", headers=("X-A: 1", " folded")),
        400,
    ),
    "chunked": (
        request_bytes(
            "POST", "/api/jobs", headers=("Transfer-Encoding: chunked",)
        )
        + b"2\r\n{}\r\n0\r\n\r\n",
        501,
    ),
    "repeated-content-length": (
        request_bytes(
            "POST",
            "/api/jobs",
            headers=("Content-Length: 2", "content-length: 2"),
        )
        + b"{}",
        400,
    ),
    "hex-content-length": (
        request_bytes("POST", "/api/jobs", headers=("Content-Length: 0x2",))
        + b"{}",
        400,
    ),
    "petabyte-content-length": (
        request_bytes(
            "POST", "/api/jobs", headers=(f"Content-Length: {10 ** 15}",)
        ),
        413,
    ),
}


@pytest.mark.parametrize("data, status", REFUSALS.values(), ids=REFUSALS)
def test_refusal_has_the_one_error_shape_and_closes(daemon, data, status):
    ((got, headers, body),) = parse_replies(raw_exchange(daemon.url, data))
    assert got == status
    assert headers["connection"] == "close"
    reply = json.loads(body)
    assert reply == {
        "error": HTTPStatus(status).name.lower(),
        "message": reply["message"],
        "retriable": False,
    }
    assert isinstance(reply["message"], str)
    assert get_status(daemon.url + "/healthz") == 200


def test_body_at_the_cap_is_answered_and_one_over_is_refused(daemon):
    path, body, answered = POST_ROUTES[kind(daemon)]
    # JSON allows trailing whitespace: the route's own body, padded.
    at_cap = body + b" " * (MAX_BODY - len(body))
    first, second = exchanges_on_one_connection(
        daemon.url,
        [request_bytes("POST", path, at_cap), request_bytes("GET", "/healthz")],
        timeout=30.0,
    )
    assert first[0] == answered
    assert second[0] == 200
    over = request_bytes(
        "POST", path, headers=(f"Content-Length: {MAX_BODY + 1}",)
    )
    ((status, headers, _reply),) = parse_replies(raw_exchange(daemon.url, over))
    assert status == 413
    assert headers["connection"] == "close"


def test_oversized_body_is_refused_before_continue_or_any_body_byte():
    sent: list[bool] = []
    head = request_bytes(
        "POST",
        "/api/query",
        headers=(f"Content-Length: {10 ** 15}", "Expect: 100-continue"),
    )
    rfile = io.BytesIO(head + b"{}")
    with pytest.raises(HttpRefusal) as refusal:
        read_request(rfile, lambda: sent.append(True))
    assert refusal.value.status == 413
    assert sent == []
    assert rfile.read() == b"{}"


#: How much of its body a truncated request sends before the client
#: shuts its side down.
TRUNCATIONS = {"headers-only": 0, "half-body": 0.5}


@pytest.mark.parametrize("daemon", ["server"], indirect=True)
@pytest.mark.parametrize("sent", TRUNCATIONS.values(), ids=TRUNCATIONS)
def test_truncated_query_is_refused_and_billed_nothing(daemon, sent):
    # A query that matches none of the fixture's rows: billed as sent, it
    # answers 0 rows; billed as an empty body it used to answer ``*``.
    body = json.dumps(
        {"query": {"ranges": {"0": [1, 2]}, "filters": {}}}
    ).encode()
    data = request_bytes(
        "POST", "/api/query", body, headers=("X-Request-Id: rid-1",)
    )
    cut = len(data) - len(body) + int(len(body) * sent)
    ((status, headers, reply),) = parse_replies(
        raw_exchange(daemon.url, data[:cut], half_close=True)
    )
    assert status == 400
    assert headers["connection"] == "close"
    assert json.loads(reply)["error"] == "bad_request"
    assert daemon.stats().queries_total == 0
    # Nothing was cached under the id: the whole request is billed fresh.
    ((status, headers, reply),) = parse_replies(
        raw_exchange(daemon.url, data, half_close=True)
    )
    assert status == 200
    assert headers["x-queries-issued"] == "1"
    answer = json.loads(reply)
    assert answer["rows"] == []
    assert answer["overflow"] is False


@pytest.mark.parametrize("daemon", ["coordinator"], indirect=True)
@pytest.mark.parametrize("sent", TRUNCATIONS.values(), ids=TRUNCATIONS)
def test_truncated_job_submission_files_no_job(daemon, sent):
    path, body, _status = POST_ROUTES["coordinator"]
    data = request_bytes("POST", path, body)
    cut = len(data) - len(body) + int(len(body) * sent)
    ((status, _headers, reply),) = parse_replies(
        raw_exchange(daemon.url, data[:cut], half_close=True)
    )
    assert status == 400
    assert json.loads(reply)["error"] == "bad_request"
    with urllib.request.urlopen(daemon.url + "/api/jobs", timeout=10) as r:
        assert json.loads(r.read())["jobs"] == []


# ----------------------------------------------------------------------
# property: a request parses alike however the stream is cut
# ----------------------------------------------------------------------


class _Trickle(io.RawIOBase):
    """A raw stream of ``data`` that returns at most ``most`` bytes per
    read and never reads across a position in ``cuts``."""

    def __init__(self, data: bytes, cuts: list[int], most: int) -> None:
        self._data = data
        self._cuts = sorted({cut for cut in cuts if 0 < cut < len(data)})
        self._most = most
        self._at = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        stop = next(
            (cut for cut in self._cuts if cut > self._at), len(self._data)
        )
        size = min(len(buffer), self._most, stop - self._at)
        buffer[:size] = self._data[self._at:self._at + size]
        self._at += size
        return size


_PATH = string.ascii_letters + string.digits + "/:-_?=&%."
_TOKEN = string.ascii_letters + string.digits + "-"
_VALUE = string.ascii_letters + string.digits + " :;,=/.-_\t\"'()"


@st.composite
def wire_requests(draw) -> tuple[bytes, HttpRequest]:
    """A valid request as sent, and as the front must read it."""
    method = draw(st.sampled_from(["GET", "POST", "DELETE"]))
    path = "/" + draw(st.text(_PATH, max_size=24))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    body = draw(st.binary(max_size=300))
    lines = [("Host", "test")]
    names = draw(
        st.lists(
            st.text(_TOKEN, min_size=1, max_size=10),
            max_size=6,
            unique_by=str.lower,
        )
    )
    for name in names:
        value = draw(st.text(_VALUE, max_size=30))
        lines.append((f"X-{name}", value))
    if body or draw(st.booleans()):
        lines.append(("Content-Length", str(len(body))))
    connection = draw(st.sampled_from([None, "close", "keep-alive", "Close"]))
    if connection is not None:
        lines.append(("Connection", connection))
    if draw(st.booleans()):
        expect = draw(st.sampled_from(["100-continue", "100-Continue"]))
        lines.append(("Expect", expect))
    lines = draw(st.permutations(lines))
    spaced = draw(st.sampled_from([": ", ":", ":  ", ":\t"]))
    head = f"{method} {path} {version}\r\n" + "".join(
        f"{draw(st.sampled_from([name, name.lower(), name.upper()]))}"
        f"{spaced}{value}\r\n"
        for name, value in lines
    )
    headers = {name.lower(): value.strip() for name, value in lines}
    if version == "HTTP/1.1":
        keep_alive = headers.get("connection", "").lower() != "close"
    else:
        keep_alive = headers.get("connection", "").lower() == "keep-alive"
    expected = HttpRequest(method, path, version, headers, body, keep_alive)
    return head.encode("latin-1") + b"\r\n" + body, expected


def _read_all(rfile) -> tuple[list[HttpRequest | int], list[int]]:
    """Every request off ``rfile`` (a refusal as its status), and the
    positions of those that asked for an interim reply."""
    continued: list[int] = []
    read: list[HttpRequest | int] = []
    while True:
        try:
            request = read_request(rfile, lambda: continued.append(len(read)))
        except HttpRefusal as refusal:
            read.append(refusal.status)
            return read, continued
        if request is None:
            return read, continued
        read.append(request)


def _expecting(requests: list[HttpRequest]) -> list[int]:
    return [
        index
        for index, request in enumerate(requests)
        if request.version == "HTTP/1.1"
        and request.headers.get("expect", "").lower() == "100-continue"
    ]


@settings(max_examples=150, deadline=None)
@given(
    sent=st.lists(wire_requests(), min_size=1, max_size=4),
    data=st.data(),
)
def test_requests_parse_alike_however_the_stream_is_cut(sent, data):
    stream = b"".join(raw for raw, _request in sent)
    expected = [request for _raw, request in sent]
    whole = _read_all(io.BufferedReader(io.BytesIO(stream)))
    assert whole == (expected, _expecting(expected))
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=40))
    most = data.draw(st.integers(1, 64))
    buffer_size = data.draw(st.sampled_from([1, 7, 64, 8192]))
    trickled = io.BufferedReader(_Trickle(stream, cuts, most), buffer_size)
    assert _read_all(trickled) == whole
    # Ended early, the stream yields the requests it holds whole, then a
    # 400 -- or nothing, when it ends where a request does.
    end = data.draw(st.integers(0, len(stream)))
    ends = [0]
    for raw, _request in sent:
        ends.append(ends[-1] + len(raw))
    complete = [
        request for stop, request in zip(ends[1:], expected) if stop <= end
    ]
    tail = [] if end in ends else [400]
    read, _continued = _read_all(
        io.BufferedReader(_Trickle(stream[:end], cuts, most), buffer_size)
    )
    assert read == complete + tail
