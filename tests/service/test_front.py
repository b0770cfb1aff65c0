"""The one JSON-over-HTTP front, driven through both daemons built on it.

Every case runs against a :class:`HiddenDBServer` and a
:class:`CrawlCoordinator` (fronting one such server), over raw sockets
where the case is about framing or connection reuse.
"""

from __future__ import annotations

import json
import logging
import time
import urllib.error
import urllib.request

import pytest

from repro.coordinator import CrawlCoordinator
from repro.hiddendb import InterfaceKind
from repro.hiddendb.query import Query
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


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
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
