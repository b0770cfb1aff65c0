"""Fixtures for the networked hidden-database service tests."""

from __future__ import annotations

from contextlib import ExitStack

import pytest

from repro.service import (
    AsyncRemoteTopKInterface,
    HiddenDBServer,
    RemoteTopKInterface,
)


#: The client axis of the wire grids.  The concurrent strategy calls the
#: blocking client from its thread pool and awaits the asyncio client on
#: the client's own event loop, so each client pins one transport.
CLIENTS = {
    "blocking": RemoteTopKInterface,
    "asyncio": AsyncRemoteTopKInterface,
}


@pytest.fixture
def serve():
    """Start :class:`HiddenDBServer` instances that are stopped on teardown.

    Usage: ``server = serve(table, k=5, key_budget=100)``.
    """
    started: list[HiddenDBServer] = []

    def _serve(table, **kwargs) -> HiddenDBServer:
        server = HiddenDBServer(table, **kwargs).start()
        started.append(server)
        return server

    yield _serve
    for server in started:
        server.stop()


@pytest.fixture
def connect():
    """Build remote clients that are closed on teardown.

    Usage: ``remote = connect(server.url, api_key="crawler")``; pass
    ``client=AsyncRemoteTopKInterface`` for the asyncio client.
    """
    with ExitStack() as stack:
        def _connect(*args, client=RemoteTopKInterface, **kwargs):
            return stack.enter_context(client(*args, **kwargs))

        yield _connect


@pytest.fixture
def no_sleep():
    """A no-op backoff sleeper keeping retry tests instant."""
    return lambda _seconds: None


@pytest.fixture(
    params=[RemoteTopKInterface, AsyncRemoteTopKInterface],
    ids=["blocking", "async"],
)
def client_cls(request):
    """Each remote-client transport, as a class to construct and patch.

    A per-test subclass: patching its transport hooks leaves the real
    class untouched, and every client a test opens is closed at teardown
    (the async transport owns an event loop).
    """
    opened = []

    class Client(request.param):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    yield Client
    for client in opened:
        client.close()
