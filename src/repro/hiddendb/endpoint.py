"""The :class:`SearchEndpoint` protocol -- the algorithms' data-access seam.

Every discovery algorithm in :mod:`repro.core` touches the hidden database
through exactly four members: the public ``schema`` of the search form, the
top-``k`` output limit, the ``query()`` call and the ``queries_issued``
counter (the paper's sole cost metric).  This protocol names that surface so
alternative backends can stand in for the in-process simulator:

* :class:`~repro.hiddendb.interface.TopKInterface` -- the canonical
  in-process implementation over a :class:`~repro.hiddendb.table.Table`;
* :class:`~repro.service.client.RemoteTopKInterface` -- the same surface
  spoken over HTTP against a :mod:`repro.service.server`, with
  retry/backoff.

The :class:`~repro.core.base.DiscoverySession` and the
:class:`~repro.core.facade.Discoverer` facade are typed against this
protocol, so any conforming object -- including third-party adapters over
real web search forms -- plugs into every registered algorithm unchanged.

Implementations must preserve the paper's access-model contract:

* ``query()`` answers a conjunctive :class:`~repro.hiddendb.query.Query`
  with at most ``k`` tuples under a domination-consistent ranking;
* queries the interface cannot express raise
  :class:`~repro.hiddendb.errors.UnsupportedQueryError`;
* an exhausted query allowance raises
  :class:`~repro.hiddendb.errors.QueryBudgetExceeded` *without* charging
  the rejected query;
* ``queries_issued`` is monotone and counts exactly the billable queries
  (a caching backend that answers from its cache must not advance it).

An endpoint may additionally offer the **optional** ``batch_query()``
member (:class:`BatchSearchEndpoint`): several independent queries
answered in one call -- billed, validated and fault-injected *per item*,
but paying transport overhead (one HTTP round trip against the networked
service) only once.  The execution engine's concurrent
:class:`~repro.core.engine.AsyncStrategy` discovers the member by
duck-typing and packs frontier waves into batches; endpoints without it
are served with per-query dispatch.  That strategy calls a blocking
endpoint from a thread pool, so endpoints that implement ``batch_query``
(or that are driven with ``workers > 1``) must tolerate concurrent
``query()`` calls from multiple threads.  An endpoint that owns an event
loop (an ``aio_runner``, like the asyncio remote client) is awaited on
that loop instead, by the thread that drives the crawl.
"""

from __future__ import annotations

import asyncio
from typing import Collection, Coroutine, Protocol, Sequence, runtime_checkable

from .attributes import Schema
from .interface import QueryResult
from .query import Query


@runtime_checkable
class SearchEndpoint(Protocol):
    """Structural type of a top-k hidden-database search endpoint."""

    @property
    def schema(self) -> Schema:
        """The (public) schema of the search form."""
        ...

    @property
    def k(self) -> int:
        """Maximum number of tuples returned per query."""
        ...

    @property
    def queries_issued(self) -> int:
        """Billable queries issued so far -- the paper's cost metric."""
        ...

    def query(self, query: Query) -> QueryResult:
        """Issue one conjunctive query and return its top-k answer."""
        ...


@runtime_checkable
class BatchSearchEndpoint(SearchEndpoint, Protocol):
    """A search endpoint that also answers batches in one round trip."""

    def batch_query(self, queries: Sequence[Query]) -> tuple[QueryResult, ...]:
        """Answer several independent queries in one call.

        Semantically equivalent to ``tuple(self.query(q) for q in
        queries)`` -- per-item billing, validation and failure mapping --
        but implementations amortise transport overhead across the batch.
        The first terminal per-item failure (exhausted budget, unsupported
        query) is raised with every answer actually obtained attached as
        ``exc.partial_results``: a tuple aligned with the batch (or a
        prefix of it) whose ``None`` holes mark exactly the items that
        were neither answered nor billed.  Callers never lose answers they
        paid for.
        """
        ...


@runtime_checkable
class AsyncSearchEndpoint(Protocol):
    """Structural type of a *non-blocking* top-k search endpoint.

    The async twin of :class:`SearchEndpoint`: same metadata surface
    (``schema`` / ``k`` / ``queries_issued``) and the same access-model
    contract per query, but ``aquery()`` is a coroutine, so an event-loop
    execution strategy can keep hundreds of queries in flight on one
    thread.  :class:`~repro.service.aclient.AsyncRemoteTopKInterface` is
    the canonical implementation.  The engine awaits ``aquery`` only on
    an endpoint that owns its event loop (``aio_runner``); an endpoint
    without one must also offer the blocking ``query()``.
    """

    @property
    def schema(self) -> Schema:
        """The (public) schema of the search form."""
        ...

    @property
    def k(self) -> int:
        """Maximum number of tuples returned per query."""
        ...

    @property
    def queries_issued(self) -> int:
        """Billable queries issued so far -- the paper's cost metric."""
        ...

    async def aquery(self, query: Query) -> QueryResult:
        """Issue one conjunctive query without blocking the event loop."""
        ...


@runtime_checkable
class AsyncBatchSearchEndpoint(AsyncSearchEndpoint, Protocol):
    """An async endpoint that also answers batches in one round trip.

    ``abatch_query`` carries the exact ``partial_results`` contract of
    :meth:`BatchSearchEndpoint.batch_query`.
    """

    async def abatch_query(
        self, queries: Sequence[Query]
    ) -> tuple[QueryResult, ...]:
        """Answer several independent queries in one non-blocking call."""
        ...


def run_inline(coro: Coroutine):
    """Run ``coro`` to completion in the calling thread, in one ``send``.

    For coroutines whose awaits never suspend (each reaches a blocking
    call or a plain value): the blocking remote client's protocol, and
    the engine's transports on a pool thread or inline.  No event loop,
    no thread hop.  A coroutine that does suspend is closed and refused
    with :class:`RuntimeError` instead of hanging.
    """
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise RuntimeError(
        f"{coro.__qualname__} suspended with no event loop to resume it "
        f"(was an async sleep or endpoint given to a blocking caller?)"
    )


class EventLoopRunner:
    """An asyncio event loop run by the thread that waits on it.

    The loop has no thread of its own.  :meth:`submit` creates a task
    without running it, and :meth:`wait` runs the loop until that task is
    done, so tasks start in the order they were submitted, on the waiting
    thread, and the loop sits idle between waits.  The execution engine
    submits an async endpoint's transports to the endpoint's own runner,
    and the asyncio client runs its blocking surface here.  One runner
    owns one loop for its whole lifetime, so loop-affine resources
    (pooled connections) stay valid across calls.

    One thread at a time may drive a runner, and never from inside a
    running event loop (asyncio refuses to run a second loop there).
    """

    def __init__(self) -> None:
        self._loop = asyncio.new_event_loop()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The runner's event loop (for loop-affine resource keying)."""
        return self._loop

    def submit(self, coro: Coroutine) -> asyncio.Task:
        """A task of ``coro`` on the loop, started by the next wait."""
        return self._loop.create_task(coro)

    def wait(self, task: asyncio.Task):
        """Run the loop until ``task`` is done and return its result."""
        if not task.done():
            self._loop.run_until_complete(task)
        return task.result()

    def run(self, coro: Coroutine):
        """Run ``coro`` to completion and return its result (blocking)."""
        return self.wait(self.submit(coro))

    def cancel(self, tasks: Collection[asyncio.Task]) -> None:
        """Cancel ``tasks``, then run the loop until every one of them has
        finished; their outcomes, whatever they are, are dropped."""
        for task in tasks:
            task.cancel()
        if tasks:
            self._loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )

    def close(self) -> None:
        """Cancel leftover tasks, run them out, and close the loop."""
        loop = self._loop
        if loop.is_closed():
            return
        try:
            self.cancel(asyncio.all_tasks(loop))
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()

    def __enter__(self) -> "EventLoopRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "AsyncBatchSearchEndpoint",
    "AsyncSearchEndpoint",
    "BatchSearchEndpoint",
    "EventLoopRunner",
    "SearchEndpoint",
    "run_inline",
]
