"""Out-of-program tracing for the crawl benchmark.

The benchmark measures layers from outside: while a :class:`Tracer` is
installed it replaces each layer's public entry point with a timing wrapper
(and puts the original back afterwards).  Every wrapped call becomes one span
``(crawl, span_id, parent_id, name, start, end)`` kept in memory; spans of one
crawl share the crawl id.  The parent of a span is the span open in the
calling context when it started -- a ``ContextVar``, so coroutines the async
strategy submits to the client's event loop inherit the drain that
dispatched them.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Span names are ``<layer>.<operation>``, the layer being
the module that owns the wrapped entry point.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.core.base as core_base
import repro.service.aclient as aclient
from repro.core.base import DiscoverySession
from repro.core.engine import AsyncStrategy, Frontier, SerialStrategy
from repro.hiddendb.interface import TopKInterface
from repro.store import CrawlStore

#: Root span of one ``Discoverer.run`` (opened by the workload).
CRAWL = "core.expand.crawl"

#: Layers whose self time is algorithm expansion plus drain-core internals:
#: the drain and the sequential fetch run the expansion callbacks.
DRAIN = "core.engine.drain"
EXPAND_SPANS = (CRAWL, DRAIN, "core.engine.fetch")
#: Spans that carry one query to the endpoint.
TRANSPORT_SPANS = ("hiddendb.query", "service.aclient.rtt")

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "crawlbench_span", default=None
)


class Tracer:
    """In-memory span recorder with installable layer wrappers.

    ``delays`` maps a span name to seconds slept inside that span on every
    call -- the attribution self-test's injected slowdown.
    """

    def __init__(self, delays: dict[str, float] | None = None) -> None:
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        #: Per-crawl event counters (rows returned / new, ledger hits).
        self.counters: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.crawl_id = 0
        self._ids = itertools.count(1)
        self._delays = dict(delays or {})

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = _current.get()
        token = _current.set(span_id)
        start = time.perf_counter()
        try:
            delay = self._delays.get(name)
            if delay:
                time.sleep(delay)
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.spans.append(
                (self.crawl_id, span_id, parent, name, start, end)
            )

    @contextmanager
    def crawl(self, crawl_id: int) -> Iterator[None]:
        """Root span of one ``Discoverer.run`` belonging to ``crawl_id``."""
        self.crawl_id = crawl_id
        with self.span(CRAWL):
            yield

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[self.crawl_id][key] += amount

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_async(self, fn: Callable, name: str) -> Callable:
        # The span (and an injected delay, which then blocks the client's
        # loop like slower client code would) stays in the awaiting task.
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            with self.span(name):
                return await fn(*args, **kwargs)

        return wrapper

    def _wrap_record(self, fn: Callable) -> Callable:
        """``DiscoverySession.record`` plus the useful-work counters."""
        tracer = self

        @functools.wraps(fn)
        def record(session, result):
            rows = result.rows
            tracer.count("rows_returned", len(rows))
            tracer.count(
                "rows_new",
                sum(1 for row in rows if not session.has_retrieved(row.rid)),
            )
            with tracer.span("core.base.record"):
                return fn(session, result)

        return record

    def _wrap_ledger_get(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def ledger_get(*args, **kwargs):
            with tracer.span("store.get"):
                hit = fn(*args, **kwargs)
            if hit is not None:
                tracer.count("ledger_hits")
            return hit

        return ledger_get

    def _patches(self) -> list[tuple[Any, str, Any]]:
        retrieved = DiscoverySession.__dict__["retrieved_rows"]
        return [
            (DiscoverySession, "record",
             self._wrap_record(DiscoverySession.record)),
            (DiscoverySession, "retrieved_rows", property(
                self._wrap(retrieved.fget, "core.base.retrieved_rows"))),
            (SerialStrategy, "drain",
             self._wrap(SerialStrategy.drain, "core.engine.drain")),
            (AsyncStrategy, "drain",
             self._wrap(AsyncStrategy.drain, "core.engine.drain")),
            (Frontier, "fetch",
             self._wrap(Frontier.fetch, "core.engine.fetch")),
            # Where repro.core.base binds them: the final skyline pass of
            # result() and the durable-only incremental tracker.
            (core_base, "skyline_of_rows",
             self._wrap(core_base.skyline_of_rows, "core.dominance.final")),
            (core_base, "incremental_skyline_update",
             self._wrap(core_base.incremental_skyline_update,
                        "core.dominance.track")),
            (TopKInterface, "query",
             self._wrap(TopKInterface.query, "hiddendb.query")),
            (aclient.AsyncRemoteTopKInterface, "aquery",
             self._wrap_async(aclient.AsyncRemoteTopKInterface.aquery,
                              "service.aclient.rtt")),
            # Where the async client imports them.
            (aclient, "encode_query",
             self._wrap(aclient.encode_query, "service.wire.encode")),
            (aclient, "decode_answer",
             self._wrap(aclient.decode_answer, "service.wire.decode")),
            (CrawlStore, "ledger_put",
             self._wrap(CrawlStore.ledger_put, "store.put")),
            (CrawlStore, "ledger_get",
             self._wrap_ledger_get(CrawlStore.ledger_get)),
            (CrawlStore, "save_checkpoint",
             self._wrap(CrawlStore.save_checkpoint, "store.checkpoint")),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrapper in self._patches():
                saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)  # inherited: drop the shadow
                else:
                    setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def crawl_spans(self, crawl_id: int) -> list[tuple]:
        return [span for span in self.spans if span[0] == crawl_id]

    def dump(self, path) -> None:
        """Write every span once, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as sink:
            for crawl, span_id, parent, name, start, end in self.spans:
                sink.write(json.dumps(
                    [crawl, span_id, parent, name, start, end]) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_of(name: str) -> str:
    """The budget layer of a span: engine drain/fetch self time is
    expansion (they run the expansion callbacks)."""
    return "core.expand" if name in EXPAND_SPANS else name.rsplit(".", 1)[0]


class SpanStats:
    """Call counts, inclusive, self and wall-clock times of one crawl's spans.

    ``self_time`` follows the span definition (duration minus child
    coverage), so concurrent transports each count their whole self time.
    ``wall`` partitions the crawl's wall clock instead: every instant goes
    to the deepest open span (the latest started among equals), so the
    per-layer budget sums to ``crawl_s`` even with two queries in flight.
    """

    def __init__(self, spans: list[tuple]) -> None:
        names = {span[1]: span[3] for span in spans}
        parents = {span[1]: span[2] for span in spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.transport_in_drain = 0.0
        depth: dict[int, int] = {}
        for _, span_id, parent, name, start, end in spans:
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += (end - start) - _covered(
                children.get(span_id, []), start, end
            )
            self.durations[name].append(end - start)
            level, in_drain = 0, False
            while parent is not None and parent in names:
                in_drain = in_drain or names[parent] == DRAIN
                parent = parents[parent]
                level += 1
            depth[span_id] = level if name == CRAWL else max(level, 1)
            if in_drain and name in TRANSPORT_SPANS:
                # Window occupancy numerator: with two queries in flight
                # it approaches twice the drain time.
                self.transport_in_drain += end - start
        self.wall = _partition(spans, depth)

    def layer_wall(self) -> dict[str, float]:
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.wall.items():
            layers[layer_of(name)] += seconds
        return dict(layers)

    def layer_calls(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for name, count in self.calls.items():
            calls[layer_of(name)] += count
        return dict(calls)


def _partition(spans: list[tuple], depth: dict[int, int]) -> dict[str, float]:
    """Wall time per span name, each instant given to one open span."""
    events = []
    for _, span_id, _, name, start, end in spans:
        events.append((start, 1, span_id, name))
        events.append((end, 0, span_id, name))
    events.sort()
    active: dict[int, tuple[int, float, str]] = {}
    wall: dict[str, float] = defaultdict(float)
    last = 0.0
    for moment, opens, span_id, name in events:
        if active and moment > last:
            wall[max(active.values())[2]] += moment - last
        last = moment
        if opens:
            active[span_id] = (depth[span_id], moment, name)
        else:
            active.pop(span_id, None)
    return dict(wall)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
