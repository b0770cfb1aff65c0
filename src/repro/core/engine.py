"""Frontier execution engine: dedup'd, batched, concurrent query dispatch.

Every DB-SKY algorithm is a *frontier expansion* over a query tree: a pool
of pending queries plus a rule that turns one answer into new pending
queries.  This module makes that structure explicit and pluggable:

* :class:`Frontier` -- the pending pool.  An algorithm ``add()``\\ s queries
  whose answers it can process independently of one another, each with an
  expansion callback, and ``drain()``\\ s the pool.  A strictly sequential
  step (an expansion that must inspect *all* tuples retrieved so far
  before deciding the next query, as in RQ-DB-SKY's seen-tuple check) goes
  through :meth:`Frontier.fetch` / ``session.issue``, which drains a
  one-entry frontier through :class:`SerialStrategy`'s 1 x 1 inline window.
* :class:`ExecutionStrategy` -- how a frontier is drained.  Every query,
  the sequential ones included, runs through the **same windowed drain
  core** (:class:`_DrainCore`): query preparation, the memo / in-flight /
  ledger consult chain (the one place a paid-for answer is reused), budget
  reservation, billing and the dispatch-order merge live in exactly one
  place, so determinism (identical skyline and billed cost at any
  concurrency) cannot drift between strategies or paths.  A strategy
  contributes only its window's shape and where transports run:

  - :class:`SerialStrategy` is the 1 x 1 window: one query at a time,
    inline on the driver thread, in the frontier's order -- bit-identical
    to the pre-engine implementations (the parity reference).
  - :class:`AsyncStrategy` keeps a bounded window of queries in flight,
    packing them into ``batch_query()`` / ``abatch_query()`` round trips
    when the endpoint supports it.  Its transports run on a
    ``workers``-wide thread pool.

  An endpoint that owns an event loop (``aio_runner``, i.e. the asyncio
  remote client) overrides where transports run, under either strategy:
  each is a task on that loop, awaiting ``aquery`` / ``abatch_query``.
  The loop has no thread of its own; the thread running the algorithm
  runs it while waiting for an entry's answer, so tasks start in
  dispatch order and a "worker" is an in-flight slot rather than an OS
  thread.

  Each transport (one query, one batch) is written once, as a coroutine
  that awaits the endpoint call only when the call returns an awaitable:
  a task on an endpoint's loop, one ``send`` on a pool thread or inline.
* :class:`QueryEngine` -- per-session state shared by all drains:
  run-scoped query memoization (with dedup enabled, an identical query is
  never billed twice), the mounted crawl-store ledger, and the
  :class:`EngineStats` counters attached to every result.

Why the in-order merge gives cost/skyline parity
------------------------------------------------
Queries are only pooled in a frontier when their expansions depend on
nothing but their own answer, so the *set* of issued queries is invariant
under reordering; adaptive steps run synchronously inside merge callbacks,
at which point the session has recorded precisely the answers the serial
run would have recorded (in-flight answers are invisible until merged).
Billable cost is therefore identical under every strategy -- with dedup
enabled it equals the number of *distinct* issued queries, which is
order-invariant -- and so is the retrieved-tuple set, hence the skyline.
What may legitimately differ is the anytime *trace*: with several queries
in flight, a tuple's first-retrieval cost can be stamped at a slightly
different query count.

Session-level budgets are reservation-based: every transport claims one
unit of the allowance immediately before the endpoint is called (on
whichever thread runs it), so a budgeted run never issues more than its
allowance, and a budget that suffices serially also suffices concurrently
-- the strategies issue the same query set.  When the budget genuinely
runs out mid-run, the exact prefix of queries that fits can differ from
the serial prefix (both report ``complete=False``).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from inspect import isawaitable
from typing import TYPE_CHECKING, Callable

from ..hiddendb.endpoint import run_inline
from ..hiddendb.errors import HiddenDBError, QueryBudgetExceeded
from ..hiddendb.interface import QueryResult
from ..hiddendb.query import Query
from .adaptive import AdaptiveWindow, resolve_workers

if TYPE_CHECKING:  # pragma: no cover - types only
    import asyncio

    from ..hiddendb.endpoint import SearchEndpoint
    from .base import DiscoverySession

#: Default number of queries packed into one ``batch_query()`` round trip.
DEFAULT_BATCH_SIZE = 16

#: Default window width of :class:`AsyncStrategy`.
DEFAULT_WORKERS = 4

#: Registered execution-strategy names (the CLI / ``DiscoveryConfig``
#: currency; resolve one with :func:`make_strategy`).
STRATEGY_NAMES = ("serial", "async")


@dataclass(frozen=True)
class EngineStats:
    """Execution counters of one discovery run (``result.stats``).

    ``issued`` counts queries the engine sent to the endpoint (the billable
    work); ``deduped`` counts queries answered for free from the run-scoped
    memo; ``ledger_hits`` counts queries answered for free from a mounted
    persistent crawl-store ledger (answers paid for by an *earlier* run or
    a crashed incarnation of this one); ``batched`` counts the subset of
    issued queries whose answers arrived inside ``batch_query()`` round
    trips (``batches`` counts the round trips started); ``max_in_flight``
    is the peak number of queries simultaneously awaiting an answer;
    ``wall_time_s`` is the elapsed wall-clock time of the run (session
    creation to snapshot), from which :attr:`queries_per_sec` derives the
    billable throughput.  Adaptive runs (``workers="auto"``) additionally
    report ``mean_window`` (the dispatch-time average of the AIMD window
    width) and ``window_decreases`` (multiplicative back-offs taken);
    both stay zero under fixed-width strategies.
    """

    strategy: str = "serial"
    workers: int = 1
    issued: int = 0
    deduped: int = 0
    ledger_hits: int = 0
    batched: int = 0
    batches: int = 0
    max_in_flight: int = 0
    wall_time_s: float = 0.0
    mean_window: float = 0.0
    window_decreases: int = 0

    @property
    def dedup_rate(self) -> float:
        """Fraction of logical queries answered from the memo."""
        total = self.issued + self.deduped + self.ledger_hits
        return self.deduped / total if total else 0.0

    @property
    def ledger_rate(self) -> float:
        """Fraction of logical queries answered from the persistent ledger."""
        total = self.issued + self.deduped + self.ledger_hits
        return self.ledger_hits / total if total else 0.0

    @property
    def queries_per_sec(self) -> float:
        """Billable queries per wall-clock second of the run."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.issued / self.wall_time_s

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly view (benchmark records, experiment reporting)."""
        return {
            "strategy": self.strategy,
            "workers": self.workers,
            "issued": self.issued,
            "deduped": self.deduped,
            "dedup_rate": self.dedup_rate,
            "ledger_hits": self.ledger_hits,
            "batched": self.batched,
            "batches": self.batches,
            "max_in_flight": self.max_in_flight,
            "wall_time_s": self.wall_time_s,
            "queries_per_sec": self.queries_per_sec,
            "mean_window": self.mean_window,
            "window_decreases": self.window_decreases,
        }

    def __repr__(self) -> str:
        return (
            f"EngineStats({self.strategy} x{self.workers}: "
            f"issued={self.issued}, deduped={self.deduped}, "
            f"ledger_hits={self.ledger_hits}, "
            f"batched={self.batched}/{self.batches}, "
            f"max_in_flight={self.max_in_flight}, "
            f"wall={self.wall_time_s:.3f}s)"
        )


class QueryEngine:
    """Per-session dispatch state: memo, ledger, counters, strategy.

    Every query of the session, ``session.issue``'s included, reaches it
    through a :class:`_DrainCore`, which classifies, bills and merges it
    here: the mounted ledger has no other reader.  All counter and memo
    mutation happens on the driver thread (the thread running the
    algorithm), outside any event loop; pool threads and tasks on an
    endpoint's loop only ever call the endpoint's transport members.
    """

    def __init__(
        self,
        interface: "SearchEndpoint",
        strategy: "ExecutionStrategy | None" = None,
        dedup: bool = False,
    ) -> None:
        self.interface = interface
        self.strategy = strategy if strategy is not None else SerialStrategy()
        self.dedup = dedup
        # The memo is keyed by the canonical query key (the scheme shared
        # with the crawl-store ledger and the replay ids), so layers can
        # never disagree about query identity.
        self._memo: dict[str, QueryResult] = {}
        #: Optional persistent ledger (crawl store): answered queries are
        #: free across runs/processes, and every billed answer is persisted.
        self._ledger = None
        self._issued = 0
        self._deduped = 0
        self._ledger_hits = 0
        self._batched = 0
        self._batches = 0
        self._in_flight = 0
        self._max_in_flight = 0
        self._window_sum = 0
        self._window_samples = 0
        self._window_decreases = 0
        self._started = time.perf_counter()
        #: AIMD controller of an adaptive strategy (``workers="auto"``),
        #: created lazily by the first drain and reused by nested and
        #: repeated drains so the learned window width persists across
        #: frontier expansions within one session.
        self._adaptive = None
        #: Thread pool of the outermost active thread-pool drain; nested
        #: drains (an expansion callback running a sub-frontier) reuse it
        #: instead of churning a fresh pool per recursion level.
        self._drain_pool: "ThreadPoolExecutor | None" = None
        #: Observability hook (:class:`repro.obs.RunObserver`), bound by
        #: ``DiscoverySession.attach_observer``.  ``None`` keeps every
        #: instrumentation site a single is-not-None check; when set, the
        #: hooks emit metric increments and trace spans but never branch
        #: any algorithmic control flow (parity by construction).
        self.observer = None

    # -- memo and ledger -----------------------------------------------
    def bind_ledger(self, ledger) -> None:
        """Mount a persistent query ledger (crawl-store view).

        Ledgered answers are free exactly like dedup hits -- no budget
        reservation, no billing -- and every billed answer is put to it,
        which is what makes a crawl resumable: a restarted run
        replays the already-paid-for prefix from the ledger and only bills
        genuinely new queries.
        """
        self._ledger = ledger

    @property
    def ledger(self):
        """The mounted persistent ledger, if any."""
        return self._ledger

    def count_dedup(self) -> None:
        """Record one memo hit."""
        self._deduped += 1

    def ledger_lookup(self, query: Query) -> QueryResult | None:
        """Persisted answer for ``query`` from the mounted ledger, if any.

        A hit is counted in ``ledger_hits`` and memoized (when dedup is
        on) so later repeats within the run resolve from RAM.
        """
        if self._ledger is None:
            return None
        hit = self._ledger.get(query)
        if hit is None:
            return None
        self._ledger_hits += 1
        if self.dedup:
            self._memo[query.canonical_key()] = hit
        return hit

    def note_answer(
        self, query: Query, result: QueryResult, batched: bool = False
    ) -> None:
        """Record one billed answer (memoize and ledger it)."""
        self._issued += 1
        if batched:
            self._batched += 1
        if self.dedup:
            self._memo[query.canonical_key()] = result
        if self._ledger is not None:
            self._ledger.put(query, result)
        if self.observer is not None:
            # The single billing point (the drain core's merge), so a
            # traced crawl gets a "billed" span for exactly the billed
            # queries.
            self.observer.billed(query, batched=batched)

    # -- in-flight accounting (driver thread) --------------------------
    def note_dispatch(self, count: int = 1) -> None:
        self._in_flight += count
        if self._in_flight > self._max_in_flight:
            self._max_in_flight = self._in_flight

    def note_done(self, count: int = 1) -> None:
        self._in_flight -= count

    def note_batch(self) -> None:
        """Record one ``batch_query()`` round trip being started."""
        self._batches += 1

    # -- adaptive-window accounting (driver thread) --------------------
    def note_window(self, size: int) -> None:
        """Sample the adaptive window width at dispatch time."""
        self._window_sum += size
        self._window_samples += 1

    def note_window_event(self, kind: str, size: int) -> None:
        """An adaptive-window transition (see :mod:`repro.core.adaptive`)."""
        if kind in ("decrease", "floor"):
            self._window_decreases += 1
        if self.observer is not None:
            hook = getattr(self.observer, "window_event", None)
            if hook is not None:
                hook(kind, size)

    def snapshot(self) -> EngineStats:
        """Frozen view of the counters."""
        return EngineStats(
            strategy=self.strategy.name,
            workers=self.strategy.workers,
            issued=self._issued,
            deduped=self._deduped,
            ledger_hits=self._ledger_hits,
            batched=self._batched,
            batches=self._batches,
            max_in_flight=self._max_in_flight,
            wall_time_s=time.perf_counter() - self._started,
            mean_window=(
                self._window_sum / self._window_samples
                if self._window_samples
                else 0.0
            ),
            window_decreases=self._window_decreases,
        )


@dataclass
class _Entry:
    """One pending frontier query."""

    seq: int
    query: Query
    on_result: Callable[[QueryResult], None] | None = None


class Frontier:
    """Pending independent queries of one expansion, plus their callbacks.

    Entries added through :meth:`add` may be issued concurrently by the
    active strategy; their ``on_result`` callbacks always run on the
    driver thread, in dispatch order, after the answer has been recorded
    in the session.  A callback may ``add`` further entries (the expansion
    rule), call :meth:`fetch` for an adaptive sub-step, or run a whole
    nested frontier -- the in-order merge guarantees it sees exactly the
    session state a serial run would.

    ``lifo=True`` makes the serial strategy pop the most recently added
    entry first, preserving the depth-first order of the pre-engine stack
    implementations (BASELINE, PQ-2D-SKY).
    """

    def __init__(self, session: "DiscoverySession", lifo: bool = False) -> None:
        self._session = session
        self._lifo = lifo
        self._pending: deque[_Entry] = deque()
        self._seq = 0

    @property
    def pending(self) -> int:
        """Number of queries waiting to be dispatched."""
        return len(self._pending)

    def add(
        self,
        query: Query,
        on_result: Callable[[QueryResult], None] | None = None,
    ) -> None:
        """Queue an independent query; ``on_result`` is its expansion."""
        self._pending.append(_Entry(self._seq, query, on_result))
        self._seq += 1

    def pop(self) -> _Entry:
        """Next entry in this frontier's order (strategy use)."""
        return self._pending.pop() if self._lifo else self._pending.popleft()

    def fetch(self, query: Query) -> QueryResult:
        """Issue one query now and return its answer.

        The sequential seam for state-dependent expansions: identical to
        ``session.issue`` (a one-entry drain through the 1 x 1 inline
        window), provided so algorithms route *every* query through their
        frontier.
        """
        return self._session.issue(query)

    def drain(self) -> None:
        """Issue every pending query (and whatever their callbacks add)."""
        self._session.engine.strategy.drain(self, self._session)


@dataclass
class _Dispatched:
    """One dispatched entry awaiting its in-order merge.

    Exactly one answer source is set: a transport's future (per-query
    task, or a ``(future, batch_index)`` pair into a batch task; see
    :func:`_spawn`), a memo key (dedup: the answer is -- or by this
    entry's merge turn will be -- memoized), or a direct ``result``
    (ledger hit at dispatch time).
    """

    entry: _Entry
    query: Query | None = None  #: merged query (transported entries only)
    key: str | None = None  #: canonical key of ``query``
    future: "Future | asyncio.Task | _Outcome | None" = None
    batch_index: int | None = None
    memo_key: str | None = None
    #: Dedup-off duplicate of an in-flight query with a ledger mounted:
    #: resolved from the ledger at merge time (the original's in-order
    #: merge has written it by then), billed nothing.
    ledger_query: Query | None = None
    result: QueryResult | None = None

    @property
    def transported(self) -> bool:
        return self.query is not None

    def resolve(self, engine: QueryEngine, wait) -> QueryResult:
        if self.result is not None:
            return self.result
        if self.memo_key is not None:
            engine.count_dedup()
            return engine._memo[self.memo_key]
        if self.ledger_query is not None:
            answer = engine.ledger_lookup(self.ledger_query)
            if answer is None:  # pragma: no cover - merge order guarantees it
                raise RuntimeError(
                    f"in-flight duplicate {self.ledger_query!r} missing from "
                    f"the ledger at merge time"
                )
            return answer
        assert self.future is not None
        try:
            outcome = wait(self.future)
        except HiddenDBError as exc:
            # A terminal failure inside a batch carries every answer that
            # was actually obtained/billed (``partial_results``, aligned
            # with the batch, ``None`` holes marking unbilled items):
            # entries with an answer still merge normally, only the holes
            # raise.  Billed answers are never discarded.
            partial = getattr(exc, "partial_results", None)
            if (
                self.batch_index is not None
                and partial is not None
                and self.batch_index < len(partial)
            ):
                answered = partial[self.batch_index]
                if answered is not None:
                    return answered
            raise
        if self.batch_index is not None:
            outcome = outcome[self.batch_index]
        return outcome


class _DrainCore:
    """The strategy-agnostic half of a windowed frontier drain.

    Owns everything that makes a drain deterministic regardless of
    concurrency -- and owns it *once*, for every strategy:

    * **classification** (:meth:`next_chunk`): each popped entry is merged
      with the session base and run through the consult chain in the
      serial order -- memo (including queries still in the window, which
      will be memoized by their merge turn), in-flight-duplicate ledger
      deferral, persistent ledger -- and only genuinely new queries
      become transport work.  This chain is the only place a paid-for
      answer is reused: endpoints answer every query they are sent;
    * **billing and bookkeeping** (:meth:`merge_head`): answers are
      recorded into the session and billed (``note_answer``) strictly in
      dispatch order, and expansion callbacks run on the driver thread
      against exactly the session state a serial run would show them.

    A strategy's only job is to attach a future to each transported entry
    of the chunks this core hands out (inline outcome, thread-pool task,
    or event-loop task).
    """

    def __init__(
        self,
        frontier: Frontier,
        session: "DiscoverySession",
        context: "_TransportContext",
        capacity: int,
        per_task: int,
        controller=None,
    ) -> None:
        self._frontier = frontier
        self._session = session
        self._engine = session.engine
        self._context = context
        self._capacity = capacity
        self._per_task = per_task
        #: Optional AIMD window controller (``workers="auto"``): shrinks
        #: and grows the effective capacity between ``min_workers`` and
        #: ``max_workers`` tasks.  Only dispatch *timing* depends on it;
        #: classification and the in-order merge are untouched, so the
        #: issued query set and billed cost stay identical at any width.
        self._controller = controller
        self._waiting: deque[_Dispatched] = deque()
        self._inflight_keys: set[str] = set()  # dispatched, not yet merged
        self._outstanding = 0  # popped entries not yet merged

    @property
    def busy(self) -> bool:
        """Whether the drain still has pending or unmerged work."""
        return bool(self._frontier.pending or self._waiting)

    def _effective_capacity(self) -> int:
        """Window slots right now (controller-shrunk when adaptive)."""
        if self._controller is None:
            return self._capacity
        return min(self._capacity, self._controller.size * self._per_task)

    @property
    def window_open(self) -> bool:
        """Whether another chunk may be dispatched right now."""
        if not self._frontier.pending:
            return False
        if (
            self._controller is not None
            and self._controller.holdoff_remaining() > 0.0
        ):
            # The server named a Retry-After deadline; dispatching before
            # it would only harvest more 429s.
            return False
        return self._outstanding < self._effective_capacity()

    @property
    def waiting(self) -> int:
        """Dispatched entries not yet merged."""
        return len(self._waiting)

    @property
    def stalled(self) -> bool:
        """Pending work, nothing in flight, dispatch blocked by a hold-off."""
        return (
            self._controller is not None
            and not self._waiting
            and bool(self._frontier.pending)
            and not self.window_open
        )

    def poll_pressure(self) -> None:
        """Feed throttle signals the transport accumulated since the last
        poll (429/503/timeouts, max ``Retry-After``) into the controller."""
        if self._controller is not None:
            self._controller.poll()

    def wait_ready(self) -> None:
        """Sleep out (a slice of) the controller's dispatch hold-off."""
        remaining = self._controller.holdoff_remaining()
        time.sleep(min(max(remaining, 0.001), 0.05))

    def next_chunk(self) -> list[_Dispatched]:
        """Pop and classify up to one transport task's worth of entries.

        Every popped entry holds a window slot until it merges and counts
        toward the task's pop limit, however it is answered, so the order
        entries are popped in depends on the window's shape alone, not on
        which answers are free: a resumed crawl, whose prefix the ledger
        answers, pops exactly as the run it resumes, and an answer lost in
        flight at a kill comes back within one window of its first
        billing.  Entries answered for free (memo, in-flight duplicate,
        ledger) are queued for their merge turn directly
        and never reach the returned chunk; the chunk holds only entries
        that must be transported.
        """
        engine = self._engine
        session = self._session
        observer = engine.observer
        chunk: list[_Dispatched] = []
        limit = min(
            self._per_task, self._effective_capacity() - self._outstanding
        )
        for _ in range(limit):
            if not self._frontier.pending:
                break
            entry = self._frontier.pop()
            self._outstanding += 1
            merged = session.prepare(entry.query)
            ckey = merged.canonical_key()
            if engine.dedup and (
                ckey in engine._memo or ckey in self._inflight_keys
            ):
                # Answered (or about to be) by the memo: resolve there at
                # merge time, bill nothing.
                self._waiting.append(_Dispatched(entry, memo_key=ckey))
                if observer is not None:
                    observer.classified(merged, ckey, "memo")
                continue
            if engine.ledger is not None and ckey in self._inflight_keys:
                # Dedup is off but a ledger is mounted: the in-flight
                # original will have ledgered its answer by this entry's
                # merge turn, and a serial run would have answered the
                # repeat from the ledger for free -- dispatching it would
                # double-bill an owned answer.
                self._waiting.append(_Dispatched(entry, ledger_query=merged))
                if observer is not None:
                    observer.classified(merged, ckey, "inflight")
                continue
            ledgered = engine.ledger_lookup(merged)
            if ledgered is not None:
                # Already paid for by an earlier run: free, no dispatch.
                self._waiting.append(_Dispatched(entry, result=ledgered))
                if observer is not None:
                    observer.classified(merged, ckey, "ledger")
                continue
            item = _Dispatched(entry, query=merged, key=ckey)
            chunk.append(item)
            self._waiting.append(item)
            self._inflight_keys.add(ckey)
            if observer is not None:
                observer.classified(merged, ckey, "dispatched")
        if chunk:
            engine.note_dispatch(len(chunk))
            if self._controller is not None:
                engine.note_window(self._controller.size)
        return chunk

    def merge_head(self) -> None:
        """Merge the oldest dispatched entry (billing, record, callback)."""
        engine = self._engine
        head = self._waiting.popleft()
        try:
            result = head.resolve(engine, self._context.wait)
        finally:
            self._outstanding -= 1
            if head.transported:
                self._inflight_keys.discard(head.key)
                engine.note_done()
        if head.transported:
            engine.note_answer(
                head.query, result, batched=head.batch_index is not None
            )
            if self._controller is not None:
                # Only answers that actually came back count as clean
                # completions (a failed resolve raised above).
                self._controller.record_success()
        if engine.observer is not None:
            engine.observer.merged(
                head.key or head.memo_key, transported=head.transported
            )
        self._session.record(result)
        if head.entry.on_result is not None:
            head.entry.on_result(result)

    def cancel(self) -> None:
        """Cancel unmerged transports (don't issue work the algorithm
        will never see)."""
        self._context.cancel(
            [item.future for item in self._waiting if item.future is not None]
        )


class ExecutionStrategy:
    """How a :class:`Frontier` is drained: a window over :class:`_DrainCore`.

    The loop is identical for every strategy: keep the dispatch window
    full one chunk (= one transport task) at a time so merges stay
    responsive, then merge the oldest dispatched entry.  A strategy
    contributes the window's shape (``workers`` x ``batch_size``, fixed
    or adaptive) and where transports run (:meth:`_open`); the default is
    inline, or tasks on the endpoint's own event loop when it owns one.  The 1 x 1 window pops one entry, merges
    it, and only then pops the next, reproducing the pre-engine
    pop/issue/callback interleaving bit for bit even when free answers
    (memo, ledger) mix with transported ones.
    """

    name = "abstract"
    workers = 1
    batch_size = 1
    #: Fixed-width by default; adaptive strategies (``workers="auto"``)
    #: set this and the ``[min_workers, max_workers]`` bounds in their
    #: constructors, and :attr:`workers` becomes the ceiling (the pool is
    #: sized for the widest window the controller may ever open).
    adaptive = False
    min_workers = 1
    max_workers = 1

    def _controller(self, engine: QueryEngine):
        """The engine's AIMD controller, created on first adaptive drain."""
        if not self.adaptive:
            return None
        if engine._adaptive is None:
            engine._adaptive = AdaptiveWindow(
                min_size=self.min_workers,
                max_size=self.max_workers,
                on_event=engine.note_window_event,
                signal_source=getattr(
                    engine.interface, "take_throttle_signals", None
                ),
            )
        return engine._adaptive

    def _open(self, engine: QueryEngine) -> _TransportContext:
        """Per-drain transport context: tasks on the endpoint's own event
        loop if it owns one (``aio_runner``), else inline."""
        interface = engine.interface
        runner = getattr(interface, "aio_runner", None)
        if runner is None:
            return _TransportContext(interface.query)
        return _TransportContext(
            interface.aquery,
            getattr(interface, "abatch_query", None)
            if self.batch_size > 1 else None,
            runner=runner,
        )

    def _close(self, engine: QueryEngine, context) -> None:
        """Release the transport context acquired by :meth:`_open`."""

    def _submit(
        self,
        context,
        chunk: list[_Dispatched],
        session: "DiscoverySession",
        engine: QueryEngine,
    ) -> None:
        """Attach a future to every entry of a non-empty ``chunk``."""
        queries = [item.query for item in chunk]
        if context.batch_query is not None and len(chunk) > 1:
            engine.note_batch()
            future = _spawn(
                context, _transport_batch, session, context.batch_query,
                queries,
            )
            for index, item in enumerate(chunk):
                item.future = future
                item.batch_index = index
        else:
            for item, query in zip(chunk, queries):
                item.future = _spawn(
                    context, _transport_one, session, context.query, query
                )

    def drain(self, frontier: Frontier, session: "DiscoverySession") -> None:
        engine = session.engine
        context = self._open(engine)
        per_task = (
            self.batch_size if context.batch_query is not None else 1
        )
        core = _DrainCore(
            frontier, session, context, capacity=self.workers * per_task,
            per_task=per_task, controller=self._controller(engine),
        )
        try:
            while core.busy:
                core.poll_pressure()
                while core.window_open:
                    chunk = core.next_chunk()
                    if chunk:
                        self._submit(context, chunk, session, engine)
                if core.waiting:
                    core.merge_head()
                elif core.stalled:
                    # Nothing in flight and a Retry-After hold-off bars
                    # dispatch: sleep a slice of it instead of hot-spinning.
                    core.wait_ready()
        except BaseException:
            core.cancel()
            raise
        finally:
            self._close(engine, context)


class _TransportContext:
    """Per-drain transport state handed between the strategy hooks."""

    __slots__ = ("query", "batch_query", "pool", "runner", "owns")

    def __init__(
        self, query, batch_query=None, pool=None, runner=None, owns=False
    ) -> None:
        self.query = query
        self.batch_query = batch_query
        self.pool = pool
        self.runner = runner
        self.owns = owns

    def wait(self, future):
        """A transport's outcome, at its entry's merge turn (a loop task
        is run to completion here, on the calling thread)."""
        if self.runner is not None:
            return self.runner.wait(future)
        return future.result()

    def cancel(self, futures: list) -> None:
        """Cancel unmerged transports: those not started never start, loop
        tasks are run out before this returns, pool tasks already running
        finish harmlessly (transports never touch session state)."""
        if self.runner is not None:
            self.runner.cancel(futures)
        elif self.pool is not None:
            for future in futures:
                future.cancel()


async def _transport_one(session, query_fn, query) -> QueryResult:
    """One guarded single-query transport.

    ``query_fn`` is the endpoint's ``query`` or ``aquery``; its answer is
    awaited only when it is awaitable.  Session-budget reservation happens
    here, immediately before the query is billed -- never speculatively --
    so a budget that suffices for a serial run also suffices concurrently
    (the strategies issue the same query set).
    """
    session.reserve_budget()
    try:
        answer = query_fn(query)
        return await answer if isawaitable(answer) else answer
    except BaseException:
        session.release_budget()
        raise


async def _transport_batch(session, batch_query, queries):
    """One guarded batch transport.

    Reserves budget per item and only sends the affordable prefix; a
    shortfall (or a terminal mid-batch failure from the endpoint)
    surfaces as an exception carrying ``partial_results`` so already
    billed answers still reach their entries' merges.
    """
    reserved = 0
    budget_error: QueryBudgetExceeded | None = None
    for _ in queries:
        try:
            session.reserve_budget()
        except QueryBudgetExceeded as exc:
            budget_error = exc
            break
        reserved += 1
    allowed = queries[:reserved]
    results: tuple[QueryResult, ...] = ()
    try:
        if allowed:
            answers = batch_query(allowed)
            results = tuple(
                await answers if isawaitable(answers) else answers
            )
    except HiddenDBError as exc:
        # Normalise the partial results to the sent prefix and return the
        # reservations of their ``None`` holes (exactly the unbilled items).
        outcomes = tuple(getattr(exc, "partial_results", ()) or ())
        outcomes = outcomes[:reserved]
        outcomes += (None,) * (reserved - len(outcomes))
        session.release_budget(outcomes.count(None))
        exc.partial_results = outcomes
        raise
    except BaseException:
        session.release_budget(reserved)
        raise
    if budget_error is not None:
        budget_error.partial_results = results
        raise budget_error
    return results


class _Outcome:
    """An inline transport's value or exception, carried to its entry's
    merge turn (and raised there)."""

    __slots__ = ("value", "error")

    def __init__(self, value=None, error: BaseException | None = None) -> None:
        self.value = value
        self.error = error

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value


def _spawn(context: _TransportContext, transport, *args):
    """Start one transport coroutine: a task on the endpoint's loop, one
    ``send`` on a pool thread, or one ``send`` right here; the returned
    future is settled by ``context.wait`` at its entry's merge turn."""
    if context.runner is not None:
        return context.runner.submit(transport(*args))
    if context.pool is not None:
        # The coroutine is built on the pool thread, so a task cancelled
        # before it starts leaves no coroutine that was never awaited.
        return context.pool.submit(lambda: run_inline(transport(*args)))
    try:
        return _Outcome(run_inline(transport(*args)))
    except BaseException as exc:
        return _Outcome(error=exc)


def _resolve_shape(
    workers: "int | str",
    batch_size: int,
    min_workers: "int | None",
    max_workers: "int | None",
) -> "tuple[bool, int, int, int]":
    """Validate the engine knobs: :func:`resolve_workers` + ``batch_size``."""
    shape = resolve_workers(workers, min_workers, max_workers)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return shape


class SerialStrategy(ExecutionStrategy):
    """One query at a time, in frontier order -- the parity reference.

    With dedup off this is bit-identical to the pre-engine
    implementations: same queries, same order, same costs, same traces.
    Runs the shared drain core with a window of one, transporting inline
    (or as a task on the endpoint's loop, if it owns one).
    ``session.issue`` drains its one-entry frontiers through this window
    whatever the session's strategy.
    """

    name = "serial"


class AsyncStrategy(ExecutionStrategy):
    """Windowed concurrent dispatch; the endpoint picks the transport.

    A window of ``workers`` transport tasks is kept in flight.  When the
    endpoint batches, each task packs up to ``batch_size`` queries into
    one round trip (one POST against the networked service), so the
    window holds ``workers * batch_size`` queries.  Answers are merged by
    the shared drain core strictly in dispatch order, which is what makes
    concurrent runs produce the same skyline and billable cost as serial
    ones (see the module docstring).

    The transport follows the endpoint:

    * an endpoint that owns an event loop (``aio_runner``, as
      :class:`~repro.service.aclient.AsyncRemoteTopKInterface` does) has
      its ``aquery`` / ``abatch_query`` coroutines submitted as tasks on
      that loop, which the thread running the algorithm runs while it
      waits for the next answer to merge.  A worker is then an in-flight slot, not an
      OS thread, so wide windows cost no thread stand-up, tasks start in
      dispatch order, and the endpoint's pooled connections stay on the
      loop that owns them;
    * any other endpoint has its blocking ``query`` / ``batch_query``
      called on a thread pool of ``workers`` threads.

    Each transport is the fast one for its kind of endpoint, so there is
    no knob that could pair them the slow way round.
    """

    name = "async"

    def __init__(
        self,
        workers: "int | str" = DEFAULT_WORKERS,
        batch_size: int = DEFAULT_BATCH_SIZE,
        *,
        min_workers: "int | None" = None,
        max_workers: "int | None" = None,
    ) -> None:
        (
            self.adaptive, self.workers, self.min_workers, self.max_workers
        ) = _resolve_shape(workers, batch_size, min_workers, max_workers)
        self.batch_size = batch_size

    def _open(self, engine: QueryEngine) -> _TransportContext:
        interface = engine.interface
        if getattr(interface, "aio_runner", None) is not None:
            return super()._open(engine)
        # Nested drains (a callback running a sub-frontier mid-merge)
        # share the outermost drain's pool instead of churning one
        # executor per recursion level.  Only transports run on the pool,
        # never drains, so reuse cannot deadlock the driver.
        owns = engine._drain_pool is None
        if owns:
            engine._drain_pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-engine"
            )
        return _TransportContext(
            interface.query,
            getattr(interface, "batch_query", None)
            if self.batch_size > 1 else None,
            pool=engine._drain_pool,
            owns=owns,
        )

    def _close(self, engine: QueryEngine, context) -> None:
        if context.owns:
            engine._drain_pool = None
            context.pool.shutdown(wait=True)


def make_strategy(
    name: "str | ExecutionStrategy | None",
    workers: "int | str" = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
    min_workers: "int | None" = None,
    max_workers: "int | None" = None,
) -> ExecutionStrategy:
    """Resolve a strategy name into an :class:`ExecutionStrategy`.

    The one validator of the engine knobs (``DiscoveryConfig`` calls it
    too): whatever the name, ``workers`` / ``min_workers`` /
    ``max_workers`` go through
    :func:`~repro.core.adaptive.resolve_workers` and ``batch_size`` must
    be >= 1.

    ``None`` keeps the historical implicit switch: ``workers > 1`` (or
    ``"auto"``) means :class:`AsyncStrategy`, otherwise serial.  Explicit
    names (:data:`STRATEGY_NAMES`) pin the strategy regardless of the
    worker count, except that ``"serial"`` with ``workers > 1`` or
    ``workers="auto"`` is rejected as contradictory (its window is one
    by definition).  An
    :class:`ExecutionStrategy` *instance* is returned as-is: it already
    carries its own worker/batch shape.

    ``workers="auto"`` yields an adaptive (AIMD-windowed) strategy whose
    in-flight window floats in ``[min_workers, max_workers]`` (see
    :mod:`repro.core.adaptive`).
    """
    adaptive, width, _, _ = _resolve_shape(
        workers, batch_size, min_workers, max_workers
    )
    if isinstance(name, ExecutionStrategy):
        return name
    if name is None:
        name = "async" if adaptive or width > 1 else "serial"
    if name == "serial":
        if adaptive or width > 1:
            raise ValueError(
                f"strategy 'serial' is single-worker; drop "
                f"workers={workers!r} or pick 'async'"
            )
        return SerialStrategy()
    if name == "async":
        return AsyncStrategy(
            workers=workers, batch_size=batch_size,
            min_workers=min_workers, max_workers=max_workers,
        )
    raise ValueError(
        f"unknown execution strategy {name!r}; "
        f"pick one of {', '.join(STRATEGY_NAMES)}"
    )


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_WORKERS",
    "STRATEGY_NAMES",
    "AsyncStrategy",
    "EngineStats",
    "ExecutionStrategy",
    "Frontier",
    "QueryEngine",
    "SerialStrategy",
    "make_strategy",
]
