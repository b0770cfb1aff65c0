"""Shared machinery for the skyline-discovery algorithms.

Every algorithm in :mod:`repro.core` is written as a function operating on a
:class:`DiscoverySession`, which wraps the top-k interface and keeps the
bookkeeping the paper's evaluation needs:

* the query cost (number of issued queries since the session began);
* the first-retrieval cost of every distinct tuple, which yields the
  *anytime* discovery curve of Figures 20-24;
* the query/answer log, kept only when the run asks for it
  (``record_log``): a crawl otherwise lets each answer go once it is
  recorded;
* the skyline of everything retrieved so far, maintained by block folds
  (the BASELINE crawler's local skyline extraction, done as it crawls).

The session also owns the one run lifecycle every entry point shares
(:meth:`Discoverer.run <repro.core.facade.Discoverer.run>`,
``Discoverer.skyband``, each delta-repair round and each coordinator job):
:meth:`DiscoverySession.from_config` starts it; :meth:`DiscoverySession.run`
runs an algorithm body, maps budget exhaustion to the anytime
``complete=False`` of §7.1 and always ends in
:meth:`DiscoverySession.close`; :meth:`DiscoverySession.finish` packages
the result and files it in the crawl store.

Results are reported as a :class:`DiscoveryResult`.  Skylines are compared by
**value vectors** throughout the library: under the paper's general
positioning assumption value vectors are unique, and when a dataset does
contain duplicated vectors a top-k interface fundamentally cannot distinguish
the copies, so value-set equality is the right correctness criterion.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace as _dc_replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from ..hiddendb.endpoint import SearchEndpoint
from ..hiddendb.errors import QueryBudgetExceeded
from ..hiddendb.interface import QueryResult
from ..hiddendb.query import Query
from ..hiddendb.table import Row
from .dominance import incremental_skyline_update, skyline_of_rows
from .engine import (
    EngineStats,
    ExecutionStrategy,
    Frontier,
    QueryEngine,
    SerialStrategy,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..freshness import DeltaReport
    from ..store import CrawlStore, SessionRecord
    from .registry import AlgorithmInfo, AlgorithmSpec, DiscoveryConfig
    from .skyband import SkybandResult

#: First-seen rows per fold into the maintained skyline: enough to amortise
#: numpy's per-call cost, few enough that an early block, which survives
#: almost whole, is cheap to compare against itself.
FOLD_ROWS = 256

#: The 1 x 1 inline window every ``issue`` drains its one entry through.
_ONE_BY_ONE = SerialStrategy()


@dataclass(frozen=True)
class TraceEntry:
    """One point of the anytime discovery curve."""

    cost: int  #: queries issued when the tuple was first retrieved
    row: Row


@dataclass(frozen=True)
class DiscoveryResult:
    """Outcome of one skyline-discovery run.

    ``skyline`` is the skyline of all retrieved tuples; when ``complete`` is
    true this equals the skyline of the hidden database.  ``trace`` records,
    for each skyline tuple, the query cost at which it was first retrieved --
    the anytime curve of Section 7.1.
    """

    algorithm: str
    skyline: tuple[Row, ...]
    trace: tuple[TraceEntry, ...]
    total_cost: int
    retrieved: tuple[Row, ...]
    complete: bool
    #: Run configuration (``None`` for a result packaged straight from a
    #: session with :meth:`DiscoverySession.result`).
    config: "DiscoveryConfig | None" = None
    #: Registry metadata of the algorithm that produced this result.
    info: "AlgorithmInfo | None" = None
    #: Full query/answer log (populated when ``config.record_log`` is set).
    query_log: tuple[QueryResult, ...] = field(default=(), repr=False)
    #: Execution-engine counters of the run (dispatch strategy, billable
    #: queries, memo hits, batching, peak concurrency).
    stats: EngineStats | None = None
    #: Crawl-store session this run was billed under (durable runs only;
    #: ``resumed`` tells whether it continued a crashed incarnation).
    store_session: "SessionRecord | None" = field(default=None, repr=False)
    #: Delta-crawl repair accounting (``mode="delta"`` runs only): probe,
    #: revalidation and skyline-change counters of the freshness plane.
    freshness: "DeltaReport | None" = field(default=None, repr=False)

    @property
    def skyline_values(self) -> frozenset[tuple[int, ...]]:
        """The skyline as a set of value vectors (the comparison currency)."""
        return frozenset(row.values for row in self.skyline)

    @property
    def skyline_size(self) -> int:
        """Number of distinct skyline value vectors."""
        return len(self.skyline_values)

    def discovered_within(self, budget: int) -> tuple[Row, ...]:
        """Skyline tuples already retrieved after ``budget`` queries."""
        return tuple(entry.row for entry in self.trace if entry.cost <= budget)

    def discovery_curve(self) -> list[tuple[int, int]]:
        """Monotone ``(query cost, #skyline tuples discovered)`` points."""
        curve: list[tuple[int, int]] = []
        for count, entry in enumerate(self.trace, start=1):
            if curve and curve[-1][0] == entry.cost:
                curve[-1] = (entry.cost, count)
            else:
                curve.append((entry.cost, count))
        return curve

    def cost_of_discovery(self, index: int) -> int:
        """Query cost when the ``index``-th skyline tuple (1-based) appeared."""
        if not 1 <= index <= len(self.trace):
            raise IndexError(
                f"discovery index {index} out of range 1..{len(self.trace)}"
            )
        return self.trace[index - 1].cost

    def __repr__(self) -> str:
        return (
            f"DiscoveryResult({self.algorithm}: |S|={self.skyline_size}, "
            f"cost={self.total_cost}, complete={self.complete})"
        )


class DiscoverySession:
    """Query issuing and retrieval bookkeeping for one discovery run.

    Parameters
    ----------
    interface:
        The hidden database's search endpoint -- any
        :class:`~repro.hiddendb.endpoint.SearchEndpoint`, in-process
        (:class:`~repro.hiddendb.interface.TopKInterface`) or remote
        (:class:`~repro.service.client.RemoteTopKInterface`).
    base_query:
        Optional predicates conjoined to *every* issued query.  This
        implements the paper's "skyline subject to filtering conditions"
        extension (Section 2.1) and the domination-subspace recursion of the
        skyband algorithms.
    budget:
        Optional session-level query allowance, enforced on top of any
        budget of the interface itself: issuing the ``budget + 1``-th query
        raises :class:`QueryBudgetExceeded` without executing it.
    on_query:
        Hook invoked with every :class:`QueryResult` right after it is
        recorded.
    on_tuple:
        Hook invoked with a :class:`TraceEntry` whenever a distinct tuple is
        retrieved for the first time (the live anytime curve).
    strategy:
        :class:`~repro.core.engine.ExecutionStrategy` draining this
        session's frontiers (default: :class:`SerialStrategy`, which is
        bit-identical to the pre-engine implementations).
    dedup:
        Enable run-scoped query memoization: an identical query (after
        merging with the base query) is answered from the memo and never
        billed twice.  Off by default so default runs keep the historical
        query counts; ``Discoverer.skyband`` turns it on (the overlapping
        subspace trees of the extensions re-issue many identical queries).
    record_log:
        Keep every recorded :class:`QueryResult` in :attr:`log`.  Off by
        default: the session's bookkeeping needs only each answer's
        first-seen rows, so an unlogged session drops an answer once it
        has recorded it.
    """

    def __init__(
        self,
        interface: SearchEndpoint,
        base_query: Query | None = None,
        *,
        budget: int | None = None,
        on_query: Callable[[QueryResult], None] | None = None,
        on_tuple: Callable[[TraceEntry], None] | None = None,
        strategy: ExecutionStrategy | None = None,
        dedup: bool = False,
        record_log: bool = False,
    ) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self._interface = interface
        self._base = base_query if base_query is not None else Query.select_all()
        self._start = interface.queries_issued
        self._budget = budget
        self._on_query = on_query
        self._on_tuple = on_tuple
        self._incomplete = False
        self._first_seen: dict[int, TraceEntry] = {}
        self._log: list[QueryResult] | None = [] if record_log else None
        #: Answers recorded so far (a checkpoint's ``answers`` counter).
        self._answers = 0
        #: Skyline of the rows folded so far: each distinct vector with
        #: every row carrying it, the vectors as a matrix in coordinate-sum
        #: order, and the first-seen rows not folded yet.
        self._skyline: dict[tuple[int, ...], list[Row]] = {}
        self._sky_matrix: np.ndarray | None = None
        self._unfolded: list[Row] = []
        #: Vectors that entered and left the skyline since this session's
        #: last checkpoint; ``None`` until its first, which stores the
        #: whole skyline.
        self._sky_changes: tuple[set, set] | None = None
        self._engine = QueryEngine(interface, strategy=strategy, dedup=dedup)
        # Budget accounting is reservation-based so it stays exact under
        # concurrent dispatch: every transport claims a unit *before* it
        # reaches the endpoint (from whichever thread runs it).
        self._budget_used = 0
        self._budget_lock = threading.Lock()
        # Durable-crawl state (bound by ``attach_store``; all None/0 for
        # plain in-memory runs).
        self._store: "CrawlStore | None" = None
        self._store_session: "SessionRecord | None" = None
        self._checkpoint_every = 0
        self._records_since_checkpoint = 0
        #: Queries billed by earlier (crashed) incarnations of this crawl
        #: session, carried into :attr:`cost` so a resumed run reports the
        #: cumulative billed total.
        self._prior_cost = 0
        # Observability plane (bound by ``attach_observer``; ``None`` keeps
        # every instrumentation hook a single is-not-None check).
        self._observer = None
        self._owns_observer = False

    # ------------------------------------------------------------------
    # interface passthrough
    # ------------------------------------------------------------------
    @property
    def schema(self):
        """Schema of the underlying search interface."""
        return self._interface.schema

    @property
    def k(self) -> int:
        """Top-k limit of the underlying interface."""
        return self._interface.k

    @property
    def base_query(self) -> Query:
        """Predicates conjoined to every query of this session."""
        return self._base

    @property
    def cost(self) -> int:
        """Billed queries of this crawl so far.

        Counts queries issued through this session, plus -- for a resumed
        durable crawl -- the queries already billed by the crashed
        incarnations it continues (so ``result.total_cost`` reports what
        the whole crawl actually paid).
        """
        return self._interface.queries_issued - self._start + self._prior_cost

    @property
    def log(self) -> tuple[QueryResult, ...]:
        """All query results recorded by this session, in merge order.

        Empty unless the session was built with ``record_log=True``
        (``DiscoveryConfig.record_log`` for a facade run).
        """
        if self._log is None:
            return ()
        return tuple(self._log)

    @property
    def budget(self) -> int | None:
        """Session-level query allowance (``None`` = unlimited)."""
        return self._budget

    @property
    def engine(self) -> QueryEngine:
        """The execution engine (memo, counters, strategy) of this session."""
        return self._engine

    @property
    def engine_stats(self) -> EngineStats:
        """Current execution counters (frozen snapshot)."""
        return self._engine.snapshot()

    def frontier(self, lifo: bool = False) -> Frontier:
        """A fresh :class:`~repro.core.engine.Frontier` over this session."""
        return Frontier(self, lifo=lifo)

    def prepare(self, query: Query) -> Query:
        """Conjoin ``query`` with the session base (the issued form)."""
        merged = self._base.merge(query)
        if merged is None:
            raise ValueError(
                f"query {query!r} contradicts session base {self._base!r}"
            )
        return merged

    def reserve_budget(self) -> None:
        """Claim one unit of the session allowance ahead of a transport.

        Thread-safe (the concurrent strategy reserves from pool threads)
        and exact: issuing never exceeds the budget, and a budget
        sufficient for a serial run is sufficient for a concurrent one (the
        strategies issue the same query set).  Memoized answers never
        reserve -- dedup hits are free.
        """
        if self._budget is None:
            return
        with self._budget_lock:
            if self._budget_used >= self._budget:
                raise QueryBudgetExceeded(self._budget)
            self._budget_used += 1

    def release_budget(self, count: int = 1) -> None:
        """Return reservations whose transport did not bill (failures)."""
        if self._budget is None or count <= 0:
            return
        with self._budget_lock:
            self._budget_used -= count

    def issue(self, query: Query) -> QueryResult:
        """Issue ``query`` (conjoined with the base query) and record it.

        A one-entry frontier drained through the 1 x 1 inline window of
        :class:`~repro.core.engine.SerialStrategy`, whatever strategy
        drains this session's frontiers: the consult chain (memo,
        in-flight window, ledger -- free answers reserve no budget),
        billing, the merge and its trace spans are the drain core's, as
        for every other query.
        """
        answers: list[QueryResult] = []
        frontier = Frontier(self)
        frontier.add(query, answers.append)
        _ONE_BY_ONE.drain(frontier, self)
        return answers[0]

    def record(self, result: QueryResult) -> None:
        """Fold one answer into the session bookkeeping (driver thread).

        The drain core calls it at each entry's merge, in dispatch order,
        so answers transported on worker threads are still recorded here,
        deterministically.
        """
        cost = self.cost
        for row in result.rows:
            if row.rid not in self._first_seen:
                entry = TraceEntry(cost, row)
                self._first_seen[row.rid] = entry
                self._unfolded.append(row)
                if self._on_tuple is not None:
                    self._on_tuple(entry)
        if len(self._unfolded) >= FOLD_ROWS:
            self._fold()
        self._answers += 1
        if self._log is not None:
            self._log.append(result)
        if self._on_query is not None:
            self._on_query(result)
        if self._store is not None:
            self._records_since_checkpoint += 1
            if self._records_since_checkpoint >= self._checkpoint_every:
                self.save_checkpoint()

    @classmethod
    def from_config(
        cls,
        interface: SearchEndpoint,
        config: "DiscoveryConfig | None" = None,
        *,
        default_dedup: bool = False,
        algorithm: str | None = None,
        ledger_factory: "Callable[[str, SessionRecord], object] | None" = None,
    ) -> "DiscoverySession":
        """Start a run: a session honouring a :class:`DiscoveryConfig`
        (``None`` = defaults).

        ``default_dedup`` is the memoization default applied when the
        config leaves ``dedup`` unset (``Discoverer.skyband`` passes
        ``True``).  ``algorithm`` labels the crawl session when
        ``config.store`` is set (resume matches on endpoint + algorithm),
        and ``ledger_factory`` is handed to :meth:`attach_store`.
        """
        if config is None:
            return cls(interface, dedup=default_dedup)
        dedup = config.dedup if config.dedup is not None else default_dedup
        session = cls(
            interface,
            config.base_query,
            budget=config.budget,
            on_query=config.on_query,
            on_tuple=config.on_tuple,
            strategy=config.execution_strategy(),
            dedup=dedup,
            record_log=config.record_log,
        )
        if config.store is not None:
            session.attach_store(
                config.store,
                algorithm=algorithm or "",
                resume=config.resume,
                session_id=config.session_id,
                checkpoint_every=config.checkpoint_every,
                ledger_factory=ledger_factory,
            )
        if config.trace is not None:
            from ..obs import RunObserver

            if isinstance(config.trace, RunObserver):
                session.attach_observer(config.trace)
            else:
                try:
                    observer = RunObserver(trace=config.trace)
                except OSError:
                    # A trace file that cannot be opened must not leave
                    # the durable run's replay nonce on the shared client.
                    session.close()
                    raise
                session.attach_observer(observer, owned=True)
        return session

    # ------------------------------------------------------------------
    # run lifecycle
    # ------------------------------------------------------------------
    def run(self, body: Callable[..., None], *args: Any) -> bool:
        """Run ``body(self, *args)`` and end the run; ``False`` = partial.

        Budget exhaustion (:class:`QueryBudgetExceeded`) is the anytime
        end of §7.1: the run returns ``False`` and the session still holds
        everything retrieved so far.  Any other exception propagates.
        Either way :meth:`close` runs first, so a crash leaves neither a
        replay nonce nor an observer on the shared client.
        """
        try:
            body(self, *args)
        except QueryBudgetExceeded:
            return False
        finally:
            self.close()
        return True

    def close(self) -> None:
        """Release the shared client and the trace sink (idempotent).

        A durable session drops its replay nonce: later non-durable runs
        on the same client must not be server-replayed unbilled while
        still counting their queries as issued.  A traced session detaches
        its observer from the engine, the client and the store, then
        closes it (owned) or flushes it (caller's).
        """
        if self._store_session is not None:
            set_nonce = getattr(self._interface, "set_replay_nonce", None)
            if set_nonce is not None:
                set_nonce(None)
        observer = self._observer
        if observer is None:
            return
        self._observer = None
        self._engine.observer = None
        attach = getattr(self._interface, "attach_observer", None)
        if attach is not None:
            attach(None)
        if self._store is not None:
            self._store.attach_observer(None)
        if self._owns_observer:
            observer.close()
        else:
            observer.flush()

    def finish(
        self, spec: "AlgorithmSpec", config: "DiscoveryConfig", complete: bool
    ) -> DiscoveryResult:
        """Package the run of ``spec`` under ``config`` and file it.

        The result carries the config, the registry info, the query log
        (empty unless ``config.record_log`` kept one) and the crawl-store
        session; :meth:`finish_store` files it.  A run that raised never
        gets here, so its durable session stays ``running``, i.e.
        resumable.
        """
        result = _dc_replace(
            self.result(spec.display(self.schema), complete),
            config=config,
            info=spec.info(),
            query_log=self.log,
            store_session=self._store_session,
        )
        self.finish_store(result)
        return result

    # ------------------------------------------------------------------
    # observability plumbing (repro.obs)
    # ------------------------------------------------------------------
    def attach_observer(self, observer, *, owned: bool = False) -> None:
        """Bind a :class:`repro.obs.RunObserver` to this run.

        The observer is handed to the execution engine (drain-core
        classification, billing and merge spans) and -- duck-typed, like
        the replay nonce -- to the interface when it exposes
        ``attach_observer`` (the remote clients and the coordinator's
        endpoint set do), covering transport events and the over-the-wire
        ``X-Trace-Id`` header.  ``owned=True`` makes :meth:`close` close
        the observer's trace writer (sessions own observers they created
        from ``DiscoveryConfig(trace=path)``).

        The hooks only ever *emit* events; no algorithmic control flow
        reads the observer, so a traced run is bit-identical in skyline
        and billed cost to an untraced one.
        """
        self._observer = observer
        self._owns_observer = owned
        self._engine.observer = observer
        attach = getattr(self._interface, "attach_observer", None)
        if attach is not None:
            attach(observer)
        if self._store is not None:
            self._store.attach_observer(observer)

    @property
    def observer(self):
        """The bound :class:`repro.obs.RunObserver`, if any."""
        return self._observer

    # ------------------------------------------------------------------
    # durable-crawl plumbing (crawl store)
    # ------------------------------------------------------------------
    def attach_store(
        self,
        store: "CrawlStore",
        *,
        algorithm: str = "",
        resume: bool = False,
        session_id: str | None = None,
        checkpoint_every: int = 32,
        ledger_factory: "Callable[[str, SessionRecord], object] | None" = None,
    ) -> None:
        """Make this run durable against ``store``.

        Registers the endpoint (refusing, via
        :class:`~repro.store.StoreMismatchError`, a ledger built against a
        different dataset/``k``), begins -- or with ``resume=True`` picks
        back up -- a crawl session, and mounts the endpoint's query ledger
        on the execution engine so already-paid-for answers replay free
        and every billed answer is persisted.  ``session_id`` pins the
        session identity instead (fetch-or-create; the coordinator's
        per-job sessions).  Remote endpoints that support it additionally
        get the session's deterministic replay nonce, so queries billed
        by a crashed incarnation but never persisted (lost in flight) are
        replayed by the server instead of billed twice.

        ``ledger_factory`` swaps the mounted ledger view for a custom one
        (called with the endpoint fingerprint and the session record; must
        honour the ``put``-then-``get`` round-trip the engine's in-flight
        dedup relies on).  The delta-crawl mounts its epoch-straddling
        :class:`repro.freshness.DeltaLedger` through this seam.
        """
        name = getattr(self._interface, "service_name", "") or getattr(
            self._interface, "name", ""
        )
        # Endpoints that advertise a data version (live databases) stamp it
        # into the registration, so the mounted ledger pins to the *current*
        # epoch: answers billed against an older state are never replayed.
        version = getattr(self._interface, "data_version", None)
        fingerprint = store.register_endpoint(
            self.schema,
            self.k,
            name=name,
            ranking=getattr(self._interface, "ranking_label", ""),
            data_version=int(version) if version is not None else None,
        )
        record = store.begin_session(
            fingerprint, algorithm, resume=resume, session_id=session_id
        )
        self._store = store
        self._store_session = record
        self._checkpoint_every = max(int(checkpoint_every), 1)
        self._prior_cost = record.billed if record.resumed else 0
        if ledger_factory is None:
            ledger = store.ledger(fingerprint, record.session_id)
        else:
            ledger = ledger_factory(fingerprint, record)
        self._engine.bind_ledger(ledger)
        set_nonce = getattr(self._interface, "set_replay_nonce", None)
        if set_nonce is not None:
            set_nonce(record.nonce)

    @property
    def store_session(self) -> "SessionRecord | None":
        """The crawl-store session backing this run, if durable."""
        return self._store_session

    def save_checkpoint(self) -> None:
        """Snapshot the crawl's progress into the store (no-op otherwise)."""
        if self._store is None or self._store_session is None:
            return
        self._records_since_checkpoint = 0
        self._fold()
        counters = {
            "billed": self.cost,
            "retrieved": len(self._first_seen),
            "answers": self._answers,
            "skyline_size": len(self._skyline),
        }
        session_id = self._store_session.session_id
        if self._sky_changes is None:
            # This session object's first checkpoint replaces whatever
            # skyline an earlier incarnation stored.
            counters["skyline"] = list(self._skyline)
            self._store.save_checkpoint(session_id, counters)
        else:
            entered, left = self._sky_changes
            self._store.save_checkpoint(
                session_id, counters, entered=entered, left=left
            )
        self._sky_changes = (set(), set())

    def finish_store(
        self, result: "DiscoveryResult | SkybandResult"
    ) -> None:
        """File ``result`` in the store's crawl catalog (no-op otherwise).

        Only *complete* results finish the crawl session.  A partial run
        (budget exhaustion, the anytime mode) checkpoints its final state
        but stays ``running``: rerunning with ``resume=True`` -- e.g.
        after the per-key budget refreshes -- replays the paid-for prefix
        and finishes the discovery without re-billing a single query.
        """
        if self._store is None or self._store_session is None:
            return
        if not result.complete:
            self.save_checkpoint()
            return
        rows = getattr(result, "skyline", None)
        if rows is None:
            rows = getattr(result, "skyband", ())
        payload: dict = {
            "algorithm": result.algorithm,
            "total_cost": int(result.total_cost),
            "complete": bool(result.complete),
            "skyline_size": len({row.values for row in rows}),
            "skyline": [[int(v) for v in row.values] for row in rows],
            "stats": result.stats.as_dict() if result.stats is not None else None,
        }
        band = getattr(result, "band", None)
        if band is not None:
            payload["band"] = int(band)
        self.save_checkpoint()
        self._store.finish_session(self._store_session.session_id, payload)

    def mark_incomplete(self) -> None:
        """Flag the run as provably partial (e.g. an unsplittable crawl
        region); the packaged result will report ``complete=False``."""
        self._incomplete = True

    @property
    def marked_incomplete(self) -> bool:
        """Whether the body called :meth:`mark_incomplete`."""
        return self._incomplete

    # ------------------------------------------------------------------
    # retrieval bookkeeping
    # ------------------------------------------------------------------
    @property
    def retrieved_rows(self) -> list[Row]:
        """All distinct tuples retrieved so far, in first-retrieval order."""
        return [entry.row for entry in self._first_seen.values()]

    def has_retrieved(self, rid: int) -> bool:
        """Whether the tuple with row id ``rid`` has been retrieved."""
        return rid in self._first_seen

    def _fold(self) -> None:
        """Fold the buffered first-seen rows into the maintained skyline.

        A row tying a kept vector joins that vector's rows, so the kernel
        sees each new distinct vector once, however tied the data.  Only
        the vectors that leave or enter the skyline are touched in Python,
        and a checkpointing session notes them for its next checkpoint.
        """
        fresh: dict[tuple[int, ...], list[Row]] = {}
        for row in self._unfolded:
            ties = self._skyline.get(row.values)
            if ties is None:
                ties = fresh.setdefault(row.values, [])
            ties.append(row)
        self._unfolded = []
        if not fresh:
            return
        block = np.array(list(fresh), dtype=np.int64)
        kept = block[:0] if self._sky_matrix is None else self._sky_matrix
        positions = incremental_skyline_update(kept, block)
        size = kept.shape[0]
        stays = np.zeros(size, dtype=bool)
        stays[positions[positions < size]] = True
        left = list(map(tuple, kept[~stays].tolist()))
        vectors = list(fresh)
        entered = [
            vectors[index]
            for index in (positions[positions >= size] - size).tolist()
        ]
        for vector in left:
            del self._skyline[vector]
        for vector in entered:
            self._skyline[vector] = fresh[vector]
        self._sky_matrix = np.concatenate([kept, block])[positions]
        if self._sky_changes is not None:
            # A vector that entered since the last checkpoint and left
            # again leaves ``joined``; deleting it from the store is a no-op.
            joined, dropped = self._sky_changes
            joined.difference_update(left)
            dropped.update(left)
            joined.update(entered)

    def confirmed_skyline(self) -> list[Row]:
        """Skyline of the tuples retrieved so far, folded rows first in
        the maintained coordinate-sum order."""
        folded: list[Row] = []
        if self._sky_matrix is not None:
            for vector in self._sky_matrix.tolist():
                folded += self._skyline[tuple(vector)]
        return skyline_of_rows(folded + self._unfolded)

    def result(self, algorithm: str, complete: bool = True) -> DiscoveryResult:
        """Package the session state into a :class:`DiscoveryResult`."""
        skyline = self.confirmed_skyline()
        trace = sorted(
            (self._first_seen[row.rid] for row in skyline),
            key=lambda entry: (entry.cost, entry.row.rid),
        )
        return DiscoveryResult(
            algorithm=algorithm,
            skyline=tuple(
                sorted(skyline, key=lambda row: (row.values, row.rid))
            ),
            trace=tuple(trace),
            total_cost=self.cost,
            retrieved=tuple(self.retrieved_rows),
            complete=complete and not self._incomplete,
            stats=self._engine.snapshot(),
        )


def rows_values(rows: Iterable[Row]) -> frozenset[tuple[int, ...]]:
    """Value-vector set of a row collection (test / comparison helper)."""
    return frozenset(row.values for row in rows)
