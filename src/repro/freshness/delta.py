"""Incremental delta-crawls over a versioned query ledger.

A *delta crawl* repairs the skyline of a live hidden database after its
contents changed, reusing the query ledger of an earlier crawl instead of
re-billing everything.  The mechanism has three parts:

**Probing.**  The previous skyline is the part of the answer space whose
change matters most, so the crawl first re-bills, for every prior skyline
vector, the one ledgered query where that vector ranked highest (plus the
broadest ledgered query overall, whose top-k is the global answer head).
Each probe's fresh answer is diffed against the stale one; every row that
appeared, vanished or changed values seeds the *dirty set*.

**Cascaded revalidation.**  The regular discovery algorithm then runs
unmodified, but its engine consults a :class:`DeltaLedger`: answers already
billed at the current data version are served free; a stale answer is served
free only while nothing dirty touches it -- none of its rows are dirty, and
no *appeared* vector inside its query's region could crack its top-k (the
ranking is domination-consistent, so a newcomer dominated by the answer's
worst returned row provably ranks below the whole window); any suspect entry
reads as a miss and is re-billed, and the fresh answer's diff extends the
dirty set -- so re-expansion cascades exactly along the paths where answers
changed.

**Fixpoint.**  Because the dirty set grows during the run, an answer trusted
early may be incriminated later.  After each pass the trusted entries are
re-checked against the final dirty set (and every skyline vector the pass
produced must be confirmed by a current-version answer); if anything became
suspect the algorithm runs again -- previously billed answers now replay
free from the ledger, so an extra pass re-bills only the newly suspect
entries.  At the fixpoint every served answer is consistent with everything
the repair observed, the surviving stale entries are re-stamped to the
current epoch (:meth:`repro.store.CrawlStore.ledger_bump_epoch` -- the
durable payoff), and the session files its result like any other crawl.

Delta repair is exact whenever the churn is visible through the probed
frontier and the cascade -- which covers mutations of any previously
retrieved row and any change that surfaces in a re-billed answer.  A
mutation that hides from every billed answer (possible only in regions the
previous crawl proved irrelevant) cannot be observed through a top-k
interface without re-billing those regions wholesale, which is exactly the
from-scratch cost this mode exists to avoid.  For churn-heavy endpoints
``DiscoveryConfig(options={"delta_strict": True})`` buys back most of that
blind spot: strict revalidation additionally re-bills every non-overflowing
certificate whose region is not provably dominated by a vector confirmed
alive at the current version, so a hidden insert can only survive inside a
region where it is dominated anyway -- at a correspondingly higher billed
cost on sparse-frontier (small ``k``) workloads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..core.base import DiscoveryResult, DiscoverySession
from ..core.dominance import dominates, skyline_indices
from ..hiddendb.interface import QueryResult
from ..hiddendb.query import Query

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..core.registry import AlgorithmSpec, DiscoveryConfig
    from ..hiddendb.endpoint import SearchEndpoint
    from ..store import CrawlStore, LedgerEntry, SessionRecord

#: Safety valve on revalidation passes.  The forced set only grows and is
#: bounded by the stale-entry count, so the fixpoint terminates on its own;
#: the cap just bounds pathological ledgers.
MAX_ROUNDS = 8


@dataclass(frozen=True)
class DeltaReport:
    """Accounting of one delta-crawl repair (``result.freshness``)."""

    #: Endpoint data version the ledger was repaired to.
    epoch: int
    #: Stale (older-epoch) ledger entries available for reuse.
    stale_entries: int
    #: Probe queries issued against the previous skyline and answer head.
    probes: int
    #: Stale answers served free in the final (fixpoint) pass.
    served_stale: int
    #: Stale entries forced to re-bill because the dirty set touched them.
    forced: int
    #: Surviving stale entries re-stamped to the current epoch.
    revalidated: int
    #: Revalidation passes until the fixpoint (1 = nothing cascaded back).
    rounds: int
    #: Total queries billed by the whole repair.
    billed: int
    #: Distinct value vectors of the previous skyline.
    prior_skyline_size: int
    #: Skyline vectors that appeared since the previous crawl.
    skyline_added: tuple[tuple[int, ...], ...] = ()
    #: Skyline vectors that vanished since the previous crawl.
    skyline_removed: tuple[tuple[int, ...], ...] = ()

    @property
    def skyline_changed(self) -> bool:
        """Whether the repair observed any skyline membership change."""
        return bool(self.skyline_added or self.skyline_removed)

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly view (job progress, benchmark records)."""
        return {
            "epoch": self.epoch,
            "stale_entries": self.stale_entries,
            "probes": self.probes,
            "served_stale": self.served_stale,
            "forced": self.forced,
            "revalidated": self.revalidated,
            "rounds": self.rounds,
            "billed": self.billed,
            "prior_skyline_size": self.prior_skyline_size,
            "skyline_added": [list(v) for v in self.skyline_added],
            "skyline_removed": [list(v) for v in self.skyline_removed],
        }


class DeltaLedger:
    """Epoch-straddling ledger view driving the revalidation cascade.

    Wraps the store ledger pinned to the *current* epoch (reads and writes
    exactly like a normal durable crawl) plus the decoded stale entries of
    older epochs.  ``get`` serves, in order: the fresh ledger; then a stale
    answer, but only while it is neither *forced* nor *suspect* under the
    dirty set accumulated so far.  ``put`` persists the billed answer at
    the current epoch and diffs it against the stale answer it replaces,
    growing the dirty set -- the cascade's propagation step.

    Thread-safe: the concurrent strategy consults from its merge path
    while transports complete concurrently.
    """

    def __init__(
        self,
        fresh: object,
        stale: Mapping[str, "LedgerEntry"],
        *,
        epoch: int,
        ranking_width: int = 0,
        strict: bool = False,
    ) -> None:
        self._fresh = fresh
        self._stale = dict(stale)
        self._epoch = int(epoch)
        self._width = int(ranking_width)
        self._strict = bool(strict)
        self._lock = threading.Lock()
        self._dirty_rids: set[int] = set()
        #: Value vectors that *appeared* at the current version (inserts,
        #: update targets): the only changes that can newly crack a top-k.
        self._dirty_added: set[tuple[int, ...]] = set()
        #: Value vectors that *vanished* (deletes, update sources): these
        #: can only affect answers that contained them, which the direct
        #: row-overlap test catches.
        self._dirty_removed: set[tuple[int, ...]] = set()
        self._confirmed: set[tuple[int, ...]] = set()
        self._forced: set[str] = set()
        self._trusted: dict[str, "LedgerEntry"] = {}
        self._served_stale = 0
        self._suspect_misses = 0

    # ------------------------------------------------------------------
    # engine-facing ledger protocol
    # ------------------------------------------------------------------
    def get(self, query: Query) -> QueryResult | None:
        """A free answer for ``query``: fresh, or still-trustworthy stale."""
        hit = self._fresh.get(query)
        if hit is not None:
            with self._lock:
                self._confirmed.update(row.values for row in hit.rows)
            return hit
        key = query.canonical_key()
        entry = self._stale.get(key)
        if entry is None:
            return None
        with self._lock:
            if key in self._forced or self._suspect(entry):
                self._suspect_misses += 1
                return None
            self._trusted[key] = entry
            self._served_stale += 1
        return entry.result

    def put(self, query: Query, result: QueryResult) -> None:
        """Persist one billed answer and fold its diff into the dirty set."""
        key = query.canonical_key()
        with self._lock:
            self._confirmed.update(row.values for row in result.rows)
            stale = self._stale.get(key)
            if stale is not None:
                self._diff(stale.result, result)
            self._trusted.pop(key, None)
        self._fresh.put(query, result)

    # ------------------------------------------------------------------
    # dirty-set bookkeeping (all callers hold the lock)
    # ------------------------------------------------------------------
    def _diff(self, old: QueryResult, new: QueryResult) -> None:
        old_rows = {row.rid: row.values for row in old.rows}
        new_rows = {row.rid: row.values for row in new.rows}
        for rid, values in old_rows.items():
            if new_rows.get(rid) != values:
                self._dirty_rids.add(rid)
                self._dirty_removed.add(values)
        for rid, values in new_rows.items():
            if old_rows.get(rid) != values:
                self._dirty_rids.add(rid)
                self._dirty_added.add(values)

    def _suspect(self, entry: "LedgerEntry") -> bool:
        rows = entry.result.rows
        for row in rows:
            if (
                row.rid in self._dirty_rids
                or row.values in self._dirty_added
                or row.values in self._dirty_removed
            ):
                return True
        # Beyond direct overlap, only an *appeared* vector inside the
        # query's region can change the answer: a vanished in-region row
        # either sat in the answer (caught above) or ranked below it.
        query = entry.query
        if entry.result.overflow and rows:
            # The answer is a full top-k window.  Ranking is domination-
            # consistent, so a newcomer dominated by the last (worst)
            # returned row surely ranks below the whole window and cannot
            # crack it.
            last = rows[-1].values
            return any(
                query.matches_values(values) and not dominates(last, values)
                for values in self._dirty_added
            )
        # A non-overflowing answer is a completeness certificate for its
        # region; an observed appearance inside it voids the certificate.
        if any(
            query.matches_values(values) for values in self._dirty_added
        ):
            return True
        if self._strict:
            # Strict revalidation also distrusts certificates that an
            # *unobserved* insert could void: the certificate survives
            # only when its region is provably dominated by a vector
            # confirmed alive at the current version -- then anything
            # hiding inside is dominated too (transitively) and can never
            # reach the skyline.  Everything else re-bills, which is
            # exactly how hidden inserts surface into the dirty set.
            return not self._covered(query)
        return False

    def _covered(self, query: Query) -> bool:
        if not self._width:
            return False
        intervals = [query.ranges.get(i) for i in range(self._width)]
        if all(
            interval is not None and interval.lo == interval.hi
            for interval in intervals
        ):
            # A fully pinned (point) region admits exactly one ranking
            # vector, so nothing hiding there can add a skyline vector --
            # and a vanished one is caught by the skyline-support check.
            return True
        if query.filters:
            # A filtered region is a different lattice slice; a global
            # confirmed vector says nothing about it.
            return False
        corner = tuple(
            interval.lo if interval is not None else 0
            for interval in intervals
        )
        return any(
            all(s[i] <= corner[i] for i in range(self._width))
            for s in self._confirmed
        )

    # ------------------------------------------------------------------
    # fixpoint driver interface
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Reset the per-pass trust tracking (dirty/forced sets persist)."""
        with self._lock:
            self._trusted.clear()
            self._served_stale = 0

    def finish_round(self) -> int:
        """Force entries this pass trusted but the final dirty set touches.

        Returns how many entries were newly forced; zero means the pass
        was self-consistent (the fixpoint).
        """
        with self._lock:
            incriminated = [
                key
                for key, entry in self._trusted.items()
                if self._suspect(entry)
            ]
            self._forced.update(incriminated)
            return len(incriminated)

    def force_containing(self, vectors: Iterable[tuple[int, ...]]) -> int:
        """Force every trusted entry whose answer carries one of ``vectors``.

        Used for skyline-support verification: a skyline vector the pass
        produced purely from stale answers must be re-billed before it can
        be reported.
        """
        wanted = set(vectors)
        if not wanted:
            return 0
        with self._lock:
            incriminated = [
                key
                for key, entry in self._trusted.items()
                if any(row.values in wanted for row in entry.result.rows)
                and key not in self._forced
            ]
            self._forced.update(incriminated)
            return len(incriminated)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Data version this view repairs the ledger to."""
        return self._epoch

    @property
    def stale_entries(self) -> int:
        """Older-epoch entries available for reuse."""
        return len(self._stale)

    @property
    def served_stale(self) -> int:
        """Stale answers served free in the current pass."""
        with self._lock:
            return self._served_stale

    @property
    def forced_count(self) -> int:
        """Entries barred from free serving by the cascade."""
        with self._lock:
            return len(self._forced)

    def confirmed_vectors(self) -> frozenset[tuple[int, ...]]:
        """Value vectors confirmed to exist at the current data version."""
        with self._lock:
            return frozenset(self._confirmed)

    def trusted_keys(self) -> tuple[str, ...]:
        """Canonical keys of the stale entries the last pass served free."""
        with self._lock:
            return tuple(sorted(self._trusted))

    def __repr__(self) -> str:
        return (
            f"DeltaLedger(epoch={self._epoch}, stale={len(self._stale)}, "
            f"forced={len(self._forced)}, dirty={len(self._dirty_rids)})"
        )


class DeltaCrawl:
    """One delta-crawl repair of a store ledger against a live endpoint.

    Built by :meth:`repro.Discoverer.run` for ``mode="delta"``, the one way
    to run a repair.  The repair always begins a *fresh* crawl session:
    reusing an earlier session's replay nonce could let the server replay
    answers billed against the old data version.
    """

    def __init__(
        self,
        interface: "SearchEndpoint",
        spec: "AlgorithmSpec",
        config: "DiscoveryConfig",
    ) -> None:
        if config.store is None:
            raise ValueError("a delta crawl requires DiscoveryConfig(store=...)")
        self._interface = interface
        self._spec = spec
        self._config = config
        self._store: "CrawlStore" = config.store
        self._ledger: DeltaLedger | None = None
        self._fingerprint = ""
        self._epoch = 0
        self._probes = 0
        #: Skyline vectors of the previous crawl (set by the first pass).
        self._prior: frozenset[tuple[int, ...]] = frozenset()

    # ------------------------------------------------------------------
    # session plumbing
    # ------------------------------------------------------------------
    def _ledger_factory(
        self, fingerprint: str, record: "SessionRecord"
    ) -> DeltaLedger:
        if self._ledger is None:
            self._fingerprint = fingerprint
            # ``attach_store`` registered the endpoint at the interface's
            # advertised data version, so the store's registered version
            # *is* the current epoch.
            self._epoch = self._store.endpoint_data_version(fingerprint)
            stale = {
                entry.qkey: entry
                for entry in self._store.ledger_entries(fingerprint)
                if entry.epoch != self._epoch
            }
            fresh = self._store.ledger(
                fingerprint, record.session_id, epoch=self._epoch
            )
            self._ledger = DeltaLedger(
                fresh,
                stale,
                epoch=self._epoch,
                ranking_width=len(self._interface.schema.ranking_attributes),
                strict=bool(self._config.options.get("delta_strict", False)),
            )
        return self._ledger

    # ------------------------------------------------------------------
    # probe selection
    # ------------------------------------------------------------------
    def _prior_skyline(self) -> frozenset[tuple[int, ...]]:
        """The previous crawl's skyline vectors.

        Preferred source: the newest *complete* filed result of this
        endpoint.  Fallback (crashed or never-finished previous crawl):
        the skyline of every row the stale ledger retrieved.
        """
        for record in self._store.sessions(self._fingerprint):
            result = record.result
            if (
                record.status == "finished"
                and result
                and result.get("complete")
                and result.get("skyline") is not None
            ):
                return frozenset(
                    tuple(int(v) for v in vector)
                    for vector in result["skyline"]
                )
        assert self._ledger is not None
        vectors = {
            row.values
            for entry in self._ledger._stale.values()
            for row in entry.result.rows
        }
        if not vectors:
            return frozenset()
        matrix = np.array(sorted(vectors), dtype=np.int64)
        keep = skyline_indices(matrix)
        return frozenset(
            tuple(int(v) for v in matrix[position]) for position in keep
        )

    def _select_probes(
        self, prior: frozenset[tuple[int, ...]]
    ) -> list[tuple[tuple[int, ...] | None, "LedgerEntry"]]:
        """The probe plan: per prior-skyline vector, the stale entry where it
        ranked highest (broadest query tie-breaks), after the broadest stale
        entry overall -- its top-k is the global head of the answer space,
        where a newly inserted high ranker must surface.  Each item pairs the
        vector a probe vouches for (``None`` for the head probe) with its
        entry, so issuing can skip vectors an earlier answer already
        confirmed."""
        assert self._ledger is not None
        stale = self._ledger._stale
        if not stale:
            return []
        best: dict[tuple[int, ...], tuple[tuple[int, int, str], "LedgerEntry"]]
        best = {}
        for entry in stale.values():
            for position, row in enumerate(entry.result.rows):
                if row.values not in prior:
                    continue
                rank = (position, entry.query.num_predicates, entry.qkey)
                kept = best.get(row.values)
                if kept is None or rank < kept[0]:
                    best[row.values] = (rank, entry)
        broadest = min(
            stale.values(),
            key=lambda entry: (entry.query.num_predicates, entry.qkey),
        )
        plan: list[tuple[tuple[int, ...] | None, "LedgerEntry"]]
        plan = [(None, broadest)]
        for vector, (_, entry) in sorted(
            best.items(), key=lambda item: (item[1][0], item[0])
        ):
            plan.append((vector, entry))
        return plan

    def _issue_probes(
        self,
        session: DiscoverySession,
        probes: list[tuple[tuple[int, ...] | None, "LedgerEntry"]],
    ) -> None:
        assert self._ledger is not None
        issued: set[str] = set()
        for vector, entry in probes:
            if entry.qkey in issued:
                continue
            if (
                vector is not None
                and vector in self._ledger.confirmed_vectors()
            ):
                # An earlier probe's fresh answer already carries this
                # vector at the current version; no second bill needed.
                continue
            try:
                session.issue(entry.query)
            except ValueError:
                # The ledgered query contradicts this run's base query
                # (repairing under different filtering conditions); the
                # entry simply stays stale.
                continue
            issued.add(entry.qkey)
            self._probes += 1

    # ------------------------------------------------------------------
    # the repair loop
    # ------------------------------------------------------------------
    def _repair_pass(self, session: DiscoverySession, probe: bool) -> None:
        """One revalidation pass; the first probes the previous skyline."""
        if probe:
            self._prior = self._prior_skyline()
            self._issue_probes(session, self._select_probes(self._prior))
        self._spec.run(session, self._config)

    def run(self) -> DiscoveryResult:
        """Run the repair to its fixpoint and file the result.

        Each pass is one session of the shared run lifecycle
        (:meth:`DiscoverySession.run`), resuming the previous pass's
        crawl session under the remaining budget; one observer spans
        every pass and is closed once.
        """
        cfg = self._config
        interface = self._interface
        # A live remote endpoint may have advanced past the metadata the
        # client mounted with; re-reading the version is free (healthz).
        refresh = getattr(interface, "refresh_data_version", None)
        if refresh is not None:
            refresh()
        session_id = cfg.session_id
        if session_id is not None:
            # Pinned session ids (coordinator watch jobs) get an epoch
            # suffix: each data version repairs under its own session --
            # and therefore its own replay nonce, so the server can never
            # replay an answer billed against an older version.
            version = int(getattr(interface, "data_version", 0) or 0)
            session_id = f"{session_id}@v{version}"

        observer = cfg.trace
        owns_observer = False
        if observer is not None:
            from ..obs import RunObserver

            if not isinstance(observer, RunObserver):
                observer = RunObserver(trace=cfg.trace)
                owns_observer = True

        session: DiscoverySession | None = None
        complete = True
        rounds = 0
        try:
            while True:
                rounds += 1
                budget = cfg.budget
                if budget is not None and session is not None:
                    budget = max(budget - session.cost, 0)
                session = DiscoverySession.from_config(
                    interface,
                    cfg.replace(
                        budget=budget, session_id=session_id, trace=observer
                    ),
                    algorithm=self._spec.name,
                    ledger_factory=self._ledger_factory,
                )
                session_id = session.store_session.session_id
                ledger = self._ledger
                assert ledger is not None
                ledger.begin_round()
                if not session.run(self._repair_pass, rounds == 1):
                    complete = False
                    break
                newly_forced = ledger.finish_round()
                confirmed = ledger.confirmed_vectors()
                unconfirmed = [
                    row.values
                    for row in session.confirmed_skyline()
                    if row.values not in confirmed
                ]
                newly_forced += ledger.force_containing(unconfirmed)
                if observer is not None:
                    observer.client_event(
                        "delta_round",
                        round=rounds,
                        forced=newly_forced,
                        served_stale=ledger.served_stale,
                    )
                if newly_forced == 0 or rounds >= MAX_ROUNDS:
                    break
        finally:
            if owns_observer:
                observer.close()

        ledger = self._ledger
        revalidated = 0
        if complete:
            revalidated = self._store.ledger_bump_epoch(
                self._fingerprint, ledger.trusted_keys(), self._epoch
            )
        result = session.finish(self._spec, cfg, complete)
        prior = self._prior
        new_skyline = result.skyline_values
        return replace(
            result,
            freshness=DeltaReport(
                epoch=self._epoch,
                stale_entries=ledger.stale_entries,
                probes=self._probes,
                served_stale=ledger.served_stale,
                forced=ledger.forced_count,
                revalidated=revalidated,
                rounds=rounds,
                billed=result.total_cost,
                prior_skyline_size=len(prior),
                skyline_added=tuple(sorted(new_skyline - prior)),
                skyline_removed=tuple(sorted(prior - new_skyline)),
            ),
        )
