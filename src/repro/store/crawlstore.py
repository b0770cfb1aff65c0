"""The durable crawl store: ledger, checkpoints and catalog in one SQLite file.

Under the paper's cost model every answered top-k query is *paid for*; a
real hidden-web crawl runs for hours against per-key budgets, and a crash
or restart that throws those answers away re-bills them.  :class:`CrawlStore`
makes crawls durable by persisting four things:

* the **query ledger** -- canonically-keyed ``Query -> QueryResult``
  records, shared across runs, processes and client restarts.  The
  execution engine consults the ledger before dispatching a query, so a
  ledgered answer is free exactly like a dedup hit (it advances neither
  ``queries_issued`` nor any billing counter) and is counted in
  ``EngineStats.ledger_hits``;
* **session checkpoints** -- periodic snapshots of a
  :class:`~repro.core.base.DiscoverySession`'s progress (cumulative billed
  queries, retrieved-tuple and answer counts, and the skyline so far).
  The session's billed counter commits in the same transaction as the
  ledger rows it counts (group commit, see :meth:`CrawlStore.ledger_put`),
  so it equals the ledgered answers even at a ``kill -9``;
* the **crawl catalog** -- finished results (algorithm, skyline, cost,
  engine stats), queryable from the CLI via ``repro store ls / show``;
* the **job catalog** -- the coordinator's durable submission queue
  (tenant, spec, owning session, backend count, shard progress), which is
  what lets ``repro coordinate --resume`` replay submitted-but-unfinished
  jobs after a restart.

Resume is *replay-driven*: the ledger doubles as the fetch log of the
state-dependent RQ/PQ paths.  A resumed run simply re-executes its
(deterministic) algorithm; every query whose answer is already owned --
including the strictly sequential ``frontier.fetch`` steps -- is answered
from the ledger without being billed, so the run replays to the exact
pre-crash state and then continues paying only for genuinely new queries.
Kill a crawl mid-run, rerun the same command, and discovery completes with
the same skyline at no more than the uninterrupted cost; a warm second run
over an unchanged endpoint bills zero queries.

Endpoint identity is a **fingerprint** over the schema, ``k``, service
name and ranking label (:func:`endpoint_descriptor`).  Mounting a store
against an endpoint whose fingerprint does not match any registration
raises :class:`StoreMismatchError` (stale answers from a different
dataset/k/ranking must never be replayed), and :meth:`CrawlStore.gc`
prunes registrations whose stored descriptor no longer hashes to their
fingerprint, superseded same-name registrations, and orphaned rows.

Ledger answers are stored packed (layout version 3 on, :func:`pack_answer`):
one little-endian integer array ``[flags, sequence, width]`` followed by
``rid`` and the ``width`` values of every row, in int32 when every number
fits and int64 otherwise.  Bit 0 of ``flags`` is the overflow flag and
bit 1 marks the int64 form, so the first byte says how to read the rest.
A read decodes the array with one conversion and builds one ``Row`` per
distinct packed row per :class:`QueryLedger` view.  Rows are interned by
their exact bytes, never by rid: an update keeps a tuple's rid while
changing its values.

A checkpoint's skyline lives in the ``checkpoint_skyline`` table (layout
version 4): one row per session and distinct vector, packed like a ledger
answer, while the session row keeps only the counters, so the ``billed``
update of each ledger write rewrites a small row.  A session's first checkpoint
replaces its stored vectors; every later one writes the counters and only
the vectors that entered or left the skyline since, in one transaction.
Version 1, 2 and 3 files migrate in place when opened, in one
transaction: v1 and v2 answers are wire-codec JSON, and v3 checkpoints
hold their skyline as JSON on the session row.

The store is a single SQLite file in WAL mode (durable across ``kill -9``),
or fully in-memory via :meth:`CrawlStore.memory` for tests.  All operations
are thread-safe: the concurrent strategy reads the ledger from pool threads.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..hiddendb.attributes import Schema
from ..hiddendb.interface import QueryResult
from ..hiddendb.query import Query
from ..hiddendb.table import Row

# The fingerprint scheme lives in the wire module (the server advertises
# it over ``/healthz`` and ``/api/schema``); re-exported here because the
# store is its historical home and ledger identity is where it matters.
from ..service.wire import (
    decode_answer,
    decode_query,
    encode_query,
    endpoint_descriptor,
    endpoint_fingerprint,
    fingerprint_of as _fingerprint_of,
)

#: Bump when the on-disk layout changes incompatibly.  Version 2 added
#: the freshness plane: per-entry ledger epochs + TTLs, the endpoint
#: ``data_version`` column and the ``store_meta`` schema-version table.
#: Version 3 stores each ledger answer as one packed integer array
#: (:func:`pack_answer`) instead of JSON.  Version 4 moves checkpoint
#: skylines off the session row into ``checkpoint_skyline``, one packed
#: vector per row, so a checkpoint writes only the vectors that changed.
STORE_VERSION = 4

_LEDGER_DDL = """
CREATE TABLE IF NOT EXISTS ledger (
    fingerprint  TEXT NOT NULL,
    qkey         TEXT NOT NULL,
    query_json   TEXT NOT NULL,
    answer       BLOB NOT NULL,
    billed_at    REAL NOT NULL,
    epoch        INTEGER NOT NULL DEFAULT 0,
    expires_at   REAL,
    PRIMARY KEY (fingerprint, qkey)
)"""

#: Most session-bound billed answers a store holds unwritten: a put that
#: fills the buffer writes it without waiting for the next checkpoint.
MAX_BUFFERED = 64

_INSERT_ANSWER = (
    "INSERT OR REPLACE INTO ledger "
    "(fingerprint, qkey, query_json, billed_at, answer, epoch, expires_at) "
    "VALUES (?, ?, ?, ?, ?, ?, ?)"
)

_CHECKPOINT_DDL = """
CREATE TABLE IF NOT EXISTS checkpoint_skyline (
    session_id  TEXT NOT NULL,
    vector      BLOB NOT NULL,
    PRIMARY KEY (session_id, vector)
) WITHOUT ROWID"""

_DDL = """
CREATE TABLE IF NOT EXISTS store_meta (
    key    TEXT PRIMARY KEY,
    value  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS endpoints (
    fingerprint  TEXT PRIMARY KEY,
    name         TEXT NOT NULL DEFAULT '',
    k            INTEGER NOT NULL,
    descriptor   TEXT NOT NULL,
    data_version INTEGER NOT NULL DEFAULT 0,
    created_at   REAL NOT NULL,
    last_seen    REAL NOT NULL
);""" + _LEDGER_DDL + """;
CREATE TABLE IF NOT EXISTS sessions (
    session_id       TEXT PRIMARY KEY,
    fingerprint      TEXT NOT NULL,
    algorithm        TEXT NOT NULL DEFAULT '',
    status           TEXT NOT NULL DEFAULT 'running',
    nonce            TEXT NOT NULL,
    billed           INTEGER NOT NULL DEFAULT 0,
    checkpoint_json  TEXT NOT NULL DEFAULT '{}',
    result_json      TEXT,
    created_at       REAL NOT NULL,
    updated_at       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS sessions_by_endpoint
    ON sessions (fingerprint, algorithm, status, updated_at);
""" + _CHECKPOINT_DDL + """;
CREATE TABLE IF NOT EXISTS jobs (
    job_id         TEXT PRIMARY KEY,
    fingerprint    TEXT NOT NULL,
    tenant         TEXT NOT NULL DEFAULT 'anonymous',
    algorithm      TEXT NOT NULL DEFAULT '',
    status         TEXT NOT NULL DEFAULT 'queued',
    spec_json      TEXT NOT NULL DEFAULT '{}',
    session_id     TEXT NOT NULL,
    backends       INTEGER NOT NULL DEFAULT 1,
    progress_json  TEXT NOT NULL DEFAULT '{}',
    result_json    TEXT,
    error          TEXT,
    created_at     REAL NOT NULL,
    updated_at     REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_by_status ON jobs (status, updated_at);
"""

#: Bits of a packed answer's first word (see :func:`pack_answer`).
_OVERFLOW, _WIDE = 1, 2
_INT32_MIN, _INT32_MAX = -(2 ** 31), 2 ** 31 - 1


def pack_answer(
    rows: tuple[Row, ...], overflow: bool, sequence: int
) -> bytes:
    """Encode one answer as a packed little-endian integer array.

    Words: ``flags`` (bit 0 overflow, bit 1 int64 form), ``sequence``,
    the row ``width``, then ``rid`` and the values of every row.  The
    array is int32 when every word fits and int64 otherwise; a number
    outside int64 raises :class:`OverflowError` rather than wrapping.
    """
    width = len(rows[0].values) if rows else 0
    words = [_OVERFLOW if overflow else 0, int(sequence), width]
    for row in rows:
        if len(row.values) != width:
            raise ValueError(
                f"rows of one answer must share a width; got {width} "
                f"and {len(row.values)}"
            )
        words.append(row.rid)
        words += row.values
    return _pack_words(words)


def _pack_words(words: list[int]) -> bytes:
    """``words`` as little-endian int32, or as int64 with :data:`_WIDE`
    set in the first word when a number does not fit int32."""
    if _INT32_MIN <= min(words) and max(words) <= _INT32_MAX:
        return np.array(words, dtype="<i4").tobytes()
    words[0] |= _WIDE
    return np.array(words, dtype="<i8").tobytes()


def _pack_vector(values: Iterable[int]) -> bytes:
    """One checkpoint skyline vector: a flags word, then the values.

    Packed like a ledger answer (:func:`pack_answer`), so equal vectors
    always pack to equal bytes, the table's key.
    """
    return _pack_words([0, *values])


def _unpack_vector(blob: bytes) -> list[int]:
    """The values of a :func:`_pack_vector` blob."""
    dtype = "<i8" if blob[0] & _WIDE else "<i4"
    return np.frombuffer(blob, dtype=dtype).tolist()[1:]


def unpack_answer(
    blob: bytes, interned: dict[int, dict[bytes, Row]] | None = None
) -> tuple[tuple[Row, ...], bool, int]:
    """Decode a :func:`pack_answer` array -> ``(rows, overflow, sequence)``.

    ``interned`` maps an item size to the rows already built from packed
    rows of that size, keyed by their exact bytes: a row is built once and
    shared by every later answer that packs it identically.
    """
    size = 8 if blob[0] & _WIDE else 4
    words = np.frombuffer(blob, dtype="<i8" if size == 8 else "<i4").tolist()
    flags, sequence, width = words[:3]
    stride = width + 1
    if width < 0 or (len(words) - 3) % stride:
        raise StoreError(
            f"corrupt ledger answer: {len(words)} words of row width {width}"
        )
    table = {} if interned is None else interned.setdefault(size, {})
    step = stride * size
    rows = []
    index = 3
    for start in range(3 * size, len(blob), step):
        key = blob[start:start + step]
        row = table.get(key)
        if row is None:
            row = table[key] = Row(
                words[index], tuple(words[index + 1:index + stride])
            )
        rows.append(row)
        index += stride
    return tuple(rows), bool(flags & _OVERFLOW), sequence


def _add_freshness_columns(conn: sqlite3.Connection) -> None:
    """v1 -> v2: per-entry epochs and TTLs, endpoint data versions.

    Pre-epoch rows get epoch 0 and no TTL, which is exactly the
    pre-freshness behaviour (a version-0 endpoint serves them unchanged,
    a bumped endpoint treats them stale).
    """
    conn.execute(
        "ALTER TABLE endpoints ADD COLUMN data_version "
        "INTEGER NOT NULL DEFAULT 0"
    )
    conn.execute(
        "ALTER TABLE ledger ADD COLUMN epoch INTEGER NOT NULL DEFAULT 0"
    )
    conn.execute("ALTER TABLE ledger ADD COLUMN expires_at REAL")


def _pack_json_answers(conn: sqlite3.Connection) -> None:
    """v2 -> v3: rebuild the ledger with every JSON answer packed.

    Old answers are decoded with the wire codec that wrote them; rowids
    are kept, so ``ledger_entries`` lists entries in the same order.
    """
    conn.execute("ALTER TABLE ledger RENAME TO ledger_v2")
    conn.execute(_LEDGER_DDL)
    conn.executemany(
        "INSERT INTO ledger (rowid, fingerprint, qkey, query_json, answer, "
        " billed_at, epoch, expires_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        (
            (rowid, fp, qkey, query_json,
             pack_answer(*decode_answer(json.loads(answer_json))),
             billed_at, epoch, expires_at)
            for rowid, fp, qkey, query_json, answer_json, billed_at, epoch,
                expires_at in conn.execute(
                    "SELECT rowid, fingerprint, qkey, query_json, "
                    "answer_json, billed_at, epoch, expires_at "
                    "FROM ledger_v2"
                )
        ),
    )
    conn.execute("DROP TABLE ledger_v2")


_INSERT_VECTOR = (
    "INSERT OR IGNORE INTO checkpoint_skyline (session_id, vector) "
    "VALUES (?, ?)"
)


def _move_checkpoint_skylines(conn: sqlite3.Connection) -> None:
    """v3 -> v4: each checkpoint's JSON skyline becomes vector rows.

    The session row keeps the ``skyline`` key, with ``null`` standing in
    for the rows, so a read returns the keys in their old order.
    """
    conn.execute(_CHECKPOINT_DDL)
    for session_id, checkpoint_json in conn.execute(
        "SELECT session_id, checkpoint_json FROM sessions"
    ).fetchall():
        checkpoint = json.loads(checkpoint_json or "{}")
        if "skyline" not in checkpoint:
            continue
        conn.executemany(
            _INSERT_VECTOR,
            ((session_id, _pack_vector(vector))
             for vector in checkpoint["skyline"]),
        )
        checkpoint["skyline"] = None
        conn.execute(
            "UPDATE sessions SET checkpoint_json=? WHERE session_id=?",
            (json.dumps(checkpoint), session_id),
        )


#: In-place migrations, keyed by the on-disk version they upgrade *from*.
#: Applied in sequence inside the one transaction that opens the store.
_MIGRATIONS = {
    1: _add_freshness_columns,
    2: _pack_json_answers,
    3: _move_checkpoint_skylines,
}


#: Lifecycle states of a coordinator discovery job.  ``queued`` and
#: ``running`` jobs are replayed by ``repro coordinate --resume``;
#: ``partial`` marks a budget-exhausted (still resumable) crawl.
JOB_STATUSES = (
    "queued", "running", "finished", "partial", "failed", "cancelled",
)


class StoreError(RuntimeError):
    """A crawl-store operation failed."""


class StoreMismatchError(StoreError):
    """The store's ledger was built against a different endpoint.

    Raised when a crawl tries to mount a store whose registered endpoint
    (dataset, ``k``, schema) does not match the endpoint being crawled:
    replaying answers across datasets would silently corrupt discovery.
    """


@dataclass(frozen=True)
class EndpointRecord:
    """One registered endpoint of a store."""

    fingerprint: str
    name: str
    k: int
    ledger_entries: int
    created_at: float
    last_seen: float
    #: Endpoint data version at last registration (0 = never mutated).
    data_version: int = 0


@dataclass(frozen=True)
class SessionRecord:
    """One crawl session (running, finished or failed)."""

    session_id: str
    fingerprint: str
    algorithm: str
    status: str
    nonce: str
    billed: int
    checkpoint: Mapping[str, Any] = field(default_factory=dict)
    result: Mapping[str, Any] | None = None
    created_at: float = 0.0
    updated_at: float = 0.0
    #: Whether :meth:`CrawlStore.begin_session` picked this session back up
    #: (a resumed crawl) rather than creating it fresh.
    resumed: bool = False


@dataclass(frozen=True)
class JobRecord:
    """One coordinator discovery job in the catalog."""

    job_id: str
    fingerprint: str
    tenant: str
    algorithm: str
    status: str
    spec: Mapping[str, Any] = field(default_factory=dict)
    session_id: str = ""
    backends: int = 1
    progress: Mapping[str, Any] = field(default_factory=dict)
    result: Mapping[str, Any] | None = None
    error: str | None = None
    created_at: float = 0.0
    updated_at: float = 0.0


@dataclass(frozen=True)
class GcReport:
    """What one :meth:`CrawlStore.gc` pass removed."""

    endpoints_pruned: int
    ledger_pruned: int
    sessions_pruned: int
    jobs_pruned: int = 0
    #: Ledger entries evicted for carrying a stale epoch (an older data
    #: version than their endpoint's current one).
    stale_pruned: int = 0
    #: Ledger entries evicted because their TTL lapsed.
    expired_pruned: int = 0
    #: ``True`` when this report describes a ``--dry-run`` (nothing was
    #: actually deleted).
    dry_run: bool = False

    @property
    def total(self) -> int:
        return (
            self.endpoints_pruned + self.ledger_pruned
            + self.sessions_pruned + self.jobs_pruned
            + self.stale_pruned + self.expired_pruned
        )


@dataclass(frozen=True)
class LedgerEntry:
    """One persisted ledger row, fully decoded (delta-crawl probing)."""

    qkey: str
    query: Query
    result: QueryResult
    epoch: int
    billed_at: float
    expires_at: float | None = None


class QueryLedger:
    """The ledger of one endpoint, as seen by an engine or client.

    ``get`` answers a query from the ledger (``None`` on a miss); ``put``
    records one billed answer.  When the view is bound to a crawl session,
    ``put`` buffers the answer in the store and owes the session one
    billed count; the store commits buffered answers and the counts they
    owe together (:meth:`CrawlStore.ledger_put`), keeping crash-time
    accounting exact.

    The view is pinned to an **epoch** -- the endpoint's data version at
    mount time.  ``get`` serves only entries written at that epoch (and
    not TTL-expired), so answers billed against an older state of a live
    endpoint are never replayed; ``put`` stamps the epoch on every write.

    Rows decoded through one view are interned (:func:`unpack_answer`):
    a tuple returned by many answers is one ``Row`` object.
    """

    def __init__(
        self,
        store: "CrawlStore",
        fingerprint: str,
        session_id: str | None = None,
        *,
        epoch: int = 0,
        ttl_s: float | None = None,
    ) -> None:
        self._store = store
        self._fingerprint = fingerprint
        self._session_id = session_id
        self._epoch = int(epoch)
        self._ttl_s = ttl_s
        self._rows: dict[int, dict[bytes, Row]] = {}

    @property
    def fingerprint(self) -> str:
        """Endpoint fingerprint this view reads/writes under."""
        return self._fingerprint

    @property
    def epoch(self) -> int:
        """Endpoint data version this view serves and stamps."""
        return self._epoch

    def get(self, query: Query) -> QueryResult | None:
        """The ledgered answer for ``query``, or ``None``."""
        return self._store.ledger_get(
            self._fingerprint, query, epoch=self._epoch, interned=self._rows
        )

    def put(self, query: Query, result: QueryResult) -> None:
        """Persist one billed answer (idempotent per canonical key)."""
        self._store.ledger_put(
            self._fingerprint, query, result,
            session_id=self._session_id,
            epoch=self._epoch,
            ttl_s=self._ttl_s,
        )

    def __len__(self) -> int:
        return self._store.ledger_size(self._fingerprint)

    def __repr__(self) -> str:
        return (
            f"QueryLedger({self._fingerprint}, entries={len(self)}, "
            f"epoch={self._epoch}, session={self._session_id or '-'})"
        )


class CrawlStore:
    """SQLite-backed persistence for crawls: ledger, sessions, catalog.

    Parameters
    ----------
    path:
        Database file.  Created (with parents) if missing.  Pass
        ``":memory:"`` -- or use :meth:`memory` -- for the in-memory
        variant used by tests (same API, nothing touches disk).

    One store may serve several crawls; one file holds one *endpoint*
    unless further endpoints are registered explicitly with
    ``register_endpoint(..., allow_new=True)`` -- an implicit second
    endpoint raises :class:`StoreMismatchError`, which is what makes
    ``repro crawl --store`` refuse a ledger built against a different
    dataset or ``k``.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self._path = str(path)
        self._memory = self._path == ":memory:"
        if not self._memory:
            Path(self._path).parent.mkdir(parents=True, exist_ok=True)
        # One shared connection, serialised by an RLock: ledger lookups
        # happen on the driver thread, but a ledger mounted as a remote
        # client's cache is read from the drain's pool threads too.
        self._conn = sqlite3.connect(
            self._path, check_same_thread=False, isolation_level=None
        )
        self._lock = threading.RLock()
        #: Optional :class:`~repro.obs.RunObserver`; ``None`` keeps every
        #: hook below a single attribute test (no observability overhead).
        self.observer: Any | None = None
        #: Billed answers not written yet, as ``_INSERT_ANSWER`` rows keyed
        #: by ``(fingerprint, qkey)``, and the billed count each session
        #: owes for them (see :meth:`ledger_put`).
        self._buffer: dict[tuple[str, str], tuple] = {}
        self._owed: dict[str, int] = {}
        with self._lock:
            self._conn.execute("PRAGMA busy_timeout=5000")
            if not self._memory:
                # WAL + NORMAL: a committed ledger write survives kill -9
                # without paying a full fsync per query.
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            # One transaction opens the store: the version is read under
            # the write lock, so a concurrent opener never migrates twice,
            # and every migration step, the DDL and the version stamp land
            # together or not at all -- a crash mid-migration leaves the
            # old layout intact.
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                version = int(
                    self._conn.execute("PRAGMA user_version").fetchone()[0]
                )
                if version > STORE_VERSION or (
                    version and version not in _MIGRATIONS
                    and version != STORE_VERSION
                ):
                    raise StoreError(
                        f"store {self._path!r} has on-disk layout version "
                        f"{version}; this build reads version "
                        f"{STORE_VERSION}. Use a fresh --store (or the "
                        f"matching build)."
                    )
                for step in range(version or STORE_VERSION, STORE_VERSION):
                    _MIGRATIONS[step](self._conn)
                for statement in _DDL.split(";"):
                    if statement.strip():
                        self._conn.execute(statement)
                self._conn.execute(f"PRAGMA user_version={STORE_VERSION}")
                self._conn.execute(
                    "INSERT OR REPLACE INTO store_meta (key, value) VALUES "
                    "('schema_version', ?)",
                    (str(STORE_VERSION),),
                )
                if version and version < STORE_VERSION:
                    self._conn.execute(
                        "INSERT OR IGNORE INTO store_meta (key, value) "
                        "VALUES ('migrated_from', ?)",
                        (str(version),),
                    )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                self._conn.close()
                raise

    @classmethod
    def memory(cls) -> "CrawlStore":
        """A fresh in-memory store (tests; nothing persists past close)."""
        return cls(":memory:")

    @property
    def path(self) -> str:
        """Database location (``":memory:"`` for the in-memory variant)."""
        return self._path

    def attach_observer(self, observer: Any | None) -> None:
        """Attach (or detach, with ``None``) a run observer.

        The store emits ``ledger_hit`` / ``ledger_put`` / ``checkpoint``
        events; the latter feed the coordinator's checkpoint-lag gauge.
        """
        self.observer = observer

    def close(self) -> None:
        """Write the buffered answers and close the connection
        (idempotent)."""
        with self._lock:
            try:
                self._flush()
            finally:
                self._conn.close()

    def __enter__(self) -> "CrawlStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def register_endpoint(
        self,
        schema: Schema,
        k: int,
        name: str = "",
        ranking: str = "",
        *,
        allow_new: bool = False,
        data_version: int | None = None,
    ) -> str:
        """Register (or re-verify) an endpoint; returns its fingerprint.

        A fingerprint already registered is simply touched.  The first
        endpoint of an empty store is always accepted.  A *different*
        endpoint in a non-empty store raises :class:`StoreMismatchError`
        unless ``allow_new=True`` -- stale cross-dataset replays are the
        one thing a ledger must never do.
        """
        descriptor = endpoint_descriptor(schema, k, name, ranking)
        fingerprint = _fingerprint_of(descriptor)
        now = time.time()
        with self._lock:
            # BEGIN IMMEDIATE serialises the check-then-insert against
            # concurrent *processes* sharing the store file (the RLock
            # only covers threads of this one); INSERT OR IGNORE makes
            # the race loser equivalent to the already-registered path.
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT 1 FROM endpoints WHERE fingerprint=?",
                    (fingerprint,),
                ).fetchone()
                if row is not None:
                    if data_version is None:
                        self._conn.execute(
                            "UPDATE endpoints SET last_seen=? "
                            "WHERE fingerprint=?",
                            (now, fingerprint),
                        )
                    else:
                        self._conn.execute(
                            "UPDATE endpoints SET last_seen=?, "
                            "data_version=MAX(data_version, ?) "
                            "WHERE fingerprint=?",
                            (now, int(data_version), fingerprint),
                        )
                    self._conn.execute("COMMIT")
                    return fingerprint
                existing = self._conn.execute(
                    "SELECT name, k, fingerprint, data_version FROM endpoints "
                    "ORDER BY last_seen DESC"
                ).fetchall()
                if existing and not allow_new:
                    others = ", ".join(
                        f"{other_name or '<unnamed>'} (k={other_k}, "
                        f"fingerprint {other_fp}, "
                        f"data_version {other_dv})"
                        for other_name, other_k, other_fp, other_dv in existing
                    )
                    raise StoreMismatchError(
                        f"store {self._path!r} holds a ledger for {others}; "
                        f"the current endpoint {name or '<unnamed>'} (k={k}, "
                        f"fingerprint {fingerprint}, "
                        f"data_version {int(data_version or 0)}) does not "
                        f"match. Use a fresh --store, or prune stale "
                        f"endpoints with 'repro store gc'."
                    )
                self._conn.execute(
                    "INSERT OR IGNORE INTO endpoints "
                    "(fingerprint, name, k, descriptor, data_version, "
                    " created_at, last_seen) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (fingerprint, name, int(k), descriptor,
                     int(data_version or 0), now, now),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return fingerprint

    def endpoints(self) -> tuple[EndpointRecord, ...]:
        """Registered endpoints, most recently used first."""
        with self._lock:
            self._flush()
            rows = self._conn.execute(
                "SELECT e.fingerprint, e.name, e.k, e.data_version, "
                "       e.created_at, e.last_seen, "
                "       (SELECT COUNT(*) FROM ledger l "
                "        WHERE l.fingerprint = e.fingerprint) "
                "FROM endpoints e ORDER BY e.last_seen DESC"
            ).fetchall()
        return tuple(
            EndpointRecord(
                fingerprint=fp,
                name=name,
                k=k,
                ledger_entries=entries,
                created_at=created,
                last_seen=seen,
                data_version=int(data_version),
            )
            for fp, name, k, data_version, created, seen, entries in rows
        )

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------
    def ledger(
        self,
        fingerprint: str,
        session_id: str | None = None,
        *,
        epoch: int | None = None,
        ttl_s: float | None = None,
    ) -> QueryLedger:
        """A :class:`QueryLedger` view over one endpoint's entries.

        Bind ``session_id`` when the view backs a crawl session so billed
        writes also advance that session's exact billed counter.  The
        view's ``epoch`` defaults to the endpoint's registered data
        version; pass it explicitly when the live endpoint has already
        advanced past the registration.
        """
        if epoch is None:
            epoch = self.endpoint_data_version(fingerprint)
        return QueryLedger(
            self, fingerprint, session_id, epoch=epoch, ttl_s=ttl_s
        )

    def ledger_get(
        self,
        fingerprint: str,
        query: Query,
        *,
        epoch: int | None = None,
        interned: dict[int, dict[bytes, Row]] | None = None,
    ) -> QueryResult | None:
        """The persisted answer for ``query`` under ``fingerprint``.

        With ``epoch`` given, only an entry written at exactly that data
        version (and not TTL-expired) is served -- stale answers from an
        earlier state of the endpoint read as misses, never as hits.
        ``interned`` is the row table of :func:`unpack_answer`; a
        :class:`QueryLedger` view passes its own.
        """
        qkey = query.canonical_key()
        with self._lock:
            # A buffered answer is the newest for its key: the flush
            # replaces whatever row the key has.
            row = self._buffer.get((fingerprint, qkey))
            if row is not None:
                row = row[4:]
            else:
                row = self._conn.execute(
                    "SELECT answer, epoch, expires_at FROM ledger "
                    "WHERE fingerprint=? AND qkey=?",
                    (fingerprint, qkey),
                ).fetchone()
                if row is None:
                    return None
            answer, entry_epoch, expires_at = row
            if epoch is not None and int(entry_epoch) != int(epoch):
                return None
            if expires_at is not None and expires_at <= time.time():
                return None
            # Decoded under the lock: pool threads reading one view
            # intern each packed row exactly once.
            rows, overflow, sequence = unpack_answer(answer, interned)
        if self.observer is not None:
            self.observer.store_event("ledger_hit", key=qkey)
        return QueryResult(
            query=query, rows=rows, overflow=overflow, sequence=sequence
        )

    def ledger_put(
        self,
        fingerprint: str,
        query: Query,
        result: QueryResult,
        session_id: str | None = None,
        *,
        epoch: int = 0,
        ttl_s: float | None = None,
    ) -> None:
        """Record one billed answer; with ``session_id``, also owe that
        session one billed count.

        A session-bound answer is buffered, and the buffer is written --
        one ``executemany`` INSERT and one ``billed`` bump per session, in
        one transaction -- inside the next :meth:`save_checkpoint`, once
        :data:`MAX_BUFFERED` answers wait, before any method that reads
        ledger rows or session counters, and at :meth:`close`.  Rows and
        the counters that count them commit together, so the sessions'
        ``billed`` sum equals :meth:`ledger_size` at every ``kill -9``;
        the kill loses the buffered answers, which a resumed crawl
        re-bills or the server replays free under the session's request
        ids.  :meth:`ledger_get` answers from the buffer first.  A put
        without a session writes through at once.  The answer is packed
        here, so one that cannot be stored raises at its put.
        """
        qkey = query.canonical_key()
        answer = pack_answer(result.rows, result.overflow, result.sequence)
        query_json = json.dumps(encode_query(query), separators=(",", ":"))
        now = time.time()
        expires_at = None if ttl_s is None else now + float(ttl_s)
        with self._lock:
            key = (fingerprint, qkey)
            # A re-put of a key moves to the end, as its new rowid would.
            self._buffer.pop(key, None)
            self._buffer[key] = (
                fingerprint, qkey, query_json, now,
                answer, int(epoch), expires_at,
            )
            if session_id is not None:
                self._owed[session_id] = self._owed.get(session_id, 0) + 1
            if session_id is None or len(self._buffer) >= MAX_BUFFERED:
                self._flush()
        if self.observer is not None:
            if session_id is not None:
                self.observer.store_event(
                    "ledger_put", key=qkey, session_id=session_id
                )
            else:
                self.observer.store_event("ledger_put", key=qkey)

    def _flush(self, then: Callable[[], object] | None = None) -> None:
        """Write the buffered answers and the billed counts they owe, then
        ``then``'s statements, in one transaction.

        The buffer empties only once the commit lands, so a failed
        transaction keeps its answers for the next flush.
        """
        with self._lock:
            if not self._buffer and then is None:
                return
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                if self._buffer:
                    self._conn.executemany(
                        _INSERT_ANSWER, self._buffer.values()
                    )
                    now = time.time()
                    self._conn.executemany(
                        "UPDATE sessions SET billed=billed+?, updated_at=? "
                        "WHERE session_id=?",
                        [(owed, now, sid) for sid, owed in self._owed.items()],
                    )
                if then is not None:
                    then()
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._buffer.clear()
            self._owed.clear()

    def ledger_size(self, fingerprint: str | None = None) -> int:
        """Number of ledgered answers (for one endpoint, or overall)."""
        with self._lock:
            self._flush()
            if fingerprint is None:
                row = self._conn.execute("SELECT COUNT(*) FROM ledger").fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM ledger WHERE fingerprint=?",
                    (fingerprint,),
                ).fetchone()
        return int(row[0])

    def ledger_entries(
        self, fingerprint: str, *, epoch: int | None = None
    ) -> tuple[LedgerEntry, ...]:
        """Fully-decoded ledger rows of one endpoint, oldest billed first.

        With ``epoch`` given only entries at that data version are
        returned.  This is the delta-crawl's raw material: every query
        the previous crawl paid for, with the answer it paid for.
        """
        where = "fingerprint=?"
        params: tuple[Any, ...] = (fingerprint,)
        if epoch is not None:
            where += " AND epoch=?"
            params = (fingerprint, int(epoch))
        with self._lock:
            self._flush()
            rows = self._conn.execute(
                "SELECT qkey, query_json, answer, epoch, billed_at, "
                f"       expires_at FROM ledger WHERE {where} "
                "ORDER BY billed_at, rowid",
                params,
            ).fetchall()
        entries = []
        interned: dict[int, dict[bytes, Row]] = {}
        for qkey, query_json, answer, entry_epoch, billed, expires in rows:
            query = decode_query(json.loads(query_json))
            answer_rows, overflow, sequence = unpack_answer(answer, interned)
            entries.append(
                LedgerEntry(
                    qkey=qkey,
                    query=query,
                    result=QueryResult(
                        query=query, rows=answer_rows,
                        overflow=overflow, sequence=sequence,
                    ),
                    epoch=int(entry_epoch),
                    billed_at=billed,
                    expires_at=expires,
                )
            )
        return tuple(entries)

    def ledger_epoch_histogram(self, fingerprint: str) -> dict[int, int]:
        """``{epoch: entry count}`` for one endpoint's ledger."""
        with self._lock:
            self._flush()
            rows = self._conn.execute(
                "SELECT epoch, COUNT(*) FROM ledger WHERE fingerprint=? "
                "GROUP BY epoch ORDER BY epoch",
                (fingerprint,),
            ).fetchall()
        return {int(epoch): int(count) for epoch, count in rows}

    def ledger_stale_count(
        self, fingerprint: str, *, epoch: int | None = None
    ) -> int:
        """Entries no longer servable: wrong epoch or TTL-expired.

        ``epoch`` defaults to the endpoint's registered data version.
        """
        if epoch is None:
            epoch = self.endpoint_data_version(fingerprint)
        with self._lock:
            self._flush()
            row = self._conn.execute(
                "SELECT COUNT(*) FROM ledger WHERE fingerprint=? AND "
                "(epoch != ? OR (expires_at IS NOT NULL AND expires_at <= ?))",
                (fingerprint, int(epoch), time.time()),
            ).fetchone()
        return int(row[0])

    def ledger_bump_epoch(
        self, fingerprint: str, qkeys: Iterable[str], epoch: int
    ) -> int:
        """Re-stamp entries whose answers a delta crawl proved unchanged.

        Returns the number of rows promoted to ``epoch``.  This is what
        makes delta repair pay off *durably*: revalidated entries become
        servable at the new data version without being re-billed.
        """
        keys = list(qkeys)
        if not keys:
            return 0
        with self._lock:
            self._flush()
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                total = 0
                for start in range(0, len(keys), 500):
                    chunk = keys[start:start + 500]
                    marks = ", ".join("?" for _ in chunk)
                    total += self._conn.execute(
                        f"UPDATE ledger SET epoch=? WHERE fingerprint=? "
                        f"AND qkey IN ({marks})",
                        (int(epoch), fingerprint, *chunk),
                    ).rowcount
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return total

    def endpoint_data_version(self, fingerprint: str) -> int:
        """The endpoint's registered data version (0 when unregistered)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT data_version FROM endpoints WHERE fingerprint=?",
                (fingerprint,),
            ).fetchone()
        return int(row[0]) if row is not None else 0

    def set_endpoint_data_version(
        self, fingerprint: str, data_version: int
    ) -> None:
        """Advance an endpoint's registered data version (monotonic)."""
        with self._lock:
            self._conn.execute(
                "UPDATE endpoints SET data_version=MAX(data_version, ?), "
                "last_seen=? WHERE fingerprint=?",
                (int(data_version), time.time(), fingerprint),
            )

    def schema_version(self) -> int:
        """The on-disk layout version recorded in ``store_meta``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key='schema_version'"
            ).fetchone()
        return int(row[0]) if row is not None else 0

    # ------------------------------------------------------------------
    # sessions and catalog
    # ------------------------------------------------------------------
    def begin_session(
        self,
        fingerprint: str,
        algorithm: str = "",
        *,
        resume: bool = False,
        session_id: str | None = None,
    ) -> SessionRecord:
        """Start (or, with ``resume=True``, pick back up) a crawl session.

        Resume returns the most recently updated *running* session of the
        same endpoint + algorithm -- the one a crash left behind -- with
        its exact billed counter, checkpoint and replay nonce; when none
        exists a fresh session is begun instead.

        Passing ``session_id`` pins the session identity instead: an
        existing session of that id is picked back up (whatever its
        status -- it is set running again), a missing one is created
        under exactly that id.  This is the multi-tenant seam: the
        coordinator assigns each job its session id at submission time,
        so two tenants running the *same* algorithm against the *same*
        endpoint never steal each other's checkpoints, and a restarted
        coordinator resumes precisely the session each job owns.
        """
        now = time.time()
        with self._lock:
            self._flush()
            if session_id is not None:
                row = self._conn.execute(
                    "SELECT nonce, billed, checkpoint_json, created_at "
                    "FROM sessions WHERE session_id=? AND fingerprint=? "
                    "AND algorithm=?",
                    (session_id, fingerprint, algorithm),
                ).fetchone()
                if row is not None:
                    nonce, billed, checkpoint_json, created = row
                    self._conn.execute(
                        "UPDATE sessions SET status='running', updated_at=? "
                        "WHERE session_id=?",
                        (now, session_id),
                    )
                    return SessionRecord(
                        session_id=session_id,
                        fingerprint=fingerprint,
                        algorithm=algorithm,
                        status="running",
                        nonce=nonce,
                        billed=int(billed),
                        checkpoint=self._read_checkpoint(
                            session_id, checkpoint_json
                        ),
                        created_at=created,
                        updated_at=now,
                        resumed=True,
                    )
            elif resume:
                row = self._conn.execute(
                    "SELECT session_id, nonce, billed, checkpoint_json, "
                    "       created_at "
                    "FROM sessions "
                    "WHERE fingerprint=? AND algorithm=? AND status='running' "
                    "ORDER BY updated_at DESC, rowid DESC LIMIT 1",
                    (fingerprint, algorithm),
                ).fetchone()
                if row is not None:
                    session_id, nonce, billed, checkpoint_json, created = row
                    self._conn.execute(
                        "UPDATE sessions SET updated_at=? WHERE session_id=?",
                        (now, session_id),
                    )
                    return SessionRecord(
                        session_id=session_id,
                        fingerprint=fingerprint,
                        algorithm=algorithm,
                        status="running",
                        nonce=nonce,
                        billed=int(billed),
                        checkpoint=self._read_checkpoint(
                            session_id, checkpoint_json
                        ),
                        created_at=created,
                        updated_at=now,
                        resumed=True,
                    )
            if session_id is None:
                session_id = uuid.uuid4().hex[:12]
            nonce = uuid.uuid4().hex[:16]
            try:
                self._conn.execute(
                    "INSERT INTO sessions "
                    "(session_id, fingerprint, algorithm, status, nonce, "
                    " billed, checkpoint_json, created_at, updated_at) "
                    "VALUES (?, ?, ?, 'running', ?, 0, '{}', ?, ?)",
                    (session_id, fingerprint, algorithm, nonce, now, now),
                )
            except sqlite3.IntegrityError as exc:
                # A pinned id that exists under a *different* endpoint or
                # algorithm must not be silently hijacked.
                raise StoreError(
                    f"session {session_id!r} already exists for a different "
                    f"endpoint/algorithm"
                ) from exc
        return SessionRecord(
            session_id=session_id,
            fingerprint=fingerprint,
            algorithm=algorithm,
            status="running",
            nonce=nonce,
            billed=0,
            checkpoint={},
            created_at=now,
            updated_at=now,
        )

    def save_checkpoint(
        self,
        session_id: str,
        checkpoint: Mapping[str, Any],
        *,
        entered: Iterable[Iterable[int]] | None = None,
        left: Iterable[Iterable[int]] = (),
    ) -> None:
        """Overwrite a session's progress snapshot.

        ``checkpoint`` reads back as saved, except that its ``skyline``
        entry, a collection of value vectors, is stored as a set and
        reads back as the sorted list of its distinct vectors.

        A crawl checkpointing again passes only what changed: with
        ``entered`` given, ``checkpoint`` holds the counters alone, the
        stored skyline loses ``left`` and gains ``entered`` (the vectors
        that left and entered it since the session's previous
        checkpoint), and a read lists it under ``skyline`` after the
        counters.  The buffered ledger answers (:meth:`ledger_put`),
        counters and vectors commit in one transaction, so a crash leaves
        the previous checkpoint whole.
        """
        snapshot = dict(checkpoint)
        whole = entered is None
        if whole:
            entered = snapshot.get("skyline") or ()
        if "skyline" in snapshot or not whole:
            # The vectors live in checkpoint_skyline; the key keeps its
            # place among the counters.
            snapshot["skyline"] = None

        def write() -> None:
            self._conn.execute(
                "UPDATE sessions SET checkpoint_json=?, updated_at=? "
                "WHERE session_id=?",
                (json.dumps(snapshot), time.time(), session_id),
            )
            if whole:
                self._conn.execute(
                    "DELETE FROM checkpoint_skyline WHERE session_id=?",
                    (session_id,),
                )
            else:
                self._conn.executemany(
                    "DELETE FROM checkpoint_skyline "
                    "WHERE session_id=? AND vector=?",
                    ((session_id, _pack_vector(v)) for v in left),
                )
            self._conn.executemany(
                _INSERT_VECTOR,
                ((session_id, _pack_vector(v)) for v in entered),
            )

        self._flush(write)
        if self.observer is not None:
            self.observer.store_event("checkpoint", session_id=session_id)

    def finish_session(
        self, session_id: str, result: Mapping[str, Any]
    ) -> None:
        """Mark a session finished and file its result in the catalog."""
        with self._lock:
            self._flush()
            self._conn.execute(
                "UPDATE sessions SET status='finished', result_json=?, "
                "updated_at=? WHERE session_id=?",
                (json.dumps(dict(result)), time.time(), session_id),
            )

    def session(self, session_id: str) -> SessionRecord | None:
        """Full record of one session, or ``None``."""
        records = self._sessions("WHERE session_id=?", (session_id,))
        return records[0] if records else None

    def sessions(self, fingerprint: str | None = None) -> tuple[SessionRecord, ...]:
        """All sessions (optionally of one endpoint), newest first."""
        if fingerprint is None:
            return self._sessions("", ())
        return self._sessions("WHERE fingerprint=?", (fingerprint,))

    def catalog(self) -> tuple[SessionRecord, ...]:
        """Finished crawls with their filed results, newest first."""
        return self._sessions("WHERE status='finished'", ())

    def _sessions(self, where: str, params: tuple) -> tuple[SessionRecord, ...]:
        with self._lock:
            self._flush()
            # One read transaction: a checkpoint's counters and vectors
            # come from the same commit even while another process writes.
            self._conn.execute("BEGIN")
            try:
                rows = self._conn.execute(
                    "SELECT session_id, fingerprint, algorithm, status, "
                    "       nonce, billed, checkpoint_json, result_json, "
                    "       created_at, updated_at "
                    f"FROM sessions {where} "
                    "ORDER BY updated_at DESC, rowid DESC",
                    params,
                ).fetchall()
                return tuple(
                    SessionRecord(
                        session_id=sid,
                        fingerprint=fp,
                        algorithm=algorithm,
                        status=status,
                        nonce=nonce,
                        billed=int(billed),
                        checkpoint=self._read_checkpoint(
                            sid, checkpoint_json
                        ),
                        result=json.loads(result_json) if result_json else None,
                        created_at=created,
                        updated_at=updated,
                    )
                    for sid, fp, algorithm, status, nonce, billed,
                        checkpoint_json, result_json, created, updated in rows
                )
            finally:
                self._conn.execute("COMMIT")

    def _read_checkpoint(
        self, session_id: str, checkpoint_json: str | None
    ) -> dict[str, Any]:
        """A stored checkpoint as saved, its ``skyline`` (if it has one)
        read from the session's vector rows.  Called under the lock."""
        checkpoint = json.loads(checkpoint_json or "{}")
        if "skyline" in checkpoint:
            checkpoint["skyline"] = sorted(
                _unpack_vector(vector)
                for (vector,) in self._conn.execute(
                    "SELECT vector FROM checkpoint_skyline "
                    "WHERE session_id=?",
                    (session_id,),
                )
            )
        return checkpoint

    # ------------------------------------------------------------------
    # job catalog (the coordinator's durable submission queue)
    # ------------------------------------------------------------------
    def create_job(
        self,
        fingerprint: str,
        *,
        tenant: str = "anonymous",
        algorithm: str = "",
        spec: Mapping[str, Any] | None = None,
        session_id: str | None = None,
        backends: int = 1,
        job_id: str | None = None,
    ) -> JobRecord:
        """File a new discovery job (status ``queued``).

        The job owns a pre-assigned crawl session id (created here, begun
        lazily by the runner via ``begin_session(session_id=...)``), so a
        coordinator restart resumes exactly this job's session.
        """
        now = time.time()
        job_id = job_id or uuid.uuid4().hex[:12]
        session_id = session_id or uuid.uuid4().hex[:12]
        with self._lock:
            self._conn.execute(
                "INSERT INTO jobs "
                "(job_id, fingerprint, tenant, algorithm, status, spec_json, "
                " session_id, backends, progress_json, created_at, updated_at) "
                "VALUES (?, ?, ?, ?, 'queued', ?, ?, ?, '{}', ?, ?)",
                (
                    job_id, fingerprint, tenant, algorithm,
                    json.dumps(dict(spec or {}), separators=(",", ":")),
                    session_id, int(backends), now, now,
                ),
            )
        return JobRecord(
            job_id=job_id,
            fingerprint=fingerprint,
            tenant=tenant,
            algorithm=algorithm,
            status="queued",
            spec=dict(spec or {}),
            session_id=session_id,
            backends=int(backends),
            progress={},
            created_at=now,
            updated_at=now,
        )

    def update_job(
        self,
        job_id: str,
        *,
        status: str | None = None,
        algorithm: str | None = None,
        progress: Mapping[str, Any] | None = None,
        result: Mapping[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        """Update a job's lifecycle state / progress snapshot / result."""
        if status is not None and status not in JOB_STATUSES:
            raise StoreError(
                f"unknown job status {status!r}; "
                f"pick one of {', '.join(JOB_STATUSES)}"
            )
        sets = ["updated_at=?"]
        params: list[Any] = [time.time()]
        if status is not None:
            sets.append("status=?")
            params.append(status)
        if algorithm is not None:
            sets.append("algorithm=?")
            params.append(algorithm)
        if progress is not None:
            sets.append("progress_json=?")
            params.append(json.dumps(dict(progress), separators=(",", ":")))
        if result is not None:
            sets.append("result_json=?")
            params.append(json.dumps(dict(result), separators=(",", ":")))
        if error is not None:
            sets.append("error=?")
            params.append(error)
        with self._lock:
            cursor = self._conn.execute(
                f"UPDATE jobs SET {', '.join(sets)} WHERE job_id=?",
                (*params, job_id),
            )
            if cursor.rowcount == 0:
                raise StoreError(f"no job {job_id!r} in the catalog")

    def job(self, job_id: str) -> JobRecord | None:
        """Full record of one job, or ``None``."""
        records = self._jobs("WHERE job_id=?", (job_id,))
        return records[0] if records else None

    def jobs(
        self, status: str | tuple[str, ...] | None = None
    ) -> tuple[JobRecord, ...]:
        """Catalogued jobs (optionally by status), newest first."""
        if status is None:
            return self._jobs("", ())
        statuses = (status,) if isinstance(status, str) else tuple(status)
        marks = ", ".join("?" for _ in statuses)
        return self._jobs(f"WHERE status IN ({marks})", statuses)

    def _jobs(self, where: str, params: tuple) -> tuple[JobRecord, ...]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, fingerprint, tenant, algorithm, status, "
                "       spec_json, session_id, backends, progress_json, "
                "       result_json, error, created_at, updated_at "
                f"FROM jobs {where} ORDER BY created_at DESC, rowid DESC",
                params,
            ).fetchall()
        return tuple(
            JobRecord(
                job_id=jid,
                fingerprint=fp,
                tenant=tenant,
                algorithm=algorithm,
                status=status,
                spec=json.loads(spec_json or "{}"),
                session_id=sid,
                backends=int(backends),
                progress=json.loads(progress_json or "{}"),
                result=json.loads(result_json) if result_json else None,
                error=error,
                created_at=created,
                updated_at=updated,
            )
            for jid, fp, tenant, algorithm, status, spec_json, sid, backends,
                progress_json, result_json, error, created, updated in rows
        )

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc(self, *, dry_run: bool = False) -> GcReport:
        """Prune stale state; returns what was (or would be) removed.

        Five sweeps: (1) endpoint registrations whose stored descriptor
        no longer hashes to their fingerprint (tampered or written by an
        incompatible version) are dropped; (2) *named* registrations
        superseded by a newer registration of the same name -- the served
        dataset or ``k`` changed -- are dropped; (3) ledger entries,
        sessions and catalogued jobs whose endpoint registration is gone
        (including ones orphaned by sweeps 1-2) are dropped; (4) ledger
        entries stamped with a **stale epoch** -- an older data version
        than their endpoint's current one -- are dropped (a delta crawl
        re-stamps the ones it revalidates, so only genuinely dead
        answers remain at old epochs); (5) **TTL-expired** entries are
        dropped.

        With ``dry_run=True`` nothing is deleted: the report carries the
        counts every sweep *would* remove (``repro store gc --dry-run``).
        """
        now = time.time()
        with self._lock:
            self._flush()
            rows = self._conn.execute(
                "SELECT fingerprint, name, descriptor, last_seen FROM endpoints"
            ).fetchall()
            prune: set[str] = {
                fp
                for fp, _name, descriptor, _seen in rows
                if _fingerprint_of(descriptor) != fp
            }
            newest_by_name: dict[str, tuple[float, str]] = {}
            for fp, name, _descriptor, seen in rows:
                if not name or fp in prune:
                    continue
                best = newest_by_name.get(name)
                if best is None or seen > best[0]:
                    newest_by_name[name] = (seen, fp)
            for fp, name, _descriptor, _seen in rows:
                if name and fp not in prune and newest_by_name[name][1] != fp:
                    prune.add(fp)
            kept = [fp for fp, _n, _d, _s in rows if fp not in prune]
            marks = ", ".join("?" for _ in kept)
            in_kept = f"({marks})" if kept else "(SELECT NULL WHERE 0)"
            orphan = f"fingerprint NOT IN {in_kept}"
            # Stale-epoch / expired sweeps apply only to surviving
            # endpoints (orphans are already counted by sweep 3) and are
            # mutually exclusive by construction: an entry at a stale
            # epoch counts stale whether or not its TTL also lapsed.
            stale = (
                f"fingerprint IN {in_kept} AND epoch != "
                "(SELECT data_version FROM endpoints e "
                " WHERE e.fingerprint = ledger.fingerprint)"
            )
            expired = (
                f"fingerprint IN {in_kept} AND epoch = "
                "(SELECT data_version FROM endpoints e "
                " WHERE e.fingerprint = ledger.fingerprint) "
                "AND expires_at IS NOT NULL AND expires_at <= ?"
            )
            if dry_run:
                def count(table: str, where: str, params: tuple) -> int:
                    return int(self._conn.execute(
                        f"SELECT COUNT(*) FROM {table} WHERE {where}", params
                    ).fetchone()[0])

                kept_params = tuple(kept)
                return GcReport(
                    endpoints_pruned=len(prune),
                    ledger_pruned=count("ledger", orphan, kept_params),
                    sessions_pruned=count("sessions", orphan, kept_params),
                    jobs_pruned=count("jobs", orphan, kept_params),
                    stale_pruned=count("ledger", stale, kept_params),
                    expired_pruned=count(
                        "ledger", expired, kept_params + (now,)
                    ),
                    dry_run=True,
                )
            for fp in prune:
                self._conn.execute(
                    "DELETE FROM endpoints WHERE fingerprint=?", (fp,)
                )
            ledger_pruned = self._conn.execute(
                "DELETE FROM ledger WHERE fingerprint NOT IN "
                "(SELECT fingerprint FROM endpoints)"
            ).rowcount
            sessions_pruned = self._conn.execute(
                "DELETE FROM sessions WHERE fingerprint NOT IN "
                "(SELECT fingerprint FROM endpoints)"
            ).rowcount
            self._conn.execute(
                "DELETE FROM checkpoint_skyline WHERE session_id NOT IN "
                "(SELECT session_id FROM sessions)"
            )
            jobs_pruned = self._conn.execute(
                "DELETE FROM jobs WHERE fingerprint NOT IN "
                "(SELECT fingerprint FROM endpoints)"
            ).rowcount
            stale_pruned = self._conn.execute(
                "DELETE FROM ledger WHERE epoch != "
                "(SELECT data_version FROM endpoints e "
                " WHERE e.fingerprint = ledger.fingerprint)"
            ).rowcount
            expired_pruned = self._conn.execute(
                "DELETE FROM ledger WHERE expires_at IS NOT NULL "
                "AND expires_at <= ?",
                (now,),
            ).rowcount
        return GcReport(
            endpoints_pruned=len(prune),
            ledger_pruned=int(ledger_pruned),
            sessions_pruned=int(sessions_pruned),
            jobs_pruned=int(jobs_pruned),
            stale_pruned=int(stale_pruned),
            expired_pruned=int(expired_pruned),
        )

    def __repr__(self) -> str:
        return (
            f"CrawlStore({self._path!r}: "
            f"{len(self.endpoints())} endpoints, "
            f"{self.ledger_size()} ledgered answers)"
        )


__all__ = [
    "JOB_STATUSES",
    "STORE_VERSION",
    "CrawlStore",
    "EndpointRecord",
    "GcReport",
    "JobRecord",
    "LedgerEntry",
    "QueryLedger",
    "SessionRecord",
    "StoreError",
    "StoreMismatchError",
    "endpoint_descriptor",
    "endpoint_fingerprint",
    "pack_answer",
    "unpack_answer",
]
