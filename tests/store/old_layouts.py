"""Store files as the layout-1 and layout-2 builds wrote them.

The DDL is copied verbatim from the builds that wrote each layout, and
answers are wire-codec JSON exactly as those builds' ``ledger_put``
encoded them.  The migration tests open these files with the current
build; a fixture made by downgrading a current store would hold packed
answers instead.
"""

from __future__ import annotations

import json
import sqlite3
import time
from typing import Iterable

from repro.hiddendb import Query, QueryResult, Schema
from repro.service.wire import (
    encode_answer,
    encode_query,
    endpoint_descriptor,
    fingerprint_of,
)

V1_DDL = """
CREATE TABLE IF NOT EXISTS endpoints (
    fingerprint  TEXT PRIMARY KEY,
    name         TEXT NOT NULL DEFAULT '',
    k            INTEGER NOT NULL,
    descriptor   TEXT NOT NULL,
    created_at   REAL NOT NULL,
    last_seen    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS ledger (
    fingerprint  TEXT NOT NULL,
    qkey         TEXT NOT NULL,
    query_json   TEXT NOT NULL,
    answer_json  TEXT NOT NULL,
    billed_at    REAL NOT NULL,
    PRIMARY KEY (fingerprint, qkey)
);
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

V2_DDL = """
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
);
CREATE TABLE IF NOT EXISTS ledger (
    fingerprint  TEXT NOT NULL,
    qkey         TEXT NOT NULL,
    query_json   TEXT NOT NULL,
    answer_json  TEXT NOT NULL,
    billed_at    REAL NOT NULL,
    epoch        INTEGER NOT NULL DEFAULT 0,
    expires_at   REAL,
    PRIMARY KEY (fingerprint, qkey)
);
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


def write_old_store(
    path,
    version: int,
    schema: Schema,
    k: int,
    answers: Iterable[tuple[Query, QueryResult]],
    *,
    name: str = "",
    ranking: str = "",
    algorithm: str = "",
) -> str:
    """Write a layout-``version`` store holding ``answers``.

    The answers are billed to one finished session, one ledger write and
    one ``billed`` bump each, as the old ``ledger_put`` did.  Returns the
    endpoint fingerprint.
    """
    if version not in (1, 2):
        raise ValueError(f"no old layout {version}")
    descriptor = endpoint_descriptor(schema, k, name, ranking)
    fingerprint = fingerprint_of(descriptor)
    now = time.time()
    conn = sqlite3.connect(path)
    conn.executescript(V1_DDL if version == 1 else V2_DDL)
    conn.execute(f"PRAGMA user_version={version}")
    if version == 2:
        conn.execute(
            "INSERT OR REPLACE INTO store_meta (key, value) VALUES "
            "('schema_version', '2')"
        )
    conn.execute(
        "INSERT INTO endpoints (fingerprint, name, k, descriptor, "
        "created_at, last_seen) VALUES (?, ?, ?, ?, ?, ?)",
        (fingerprint, name, int(k), descriptor, now, now),
    )
    conn.execute(
        "INSERT INTO sessions (session_id, fingerprint, algorithm, status, "
        "nonce, billed, checkpoint_json, created_at, updated_at) "
        "VALUES ('old', ?, ?, 'finished', 'nonce', 0, '{}', ?, ?)",
        (fingerprint, algorithm, now, now),
    )
    for query, result in answers:
        conn.execute(
            "INSERT OR REPLACE INTO ledger "
            "(fingerprint, qkey, query_json, answer_json, billed_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                fingerprint,
                query.canonical_key(),
                json.dumps(encode_query(query), separators=(",", ":")),
                json.dumps(
                    encode_answer(
                        result.rows, result.overflow, result.sequence
                    ),
                    separators=(",", ":"),
                ),
                now,
            ),
        )
        conn.execute(
            "UPDATE sessions SET billed=billed+1 WHERE session_id='old'"
        )
    conn.commit()
    conn.close()
    return fingerprint
