"""Versioned-ledger semantics of the durable crawl store.

The freshness plane stamps every ledger entry with the endpoint data
version (epoch) it was billed at.  These tests pin
the store-level contract: epoch-pinned reads miss on stale entries,
revalidation re-stamps without re-billing, the stale accounting that
``repro store show`` surfaces, the gc sweeps (and their ``--dry-run``),
and the in-place migration of a version-1 store file.
"""

import sqlite3

import pytest

from repro.hiddendb import (
    Attribute,
    InterfaceKind,
    Interval,
    Query,
    QueryResult,
    Row,
    Schema,
)
from repro.store import CrawlStore, StoreError

from .old_layouts import write_old_store


def _schema(m: int = 2, domain: int = 10) -> Schema:
    return Schema(
        [Attribute(f"a{i}", domain, InterfaceKind.RQ) for i in range(m)]
    )


def _answer(query: Query, *rows) -> QueryResult:
    return QueryResult(
        query=query,
        rows=tuple(Row(rid, values) for rid, values in rows),
        overflow=len(rows) >= 2,
        sequence=1,
    )


def _q(hi: int) -> Query:
    return Query({0: Interval(0, hi)})


class TestEpochStamps:
    def test_epoch_pinned_get_misses_on_stale_entries(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        store.ledger(fp, epoch=0).put(_q(3), _answer(_q(3), (1, (1, 1))))
        # Unpinned read still serves it; pinned to the new epoch it is
        # a miss, never a wrong answer.
        assert store.ledger_get(fp, _q(3)) is not None
        assert store.ledger_get(fp, _q(3), epoch=0) is not None
        assert store.ledger_get(fp, _q(3), epoch=1) is None

    def test_view_defaults_to_registered_data_version(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d", data_version=2)
        assert store.endpoint_data_version(fp) == 2
        view = store.ledger(fp)
        view.put(_q(3), _answer(_q(3), (1, (1, 1))))
        assert [e.epoch for e in store.ledger_entries(fp)] == [2]
        assert view.get(_q(3)) is not None
        # A later view at epoch 3 must not see the epoch-2 answer.
        assert store.ledger(fp, epoch=3).get(_q(3)) is None

    def test_data_version_is_monotonic(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d", data_version=4)
        store.set_endpoint_data_version(fp, 6)
        assert store.endpoint_data_version(fp) == 6
        store.set_endpoint_data_version(fp, 2)  # regressions ignored
        assert store.endpoint_data_version(fp) == 6
        assert store.endpoint_data_version("deadbeef") == 0

    def test_histogram_and_stale_count(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        for hi in range(3):
            store.ledger(fp, epoch=0).put(_q(hi), _answer(_q(hi)))
        store.ledger(fp, epoch=2).put(_q(5), _answer(_q(5)))
        assert store.ledger_epoch_histogram(fp) == {0: 3, 2: 1}
        store.set_endpoint_data_version(fp, 2)
        assert store.ledger_stale_count(fp) == 3
        assert store.ledger_stale_count(fp, epoch=0) == 1

    def test_bump_epoch_restamps_without_rebilling(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        record = store.begin_session(fp, "rq")
        ledger = store.ledger(fp, record.session_id, epoch=0)
        for hi in range(3):
            ledger.put(_q(hi), _answer(_q(hi)))
        store.set_endpoint_data_version(fp, 1)
        promoted = store.ledger_bump_epoch(
            fp, [_q(0).canonical_key(), _q(2).canonical_key()], 1
        )
        assert promoted == 2
        assert store.ledger_epoch_histogram(fp) == {0: 1, 1: 2}
        assert store.ledger_stale_count(fp) == 1
        # Re-stamping is not billing: the session paid for 3 queries.
        assert store.session(record.session_id).billed == 3
        assert store.ledger_bump_epoch(fp, [], 1) == 0

    def test_ledger_entries_filter_by_epoch(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        store.ledger(fp, epoch=0).put(_q(1), _answer(_q(1)))
        store.ledger(fp, epoch=1).put(_q(2), _answer(_q(2)))
        assert len(store.ledger_entries(fp)) == 2
        only = store.ledger_entries(fp, epoch=1)
        assert [e.qkey for e in only] == [_q(2).canonical_key()]


class TestGcFreshnessSweeps:
    def seeded(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        store.ledger(fp, epoch=0).put(_q(1), _answer(_q(1)))
        store.ledger(fp, epoch=1).put(_q(2), _answer(_q(2)))
        store.ledger(fp, epoch=1).put(_q(3), _answer(_q(3)))
        store.set_endpoint_data_version(fp, 1)
        return store, fp

    def test_gc_prunes_stale_epochs(self):
        store, fp = self.seeded()
        report = store.gc()
        assert report.stale_pruned == 1
        assert report.ledger_pruned == 0  # no orphans involved
        assert report.total == 1
        assert not report.dry_run
        assert store.ledger_size(fp) == 2
        assert store.ledger_stale_count(fp) == 0

    def test_dry_run_reports_without_deleting(self):
        store, fp = self.seeded()
        report = store.gc(dry_run=True)
        assert report.dry_run
        assert report.stale_pruned == 1
        assert store.ledger_size(fp) == 3
        # The real sweep afterwards removes exactly what was predicted.
        assert store.gc().total == report.total

    def test_current_epoch_entries_survive(self):
        store, fp = self.seeded()
        store.gc()
        kept = store.ledger_entries(fp)
        assert [e.qkey for e in kept] == [
            _q(2).canonical_key(), _q(3).canonical_key(),
        ]
        assert {e.epoch for e in kept} == {1}


class TestMigration:
    def v1_file(self, tmp_path):
        """A populated version-1 store file, as an old build wrote it."""
        path = tmp_path / "old.db"
        fp = write_old_store(
            path, 1, _schema(), 5, [(_q(3), _answer(_q(3), (1, (1, 1))))],
            name="d",
        )
        return path, fp

    def test_v1_store_migrates_in_place(self, tmp_path):
        path, fp = self.v1_file(tmp_path)
        with CrawlStore(path) as store:
            assert store.schema_version() == 5
            row = store._conn.execute(
                "SELECT value FROM store_meta WHERE key='migrated_from'"
            ).fetchone()
            assert row == ("1",)
            # Old entries surface at epoch 0: servable, and counted stale
            # as soon as the endpoint reports a version.
            entry = store.ledger_entries(fp)[0]
            assert entry.epoch == 0
            assert store.ledger_get(fp, _q(3)).rows[0].values == (1, 1)
            assert store.endpoint_data_version(fp) == 0

    def test_migrated_store_reopens_quietly(self, tmp_path):
        path, fp = self.v1_file(tmp_path)
        CrawlStore(path).close()
        with CrawlStore(path) as store:
            assert store.schema_version() == 5
            assert store.ledger_size(fp) == 1

    def test_future_version_still_refused(self, tmp_path):
        path = tmp_path / "future.db"
        CrawlStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version=99")
        conn.close()
        with pytest.raises(StoreError, match="layout version 99"):
            CrawlStore(path)
