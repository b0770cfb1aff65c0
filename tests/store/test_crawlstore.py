"""Unit tests for the durable crawl store (repro.store.crawlstore)."""

import dataclasses
import sqlite3

import numpy as np
import pytest

from repro.hiddendb import (
    Attribute,
    InterfaceKind,
    Interval,
    Query,
    QueryResult,
    Row,
    Schema,
    query_fingerprint,
)
from repro.store import (
    CrawlStore,
    StoreMismatchError,
    endpoint_fingerprint,
)


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


class TestCanonicalKey:
    """Satellite: one canonical query-key scheme for every layer."""

    def test_identical_queries_share_a_key(self):
        a = Query({0: Interval(1, 5), 2: Interval(3, 3)}, {"make": 2})
        b = Query({2: Interval(3, 3), 0: Interval(1, 5)}, {"make": 2})
        assert a.canonical_key() == b.canonical_key()
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_numpy_and_float_normalisation(self):
        # The historical failure mode: three layers each stringifying
        # values their own way, disagreeing on np.int64 vs int vs 3.0.
        plain = Query({0: Interval(1, 5)}, {"make": 2})
        numpy_built = Query(
            {int(np.int64(0)): Interval(np.int64(1), np.int64(5))},
            {"make": np.int64(2)},
        )
        floaty = Query({0: Interval(1.0, 5.0)}, {"make": 2.0})
        assert plain.canonical_key() == numpy_built.canonical_key()
        assert plain.canonical_key() == floaty.canonical_key()

    def test_different_queries_differ(self):
        assert (
            Query({0: Interval(0, 4)}).canonical_key()
            != Query({0: Interval(0, 5)}).canonical_key()
        )
        assert (
            Query({0: Interval(1, 1)}).canonical_key()
            != Query({1: Interval(1, 1)}).canonical_key()
        )

    def test_select_all_key(self):
        assert Query.select_all().canonical_key() == "*"


class TestEndpointRegistration:
    def test_fingerprint_pins_schema_k_and_name(self):
        schema = _schema()
        base = endpoint_fingerprint(schema, 5, "d")
        assert endpoint_fingerprint(schema, 5, "d") == base
        assert endpoint_fingerprint(schema, 6, "d") != base
        assert endpoint_fingerprint(schema, 5, "other") != base
        assert endpoint_fingerprint(_schema(3), 5, "d") != base

    def test_reregistration_is_idempotent(self):
        store = CrawlStore.memory()
        fp1 = store.register_endpoint(_schema(), 5, "d")
        fp2 = store.register_endpoint(_schema(), 5, "d")
        assert fp1 == fp2
        assert len(store.endpoints()) == 1

    def test_second_endpoint_refused_without_allow_new(self):
        # Satellite: --store refuses a ledger built against a different
        # dataset/k with a clear error.
        store = CrawlStore.memory()
        store.register_endpoint(_schema(), 5, "diamonds-n500")
        with pytest.raises(StoreMismatchError) as err:
            store.register_endpoint(_schema(), 9, "diamonds-n500")
        assert "diamonds-n500" in str(err.value)
        assert "does not match" in str(err.value)
        with pytest.raises(StoreMismatchError):
            store.register_endpoint(_schema(3), 5, "autos")

    def test_allow_new_permits_multi_endpoint_stores(self):
        store = CrawlStore.memory()
        fp1 = store.register_endpoint(_schema(), 5, "a")
        fp2 = store.register_endpoint(_schema(3), 5, "b", allow_new=True)
        assert fp1 != fp2
        assert len(store.endpoints()) == 2


class TestLedger:
    def test_round_trip(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        ledger = store.ledger(fp)
        query = Query({0: Interval(0, 3)})
        answer = _answer(query, (7, (1, 2)), (9, (0, 4)))
        assert ledger.get(query) is None
        ledger.put(query, answer)
        back = ledger.get(query)
        assert back is not None
        assert back.rows == answer.rows
        assert back.overflow == answer.overflow
        assert back.sequence == answer.sequence
        assert back.query == query
        assert len(ledger) == 1

    def test_lookup_is_by_canonical_key(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        ledger = store.ledger(fp)
        ledger.put(Query({0: Interval(0, 3)}), _answer(Query({0: Interval(0, 3)})))
        # A differently-built but canonically identical query hits.
        twin = Query({np.int64(0): Interval(np.int64(0), np.int64(3))})
        assert ledger.get(twin) is not None

    def test_put_is_idempotent_per_key(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        ledger = store.ledger(fp)
        query = Query({0: Interval(0, 3)})
        ledger.put(query, _answer(query, (1, (1, 1))))
        ledger.put(query, _answer(query, (2, (2, 2))))
        assert len(ledger) == 1

    def test_endpoints_do_not_share_entries(self):
        store = CrawlStore.memory()
        fp1 = store.register_endpoint(_schema(), 5, "a")
        fp2 = store.register_endpoint(_schema(), 9, "a", allow_new=True)
        query = Query.select_all()
        store.ledger(fp1).put(query, _answer(query, (1, (1, 1))))
        assert store.ledger(fp2).get(query) is None

    def test_incompatible_store_version_refused(self, tmp_path):
        import sqlite3

        from repro.store import StoreError

        path = tmp_path / "future.db"
        CrawlStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version=99")
        conn.close()
        with pytest.raises(StoreError, match="layout version 99"):
            CrawlStore(path)

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "crawl.db"
        query = Query({0: Interval(2, 4)})
        with CrawlStore(path) as store:
            fp = store.register_endpoint(_schema(), 5, "d")
            store.ledger(fp).put(query, _answer(query, (3, (2, 3))))
        with CrawlStore(path) as store:
            assert store.ledger_size() == 1
            fp = store.register_endpoint(_schema(), 5, "d")
            back = store.ledger(fp).get(query)
            assert back is not None and back.rows[0].values == (2, 3)

    def test_session_bound_puts_count_billing_exactly(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        record = store.begin_session(fp, "rq")
        ledger = store.ledger(fp, record.session_id)
        for hi in range(4):
            query = Query({0: Interval(0, hi)})
            ledger.put(query, _answer(query))
        assert store.session(record.session_id).billed == 4

    def test_buffered_puts_from_many_threads_commit_with_their_counts(
        self, tmp_path
    ):
        """Sessions putting from more threads than cores, with the switch
        interval shortened: every answer is readable at once, and once
        flushed each session's billed counter equals its puts."""
        import sys
        import threading

        from repro.store.crawlstore import MAX_BUFFERED

        store = CrawlStore(tmp_path / "crawl.db")
        fp = store.register_endpoint(_schema(m=2, domain=1000), 5, "d")
        threads, puts = 8, 3 * MAX_BUFFERED + 5
        sessions = [store.begin_session(fp, "rq") for _ in range(threads)]
        misses: list[str] = []

        def crawl(worker: int) -> None:
            ledger = store.ledger(fp, sessions[worker].session_id)
            for hi in range(puts):
                query = Query({0: Interval(worker, worker), 1: Interval(0, hi)})
                ledger.put(query, _answer(query, (hi, (worker, hi))))
                if ledger.get(query) is None:
                    misses.append(query.canonical_key())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=crawl, args=(worker,))
                for worker in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        assert misses == []
        assert store.ledger_size() == threads * puts
        assert [store.session(s.session_id).billed for s in sessions] == (
            [puts] * threads
        )
        store.close()


class TestSessions:
    def test_begin_checkpoint_finish(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        record = store.begin_session(fp, "rq")
        assert record.status == "running" and not record.resumed
        store.save_checkpoint(record.session_id, {"billed": 12, "skyline_size": 3})
        store.finish_session(record.session_id, {"total_cost": 20})
        final = store.session(record.session_id)
        assert final.status == "finished"
        assert final.checkpoint["billed"] == 12
        assert final.result == {"total_cost": 20}
        assert store.catalog()[0].session_id == record.session_id

    def test_resume_picks_up_latest_running_session(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        crashed = store.begin_session(fp, "rq")
        store.save_checkpoint(crashed.session_id, {"billed": 7})
        resumed = store.begin_session(fp, "rq", resume=True)
        assert resumed.resumed
        assert resumed.session_id == crashed.session_id
        assert resumed.nonce == crashed.nonce
        assert resumed.checkpoint == {"billed": 7}

    def test_resume_matches_algorithm_and_skips_finished(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        done = store.begin_session(fp, "rq")
        store.finish_session(done.session_id, {})
        other_algo = store.begin_session(fp, "sq")
        fresh = store.begin_session(fp, "rq", resume=True)
        assert not fresh.resumed
        assert fresh.session_id not in (done.session_id, other_algo.session_id)


class TestGc:
    def test_gc_keeps_a_healthy_store_intact(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        query = Query.select_all()
        store.ledger(fp).put(query, _answer(query))
        report = store.gc()
        assert report.total == 0
        assert store.ledger_size() == 1

    def test_gc_prunes_superseded_named_endpoints(self):
        # The served dataset behind a name changed (new k): the old
        # registration's schema hash no longer matches what the name
        # serves, so its ledger must go.
        store = CrawlStore.memory()
        old = store.register_endpoint(_schema(), 5, "diamonds")
        query = Query.select_all()
        store.ledger(old).put(query, _answer(query))
        store.begin_session(old, "rq")
        new = store.register_endpoint(_schema(), 9, "diamonds", allow_new=True)
        report = store.gc()
        assert report.endpoints_pruned == 1
        assert report.ledger_pruned == 1
        assert report.sessions_pruned == 1
        remaining = store.endpoints()
        assert [e.fingerprint for e in remaining] == [new]
        assert store.ledger_size() == 0

    def test_gc_prunes_tampered_registrations(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        query = Query.select_all()
        store.ledger(fp).put(query, _answer(query))
        # Corrupt the stored descriptor so it no longer hashes to fp.
        store._conn.execute(
            "UPDATE endpoints SET descriptor='{\"k\":99}' WHERE fingerprint=?",
            (fp,),
        )
        report = store.gc()
        assert report.endpoints_pruned == 1
        assert report.ledger_pruned == 1
        assert store.ledger_size() == 0

    def test_gc_prunes_orphaned_ledger_rows(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        query = Query.select_all()
        store.ledger("deadbeef").put(query, _answer(query))
        report = store.gc()
        assert report.ledger_pruned == 1
        assert store.ledger_size(fp) == 0

    def test_dry_run_reports_exactly_what_gc_prunes(self):
        store = CrawlStore.memory()
        _seed_one_of_each_prunable(store)
        before = _rows_of_every_table(store)
        dry = store.gc(dry_run=True)
        assert _rows_of_every_table(store) == before
        real = store.gc()
        assert dry.dry_run and not real.dry_run
        assert dataclasses.replace(dry, dry_run=False) == real
        assert (
            real.endpoints_pruned, real.ledger_pruned, real.sessions_pruned,
            real.jobs_pruned, real.stale_pruned,
        ) == (2, 1, 1, 1, 1)
        after = _rows_of_every_table(store)
        assert after["checkpoint_skyline"] == []
        assert [row[1] for row in after["ledger"]] == [
            _upper(3).canonical_key()
        ]
        assert store.gc().total == 0

    def test_a_failed_sweep_rolls_every_sweep_back(self, monkeypatch):
        # The sweeps share one transaction: when the last one fails, what
        # the earlier ones deleted is all still there.
        store = CrawlStore.memory()
        _seed_one_of_each_prunable(store)
        before = _rows_of_every_table(store)

        def fail():
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(
            store, "_conn", _HookedConnection(store._conn, _STALE_SWEEP, fail)
        )
        with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
            store.gc()
        monkeypatch.undo()
        assert _rows_of_every_table(store) == before
        assert store.gc().total == 6

    def test_a_dry_run_holds_the_write_lock_while_it_sweeps(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "crawl.db"
        store = CrawlStore(path)
        _seed_one_of_each_prunable(store)
        other = sqlite3.connect(path, timeout=0, isolation_level=None)
        refused = []

        def write_from_another_connection():
            try:
                other.execute("UPDATE endpoints SET last_seen=last_seen")
            except sqlite3.OperationalError as exc:
                refused.append(str(exc))

        monkeypatch.setattr(
            store, "_conn",
            _HookedConnection(
                store._conn, _STALE_SWEEP, write_from_another_connection
            ),
        )
        try:
            report = store.gc(dry_run=True)
            assert refused == ["database is locked"]
            # The rollback released the lock.
            other.execute("UPDATE endpoints SET last_seen=last_seen")
        finally:
            monkeypatch.undo()
            other.close()
            store.close()
        assert report.dry_run and report.total == 6


#: A fragment of gc's last sweep, the stale-epoch ``DELETE``.
_STALE_SWEEP = "DELETE FROM ledger WHERE epoch !="


class _HookedConnection:
    """A store connection that calls ``hook`` before running any statement
    containing ``marker``; everything else goes to ``conn``."""

    def __init__(self, conn, marker: str, hook) -> None:
        self._conn = conn
        self._marker = marker
        self._hook = hook

    def execute(self, sql: str, *args):
        if self._marker in sql:
            self._hook()
        return self._conn.execute(sql, *args)

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


def _upper(hi: int) -> Query:
    return Query({0: Interval(0, hi)})


def _seed_one_of_each_prunable(store: CrawlStore) -> None:
    """Give ``store`` one of each thing gc prunes, beside live state: six
    prunable rows in all."""
    # A name superseded by a newer registration of it (another k).
    old = store.register_endpoint(_schema(), 5, "d")
    store._conn.execute(
        "UPDATE endpoints SET last_seen=0 WHERE fingerprint=?", (old,)
    )
    live = store.register_endpoint(_schema(), 9, "d", allow_new=True)
    # A descriptor that no longer hashes to its fingerprint.
    tampered = store.register_endpoint(_schema(3), 5, "t", allow_new=True)
    store._conn.execute(
        "UPDATE endpoints SET descriptor='{\"k\":99}' "
        "WHERE fingerprint=?",
        (tampered,),
    )
    # Orphaned ledger, session (with a checkpoint vector) and job rows.
    store.ledger("deadbeef").put(_upper(1), _answer(_upper(1)))
    orphan = store.begin_session("deadbeef", "rq")
    store.save_checkpoint(
        orphan.session_id, {"billed": 0, "skyline": [(1, 2)]}
    )
    store.create_job("deadbeef", algorithm="rq")
    # A stale-epoch entry beside a current one.
    store.ledger(live, epoch=0).put(_upper(2), _answer(_upper(2)))
    store.set_endpoint_data_version(live, 1)
    store.ledger(live, epoch=1).put(_upper(3), _answer(_upper(3)))


def _rows_of_every_table(store: CrawlStore) -> dict[str, list]:
    """Every row of every table of ``store``, in a comparable order."""
    tables = [name for (name,) in store._conn.execute(
        "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name"
    )]
    return {
        name: sorted(
            store._conn.execute(f"SELECT * FROM {name}").fetchall(), key=repr
        )
        for name in tables
    }
