"""Store layout 3: packed ledger answers and the in-place migration.

A ledger answer is one packed integer array (``pack_answer``); a read
decodes it with one conversion and interns rows by their exact bytes.
Layout 1 and 2 files, whose answers are wire-codec JSON, are rebuilt in
place in the one transaction that opens the store.
"""

import json
import sqlite3
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrawlStore, Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen import diamonds_table
from repro.hiddendb import (
    Attribute,
    InterfaceKind,
    Interval,
    Query,
    QueryResult,
    Row,
    Schema,
)
from repro.service.wire import decode_answer
from repro.store import STORE_VERSION, crawlstore
from repro.store.crawlstore import pack_answer, unpack_answer

from .old_layouts import write_old_store

INT32 = (-(2 ** 31), 2 ** 31 - 1)
INT64 = (-(2 ** 63), 2 ** 63 - 1)

#: Numbers near every boundary the encoder chooses between.
edge_ints = st.sampled_from([
    0, 1, -1, INT32[0], INT32[1], INT32[0] - 1, INT32[1] + 1,
    INT64[0], INT64[1],
])
ints = st.one_of(
    st.integers(-1000, 1000), edge_ints, st.integers(*INT64)
)


@st.composite
def answers(draw):
    width = draw(st.integers(1, 8))
    rows = draw(st.lists(
        st.builds(Row, ints, st.tuples(*[ints] * width)), max_size=12,
    ))
    return tuple(rows), draw(st.booleans()), draw(ints)


def _schema(m: int = 2) -> Schema:
    return Schema([Attribute(f"a{i}", 10, InterfaceKind.RQ) for i in range(m)])


def _q(hi: int) -> Query:
    return Query({0: Interval(0, hi)})


def _answer(query: Query, *rows, overflow=False, sequence=1) -> QueryResult:
    return QueryResult(
        query=query,
        rows=tuple(Row(rid, values) for rid, values in rows),
        overflow=overflow,
        sequence=sequence,
    )


class TestCodec:
    @settings(max_examples=300, deadline=None)
    @given(answers())
    def test_round_trip_and_item_size(self, answer):
        rows, overflow, sequence = answer
        blob = pack_answer(rows, overflow, sequence)
        assert unpack_answer(blob) == (rows, overflow, sequence)
        words = [int(overflow), sequence, len(rows[0]) if rows else 0]
        for row in rows:
            words += [row.rid, *row.values]
        narrow = all(INT32[0] <= word <= INT32[1] for word in words)
        size = 4 if narrow else 8
        assert len(blob) == size * len(words)
        assert bool(blob[0] & 2) == (not narrow)

    @settings(max_examples=50, deadline=None)
    @given(answers())
    def test_round_trip_through_a_ledger_view(self, answer):
        rows, overflow, sequence = answer
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        ledger = store.ledger(fp)
        query = _q(3)
        ledger.put(query, QueryResult(query, rows, overflow, sequence))
        back = ledger.get(query)
        assert (back.rows, back.overflow, back.sequence) == answer
        assert back.query == query

    def test_empty_answer(self):
        blob = pack_answer((), True, 7)
        assert len(blob) == 12
        assert unpack_answer(blob) == ((), True, 7)

    @pytest.mark.parametrize("rows, sequence", [
        ((Row(2 ** 63, (1,)),), 1),
        ((Row(1, (-(2 ** 63) - 1,)),), 1),
        ((), 2 ** 63),
    ], ids=["rid", "value", "sequence"])
    def test_outside_int64_raises(self, rows, sequence):
        with pytest.raises(OverflowError):
            pack_answer(rows, False, sequence)

    def test_outside_int64_is_never_written(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        record = store.begin_session(fp, "rq")
        with pytest.raises(OverflowError):
            store.ledger(fp, record.session_id).put(
                _q(3), _answer(_q(3), (1, (2 ** 64, 0)))
            )
        assert store.ledger_size() == 0
        assert store.session(record.session_id).billed == 0

    def test_rows_of_one_answer_share_a_width(self):
        with pytest.raises(ValueError, match="width"):
            pack_answer((Row(1, (1, 2)), Row(2, (3,))), False, 1)

    def test_corrupt_array_is_refused(self):
        blob = pack_answer((Row(1, (1, 2)),), False, 1)
        with pytest.raises(crawlstore.StoreError, match="corrupt"):
            unpack_answer(blob[:-4])


class TestInterning:
    def test_rows_are_interned_by_bytes_not_rid(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        ledger = store.ledger(fp, epoch=0)
        ledger.put(_q(1), _answer(_q(1), (7, (1, 2)), (8, (0, 5))))
        # An update at the same epoch keeps rid 7 but changes its values.
        ledger.put(_q(2), _answer(_q(2), (7, (3, 4))))
        ledger.put(_q(3), _answer(_q(3), (8, (0, 5)), (7, (1, 2))))
        before, after, again = (ledger.get(_q(hi)) for hi in (1, 2, 3))
        assert before.rows == (Row(7, (1, 2)), Row(8, (0, 5)))
        assert after.rows == (Row(7, (3, 4)),)
        assert again.rows == (Row(8, (0, 5)), Row(7, (1, 2)))
        # Identical packed rows are one object; rid 7's two versions not.
        assert again.rows[1] is before.rows[0]
        assert again.rows[0] is before.rows[1]
        assert after.rows[0] is not before.rows[0]

    def test_views_do_not_share_rows(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        store.ledger(fp).put(_q(1), _answer(_q(1), (7, (1, 2))))
        first = store.ledger(fp).get(_q(1)).rows[0]
        second = store.ledger(fp).get(_q(1)).rows[0]
        assert first == second and first is not second

    def test_concurrent_readers_intern_each_row_once(self):
        store = CrawlStore.memory()
        fp = store.register_endpoint(_schema(), 5, "d")
        # Every answer returns the same 64 rows, rotated, so readers that
        # start together race to build the same rows.
        shared = [(rid, (rid % 9, rid // 9)) for rid in range(64)]
        queries = [_q(hi) for hi in range(16)]
        for hi, query in enumerate(queries):
            store.ledger(fp).put(
                query, _answer(query, *shared[hi:], *shared[:hi])
            )
        start_together = threading.Barrier(8)

        def read_all(ledger, start: int) -> list[Row]:
            order = queries[start:] + queries[:start]
            start_together.wait(timeout=30)
            return [row for query in order for row in ledger.get(query).rows]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _round in range(20):
                    ledger = store.ledger(fp)
                    futures = [
                        pool.submit(read_all, ledger, 2 * t) for t in range(8)
                    ]
                    rows = [
                        row for f in futures for row in f.result(timeout=30)
                    ]
                    assert len(rows) == 8 * 16 * 64
                    assert len({id(row) for row in rows}) == 64
        finally:
            sys.setswitchinterval(interval)

    def test_item_sizes_never_alias(self):
        # Row (5, 0, 7, 0) packed as int32 has the same 16 bytes as row
        # (5, 7) packed as int64; the two must decode to themselves.
        narrow = (Row(5, (0, 7, 0)),)
        wide = (Row(5, (7,)),)
        interned: dict = {}
        first = unpack_answer(pack_answer(narrow, False, 1), interned)
        second = unpack_answer(pack_answer(wide, False, 2 ** 40), interned)
        assert (first[0], second[0]) == (narrow, wide)


@pytest.fixture(scope="module")
def crawl():
    """A small finished crawl: its interface, result and ledgered answers."""
    iface = TopKInterface(diamonds_table(600, 3), k=5, name="diamonds-600")
    store = CrawlStore.memory()
    result = Discoverer(DiscoveryConfig(store=store)).run(iface, "baseline")
    (endpoint,) = store.endpoints()
    entries = store.ledger_entries(endpoint.fingerprint)
    assert len(entries) == result.total_cost > 50
    return iface, result, entries


def _write_old(path, version, iface, entries):
    return write_old_store(
        path, version, iface.schema, iface.k,
        [(entry.query, entry.result) for entry in entries],
        name=iface.name, ranking=iface.ranking_label, algorithm="baseline",
    )


def _decoded(entries):
    return [
        (e.qkey, e.query, e.result.rows, e.result.overflow,
         e.result.sequence, e.epoch)
        for e in entries
    ]


class TestMigrationFromOldFiles:
    @pytest.mark.parametrize("version", [1, 2])
    def test_old_file_migrates_and_reruns_warm(self, tmp_path, crawl, version):
        iface, result, entries = crawl
        path = tmp_path / f"v{version}.db"
        fp = _write_old(path, version, iface, entries)
        with CrawlStore(path) as store:
            assert store.schema_version() == STORE_VERSION == 5
            assert store._conn.execute(
                "SELECT value FROM store_meta WHERE key='migrated_from'"
            ).fetchone() == (str(version),)
            assert store._conn.execute(
                "PRAGMA integrity_check"
            ).fetchone() == ("ok",)
            assert _decoded(store.ledger_entries(fp)) == _decoded(entries)
            assert "expires_at" not in {
                row[1] for row in store._conn.execute(
                    "PRAGMA table_info(ledger)"
                )
            }
            assert store.session("old").billed == len(entries)
            iface.reset()
            warm = Discoverer(DiscoveryConfig(store=store)).run(
                iface, "baseline"
            )
        assert warm.total_cost == 0 and iface.queries_issued == 0
        assert warm.stats.ledger_hits == len(entries)
        assert warm.skyline == result.skyline
        with CrawlStore(path) as reopened:
            assert reopened.schema_version() == 5
            assert reopened.ledger_size(fp) == len(entries)

    @pytest.mark.parametrize("version", [1, 2])
    def test_failed_migration_leaves_the_old_file(
        self, tmp_path, crawl, monkeypatch, version
    ):
        iface, _result, entries = crawl
        path = tmp_path / f"v{version}.db"
        fp = _write_old(path, version, iface, entries)
        packed = []

        def pack_then_fail(*answer):
            if len(packed) == 10:
                raise RuntimeError("disk on fire")
            packed.append(pack_answer(*answer))
            return packed[-1]

        monkeypatch.setattr(crawlstore, "pack_answer", pack_then_fail)
        with pytest.raises(RuntimeError, match="disk on fire"):
            CrawlStore(path)
        assert len(packed) == 10
        _assert_old_layout_intact(path, version, entries)
        monkeypatch.undo()
        with CrawlStore(path) as store:
            assert store.schema_version() == 5
            assert _decoded(store.ledger_entries(fp)) == _decoded(entries)

    @pytest.mark.parametrize("version", [1, 2])
    def test_failed_last_step_leaves_the_old_file(
        self, tmp_path, crawl, monkeypatch, version
    ):
        # Every earlier step has run when the last one fails: the opening
        # transaction rolls them all back.
        iface, _result, entries = crawl
        path = tmp_path / f"v{version}.db"
        fp = _write_old(path, version, iface, entries)
        last = crawlstore._MIGRATIONS[STORE_VERSION - 1]

        def run_then_fail(conn):
            last(conn)
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(
            crawlstore._MIGRATIONS, STORE_VERSION - 1, run_then_fail
        )
        with pytest.raises(RuntimeError, match="disk on fire"):
            CrawlStore(path)
        _assert_old_layout_intact(path, version, entries)
        monkeypatch.undo()
        with CrawlStore(path) as store:
            assert store.schema_version() == 5
            assert _decoded(store.ledger_entries(fp)) == _decoded(entries)


def _assert_old_layout_intact(path, version, entries) -> None:
    """The file at ``path`` is still the layout-``version`` file that holds
    ``entries``, readable with that layout's JSON codec."""
    conn = sqlite3.connect(path)
    try:
        assert conn.execute("PRAGMA user_version").fetchone() == (version,)
        tables = {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'"
        )}
        assert "ledger_v2" not in tables
        assert "checkpoint_skyline" not in tables
        assert ("store_meta" in tables) == (version == 2)
        columns = {row[1] for row in conn.execute(
            "PRAGMA table_info(ledger)"
        )}
        assert "answer_json" in columns and "answer" not in columns
        assert ("epoch" in columns) == (version == 2)
        stored = dict(conn.execute(
            "SELECT qkey, answer_json FROM ledger"
        ).fetchall())
    finally:
        conn.close()
    assert {
        qkey: decode_answer(json.loads(answer))
        for qkey, answer in stored.items()
    } == {
        e.qkey: (e.result.rows, e.result.overflow, e.result.sequence)
        for e in entries
    }
