"""Store layout 4: checkpoint skylines as vector rows, written as deltas.

A session's first checkpoint stores its whole skyline; every later one
sends the counters and only the vectors that entered or left the skyline
since the previous checkpoint.  Readers still get the whole checkpoint:
``billed``, ``retrieved``, ``answers``, ``skyline_size`` and the sorted
distinct ``skyline``, in that order.  Layout 3 files, whose checkpoints
hold the skyline as JSON on the session row, migrate in place.
"""

import json
import sqlite3
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CrawlStore, Discoverer, DiscoveryConfig, TopKInterface
from repro.core import base
from repro.core.base import DiscoverySession
from repro.core.dominance import incremental_skyline_update, skyline_of_rows
from repro.datagen import diamonds_table
from repro.hiddendb import Query, QueryResult, Row
from repro.store import STORE_VERSION, crawlstore

from ..conftest import make_table
from .old_layouts import write_v3_store

KEYS = ["billed", "retrieved", "answers", "skyline_size", "skyline"]


class RecordingStore(CrawlStore):
    """An in-memory store that logs the changes each checkpoint sends."""

    def __init__(self) -> None:
        super().__init__(":memory:")
        self.sent: list[dict] = []

    def save_checkpoint(self, session_id, checkpoint, **changes):
        self.sent.append({
            key: {tuple(vector) for vector in vectors}
            for key, vectors in changes.items()
        })
        super().save_checkpoint(session_id, checkpoint, **changes)


@st.composite
def streams(draw):
    """A table over a tiny domain and a stream of answers drawn from it:
    ties, repeats and vectors that a later row dominates are common."""
    width = draw(st.integers(2, 3))
    values = draw(st.lists(
        st.tuples(*[st.integers(0, 3)] * width), min_size=1, max_size=24,
    ))
    rows = [Row(rid, vector) for rid, vector in enumerate(values)]
    answers = draw(st.lists(
        st.lists(st.sampled_from(rows), max_size=4).map(tuple),
        min_size=1, max_size=40,
    ))
    return make_table(values, domain=4), answers


def _session(table, session_class=DiscoverySession):
    return session_class(TopKInterface(table, k=4, name="stream"))


def _record(session, sequence, rows):
    session.record(QueryResult(Query.select_all(), rows, False, sequence))


def _expected(session) -> list[list[int]]:
    """Sorted distinct vectors of the skyline of every first-seen row."""
    skyline = skyline_of_rows(session.retrieved_rows)
    return [list(vector) for vector in sorted({r.values for r in skyline})]


def churning_stream(seed: int):
    """200 answers of 1-4 rows each, drawn in random order from 120 rows
    of 3 values in 0..7.  The third value falls as the first two rise (10
    minus their sum, give or take 2), so about 20 vectors share the
    skyline, several rows tie on each, and vectors keep entering and
    leaving it."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 8, (120, 2))
    third = np.clip(10 - pairs.sum(axis=1) + rng.integers(-2, 3, 120), 0, 7)
    values = [tuple(map(int, row)) for row in np.column_stack([pairs, third])]
    rows = [Row(rid, vector) for rid, vector in enumerate(values)]
    stream = [
        tuple(rows[i] for i in rng.integers(0, 120, rng.integers(1, 5)))
        for _ in range(200)
    ]
    return make_table(values, domain=8), stream


def _check_every_checkpoint(table, answers, every, fold_rows):
    """After every checkpoint the store holds the skyline of every
    first-seen row, and each checkpoint after the first sent only the
    vectors that changed."""
    store = RecordingStore()
    session = _session(table)
    session.attach_store(store, algorithm="stream", checkpoint_every=every)
    session_id = session.store_session.session_id
    stored: set[tuple[int, ...]] = set()
    with patch.object(base, "FOLD_ROWS", fold_rows):
        for sequence, rows in enumerate(answers, start=1):
            checkpoints = len(store.sent)
            _record(session, sequence, rows)
            if len(store.sent) == checkpoints:
                continue
            checkpoint = store.session(session_id).checkpoint
            expected = _expected(session)
            assert list(checkpoint) == KEYS
            # The session keeps no answer log; the counter needs none.
            assert checkpoint["answers"] == sequence
            assert checkpoint["skyline"] == expected
            assert checkpoint["skyline_size"] == len(expected)
            now = {tuple(vector) for vector in expected}
            sent = store.sent[-1]
            if checkpoints == 0:
                assert sent == {}  # the first one stores the whole set
            else:
                # Every entered vector is new, and the left vectors cover
                # exactly the stored ones that went.
                assert sent["entered"] == now - stored
                assert sent["left"] & stored == stored - now
            stored = now
    assert session.log == ()


@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    stream=streams(),
    every=st.integers(1, 8),
    fold_rows=st.integers(1, 16),
)
def test_every_checkpoint_is_the_skyline_of_every_first_seen_row(
    stream, every, fold_rows
):
    table, answers = stream
    _check_every_checkpoint(table, answers, every, fold_rows)


@pytest.mark.parametrize("every,fold_rows", [(1, 1), (3, 2), (8, 5), (5, 16)])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_checkpoint_of_a_long_churning_stream(seed, every, fold_rows):
    _check_every_checkpoint(*churning_stream(seed), every, fold_rows)


def test_a_vector_that_enters_and_leaves_between_checkpoints_is_not_stored():
    values = [(5, 5), (3, 7), (2, 6), (9, 9)]
    table = make_table(values, domain=10)
    rows = [Row(rid, vector) for rid, vector in enumerate(values)]
    store = RecordingStore()
    session = _session(table)
    session.attach_store(store, algorithm="stream", checkpoint_every=3)
    session_id = session.store_session.session_id
    with patch.object(base, "FOLD_ROWS", 1):
        for sequence, rid in enumerate([0, 3, 3, 1, 2, 3], start=1):
            _record(session, sequence, (rows[rid],))
    # (3, 7) entered with the fourth answer and (2, 6) pushed it out with
    # the fifth, both after the first checkpoint and before the second.
    assert store.sent[1] == {"entered": {(2, 6)}, "left": {(3, 7)}}
    assert store.session(session_id).checkpoint["skyline"] == [
        [2, 6], [5, 5]
    ]


def test_resumed_incarnation_replaces_the_dead_ones_skyline():
    values = [(5, 5), (3, 7), (2, 6), (7, 3), (1, 9)]
    table = make_table(values, domain=10)
    answers = [(Row(rid, vector),) for rid, vector in enumerate(values)]
    store = CrawlStore.memory()
    dead = _session(table)
    dead.attach_store(store, algorithm="stream", checkpoint_every=1)
    for sequence, rows in enumerate(answers, start=1):
        _record(dead, sequence, rows)
    session_id = dead.store_session.session_id
    assert store.session(session_id).checkpoint["skyline"] == [
        [1, 9], [2, 6], [5, 5], [7, 3]
    ]
    resumed = _session(table)
    resumed.attach_store(
        store, algorithm="stream", resume=True, checkpoint_every=2
    )
    assert resumed.store_session.session_id == session_id
    assert resumed.store_session.checkpoint["skyline"] == [
        [1, 9], [2, 6], [5, 5], [7, 3]
    ]
    # The replayed prefix reaches its first checkpoint after two answers:
    # the dead incarnation's later vectors must not survive it.
    for sequence, rows in enumerate(answers[:2], start=1):
        _record(resumed, sequence, rows)
    checkpoint = store.session(session_id).checkpoint
    assert checkpoint["skyline"] == [[3, 7], [5, 5]]
    assert checkpoint["skyline_size"] == 2
    for sequence, rows in enumerate(answers[2:4], start=3):
        _record(resumed, sequence, rows)
    assert store.session(session_id).checkpoint["skyline"] == [
        [2, 6], [5, 5], [7, 3]
    ]


class WholeRebuildSession(DiscoverySession):
    """Reference: the fold that rebuilt the whole vector -> rows dict in
    coordinate-sum order every time, and read the skyline off it."""

    def _fold(self) -> None:
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
        positions = incremental_skyline_update(kept, block).tolist()
        groups = [*self._skyline.items(), *fresh.items()]
        self._skyline = dict(groups[position] for position in positions)
        self._sky_matrix = np.concatenate([kept, block])[positions]

    def confirmed_skyline(self) -> list[Row]:
        folded = [row for ties in self._skyline.values() for row in ties]
        return skyline_of_rows(folded + self._unfolded)


@pytest.mark.parametrize("fold_rows", [1, 3, 7, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_confirmed_skyline_keeps_the_whole_rebuild_row_order(seed, fold_rows):
    """MQ and the delta crawl iterate ``confirmed_skyline()``: its rows
    stay in the maintained coordinate-sum order, ties in arrival order."""
    table, answers = churning_stream(seed)
    session = _session(table)
    reference = _session(table, WholeRebuildSession)
    with patch.object(base, "FOLD_ROWS", fold_rows):
        for sequence, rows in enumerate(answers, start=1):
            _record(session, sequence, rows)
            _record(reference, sequence, rows)
            assert [row.rid for row in session.confirmed_skyline()] == [
                row.rid for row in reference.confirmed_skyline()
            ]


def test_a_failed_checkpoint_leaves_the_previous_one_whole(monkeypatch):
    """Counters and vectors commit together: a checkpoint that fails
    half-way leaves the previous one, and the next checkpoint still
    carries the changes the failed one did not store."""
    values = [(5, 5), (3, 7), (2, 6), (7, 3)]
    table = make_table(values, domain=10)
    answers = [(Row(rid, vector),) for rid, vector in enumerate(values)]
    store = CrawlStore.memory()
    session = _session(table)
    session.attach_store(store, algorithm="stream", checkpoint_every=1)
    session_id = session.store_session.session_id
    _record(session, 1, answers[0])
    _record(session, 2, answers[1])
    before = store.session(session_id).checkpoint
    assert before["skyline"] == [[3, 7], [5, 5]]
    pack_vector = crawlstore._pack_vector
    packed = []

    def pack_then_fail(vector):
        if packed:
            raise RuntimeError("disk on fire")
        packed.append(vector)
        return pack_vector(vector)

    monkeypatch.setattr(crawlstore, "_pack_vector", pack_then_fail)
    # (2, 6) pushes (3, 7) out: the delete packs, the insert fails.
    with pytest.raises(RuntimeError, match="disk on fire"):
        _record(session, 3, answers[2])
    assert store.session(session_id).checkpoint == before
    monkeypatch.undo()
    _record(session, 4, answers[3])
    checkpoint = store.session(session_id).checkpoint
    assert checkpoint["skyline"] == _expected(session) == [
        [2, 6], [5, 5], [7, 3]
    ]
    assert checkpoint["answers"] == 4
    assert session.log == ()


def test_a_whole_mapping_replaces_the_stored_skyline():
    """A mapping saved whole reads back as saved: an empty skyline as
    ``[]``, and no ``skyline`` key once a mapping without one replaces
    it (its vectors go too)."""
    store = CrawlStore.memory()
    table = make_table([(1, 2)], domain=5)
    iface = TopKInterface(table, k=4, name="one")
    fp = store.register_endpoint(iface.schema, iface.k, name="one")
    session_id = store.begin_session(fp, "x").session_id
    store.save_checkpoint(session_id, {"billed": 1, "skyline": []})
    assert store.session(session_id).checkpoint == {
        "billed": 1, "skyline": []
    }
    store.save_checkpoint(
        session_id, {"skyline": [[3, 1], [1, 3], [1, 3]], "billed": 2}
    )
    checkpoint = store.session(session_id).checkpoint
    assert list(checkpoint.items()) == [
        ("skyline", [[1, 3], [3, 1]]), ("billed", 2)
    ]
    store.save_checkpoint(session_id, {"billed": 3})
    assert store.session(session_id).checkpoint == {"billed": 3}
    assert store._conn.execute(
        "SELECT COUNT(*) FROM checkpoint_skyline"
    ).fetchone() == (0,)


def test_gc_removes_the_checkpoint_rows_of_pruned_sessions():
    table = make_table([(1, 2), (2, 1)], domain=5)
    store = CrawlStore.memory()
    sessions = []
    for k in (4, 5):
        iface = TopKInterface(table, k=k, name="ties")
        store.register_endpoint(
            iface.schema, k, name="ties", ranking=iface.ranking_label,
            allow_new=True,
        )
        session = DiscoverySession(iface)
        session.attach_store(store, algorithm="x", checkpoint_every=1)
        _record(session, 1, (Row(0, (1, 2)), Row(1, (2, 1))))
        sessions.append(session.store_session.session_id)
    # Registering k=5 under the same name superseded the k=4 endpoint.
    report = store.gc()
    assert report.sessions_pruned == 1

    def vectors(session_id):
        return store._conn.execute(
            "SELECT COUNT(*) FROM checkpoint_skyline WHERE session_id=?",
            (session_id,),
        ).fetchone()[0]

    assert (vectors(sessions[0]), vectors(sessions[1])) == (0, 2)
    assert store.session(sessions[1]).checkpoint["skyline"] == [
        [1, 2], [2, 1]
    ]


@pytest.fixture(scope="module")
def crawls():
    """A finished crawl and a budget-cut one of the same endpoint, with
    their checkpoints as layout-3 files held them."""
    iface = TopKInterface(diamonds_table(600, 3), k=5, name="diamonds-600")
    store = CrawlStore.memory()
    result = Discoverer(DiscoveryConfig(store=store)).run(iface, "baseline")
    (done,) = store.sessions()
    (endpoint,) = store.endpoints()
    entries = store.ledger_entries(endpoint.fingerprint)
    cut_store = CrawlStore.memory()
    cut = Discoverer(DiscoveryConfig(store=cut_store, budget=60)).run(
        iface, "baseline"
    )
    (running,) = cut_store.sessions()
    assert not cut.complete and running.status == "running"
    assert len(done.checkpoint["skyline"]) > 5
    sessions = [
        ("done", "finished", dict(done.checkpoint), dict(done.result)),
        ("crashed", "running", dict(running.checkpoint), None),
    ]
    for _sid, _status, checkpoint, _result in sessions:
        assert list(checkpoint) == KEYS
    return iface, result, entries, sessions


def _write_v3(path, crawls):
    iface, _result, entries, sessions = crawls
    return write_v3_store(
        path, iface.schema, iface.k,
        [(entry.query, entry.result) for entry in entries],
        sessions,
        name=iface.name, ranking=iface.ranking_label, algorithm="baseline",
    )


class TestMigrationFromV3:
    def test_v3_file_keeps_every_checkpoint_and_reruns_warm(
        self, tmp_path, crawls
    ):
        iface, result, entries, sessions = crawls
        path = tmp_path / "v3.db"
        _write_v3(path, crawls)
        with CrawlStore(path) as store:
            assert store.schema_version() == STORE_VERSION == 4
            assert store._conn.execute(
                "SELECT value FROM store_meta WHERE key='migrated_from'"
            ).fetchone() == ("3",)
            assert store._conn.execute(
                "PRAGMA integrity_check"
            ).fetchone() == ("ok",)
            for session_id, status, checkpoint, filed in sessions:
                record = store.session(session_id)
                assert record.status == status
                assert list(record.checkpoint.items()) == list(
                    checkpoint.items()
                )
                assert record.result == filed
                # The vectors left the session row.
                (row,) = store._conn.execute(
                    "SELECT checkpoint_json FROM sessions "
                    "WHERE session_id=?", (session_id,),
                ).fetchone()
                assert json.loads(row)["skyline"] is None
            iface.reset()
            warm = Discoverer(DiscoveryConfig(store=store)).run(
                iface, "baseline"
            )
        assert warm.total_cost == 0 and iface.queries_issued == 0
        assert warm.stats.ledger_hits == len(entries)
        assert warm.skyline == result.skyline

    def test_failed_v4_step_leaves_a_readable_v3_file(
        self, tmp_path, crawls, monkeypatch
    ):
        _iface, _result, _entries, sessions = crawls
        path = tmp_path / "v3.db"
        _write_v3(path, crawls)
        pack_vector = crawlstore._pack_vector
        packed = []

        def pack_then_fail(vector):
            if len(packed) == 5:
                raise RuntimeError("disk on fire")
            packed.append(pack_vector(vector))
            return packed[-1]

        monkeypatch.setattr(crawlstore, "_pack_vector", pack_then_fail)
        with pytest.raises(RuntimeError, match="disk on fire"):
            CrawlStore(path)
        assert len(packed) == 5
        conn = sqlite3.connect(path)
        try:
            assert conn.execute("PRAGMA user_version").fetchone() == (3,)
            tables = {name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )}
            assert "checkpoint_skyline" not in tables
            stored = {
                session_id: json.loads(checkpoint_json)
                for session_id, checkpoint_json in conn.execute(
                    "SELECT session_id, checkpoint_json FROM sessions"
                )
            }
        finally:
            conn.close()
        assert stored == {
            session_id: checkpoint
            for session_id, _status, checkpoint, _filed in sessions
        }
        monkeypatch.undo()
        with CrawlStore(path) as store:
            assert store.schema_version() == 4
            for session_id, _status, checkpoint, _filed in sessions:
                assert list(store.session(session_id).checkpoint.items()) \
                    == list(checkpoint.items())
