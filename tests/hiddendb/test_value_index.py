"""The rank engine's per-column value indexes under threads and odd data.

Indexes are built lazily, on the first query that constrains a column, by
whichever serving thread gets there first; the other threads must wait
for the finished index and never build a second one.  A filter column may
carry values outside its declared domain (tables validate ranking values
only), and the index must still answer those rows like the scan engine.
"""

from __future__ import annotations

import sys
import threading
import time
from unittest.mock import patch

import numpy as np

from repro.hiddendb import (
    Attribute,
    InterfaceKind,
    Interval,
    LinearRanker,
    Query,
    Schema,
    Table,
    dataplane,
    make_engine,
)


def _table(n=2000, seed=3):
    rng = np.random.default_rng(seed)
    schema = Schema([
        Attribute("a0", 50, InterfaceKind.RQ),
        Attribute("a1", 50, InterfaceKind.RQ),
        Attribute("a2", 7, InterfaceKind.RQ),
        Attribute("city", 4, InterfaceKind.FILTER),
    ])
    values = np.column_stack([
        rng.integers(0, 50, n), rng.integers(0, 50, n), rng.integers(0, 7, n)
    ])
    return Table(schema, values, {"city": rng.integers(0, 4, n)})


def _queries(seed=5, count=120):
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(count):
        lo = int(rng.integers(0, 50))
        ranges = {
            0: Interval(lo, min(49, lo + int(rng.integers(0, 6)))),
            1: Interval(0, int(rng.integers(0, 50))),
            2: Interval(int(rng.integers(0, 7)), 6),
        }
        batch.append(Query(ranges, {"city": int(rng.integers(0, 4))}))
    return batch


def test_concurrent_first_queries_build_each_index_once():
    table = _table()
    ranker = LinearRanker()
    batch = _queries()
    expected = [
        make_engine(table, ranker, "scan").top_rows(query, 10)
        for query in batch
    ]
    engine = make_engine(table, ranker, "rank")
    built: list[object] = []
    index_class = dataplane._ValueIndex

    class CountingIndex(index_class):
        __slots__ = ()

        def __init__(self, column, highest):
            built.append(column)
            time.sleep(0.01)  # a slow build: the others must wait for it
            super().__init__(column, highest)

    answers: dict[int, list] = {}
    start = threading.Barrier(8)

    def serve(worker):
        start.wait()
        answers[worker] = [engine.top_rows(query, 10) for query in batch]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with patch.object(dataplane, "_ValueIndex", CountingIndex):
            threads = [
                threading.Thread(target=serve, args=(worker,))
                for worker in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(answers) == list(range(8))
    for worker in range(8):
        assert answers[worker] == expected
    # Four constrained columns (three ranking, one filter): four builds.
    assert len(built) == 4


def test_filter_values_outside_the_declared_domain():
    schema = Schema([
        Attribute("a0", 5, InterfaceKind.RQ),
        Attribute("city", 3, InterfaceKind.FILTER),
    ])
    city = np.array([-2, 0, 1, 2, 7, 7, -2, 1] * 25)
    values = np.arange(city.size) % 5
    table = Table(schema, values, {"city": city})
    scan = make_engine(table, LinearRanker(), "scan")
    rank = make_engine(table, LinearRanker(), "rank")
    for value in (-3, -2, -1, 0, 1, 2, 3, 7, 8):
        for ranges in ({}, {0: Interval(1, 3)}, {0: Interval(4, 4)}):
            query = Query(ranges, {"city": value})
            for k in (1, 3, 60):
                assert rank.top_rows(query, k) == scan.top_rows(query, k)
