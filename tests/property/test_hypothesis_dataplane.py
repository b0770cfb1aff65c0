"""Property-based tests (hypothesis): the rank engine equals the scan engine.

The ``rank`` engine answers a query one of two ways -- a chunk scan of the
rank order, or the candidates of the query's most selective predicate from
a per-column value index -- and both must return exactly the rows, order
and overflow flag of the O(n) ``scan`` reference.  Tables here are small
(50-400 rows, domains of 2-8 values, so ties everywhere); the chunk
constants are patched down so such tables reach both paths and the switch
from one to the other.  Every query is asked again after a mutation batch:
an index that outlived its data version would answer from stale rows.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datagen import churn_ops
from repro.hiddendb import (
    Attribute,
    InterfaceKind,
    Interval,
    LexicographicRanker,
    LinearRanker,
    Query,
    Schema,
    Table,
    TopKInterface,
    dataplane,
)

FILTER = "city"


def _table(values, domains, filters=None, filter_size=0):
    attributes = [
        Attribute(f"a{index}", size, InterfaceKind.RQ)
        for index, size in enumerate(domains)
    ]
    if filters is not None:
        attributes.append(Attribute(FILTER, filter_size, InterfaceKind.FILTER))
    return Table(Schema(attributes), values, filters)


def _skewed(rng, size):
    weights = rng.random(size) ** 3 + 0.01
    return weights / weights.sum()


@st.composite
def tables(draw):
    """A table of 50-400 rows over 2-4 attributes with 2-8 values each."""
    m = draw(st.integers(2, 4))
    domains = draw(st.lists(st.integers(2, 8), min_size=m, max_size=m))
    n = draw(st.integers(50, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Skewed value frequencies: rare values make small candidate sets,
    # so ranges as well as points end up the most selective predicate.
    values = np.column_stack([
        rng.choice(size, n, p=_skewed(rng, size)) for size in domains
    ])
    if not draw(st.booleans()):
        return _table(values, domains), domains
    size = draw(st.integers(2, 5))
    filters = {FILTER: rng.integers(0, size, n)}
    return _table(values, domains, filters, size), domains


def rankers(m):
    weights = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                       min_size=m, max_size=m)
    return st.one_of(
        st.just(LinearRanker()),
        weights.map(LinearRanker),
        st.permutations(range(m)).map(LexicographicRanker),
    )


@st.composite
def queries(draw, domains, has_filter):
    """Ranges, points and filters, select-all and out-of-domain bounds."""
    ranges = {}
    for index, size in enumerate(domains):
        shape = draw(st.sampled_from(["none", "range", "range", "point"]))
        if shape == "range":
            # One past either end of the domain: engines must clamp alike.
            lo = draw(st.integers(-1, size))
            hi = draw(st.integers(lo, size))
            ranges[index] = Interval(lo, hi)
        elif shape == "point":
            value = draw(st.integers(0, size - 1))
            ranges[index] = Interval(value, value)
    filters = {}
    if has_filter and draw(st.booleans()):
        filters[FILTER] = draw(st.integers(0, 5))
    return Query(ranges, filters)


def _interfaces(table, ranker, k):
    return tuple(
        TopKInterface(table, ranker=ranker, k=k, validate=False,
                      engine=engine)
        for engine in ("scan", "rank")
    )


def _check(interfaces, batch):
    scan, rank = interfaces
    for query in batch:
        expected = scan.query(query)
        got = rank.query(query)
        assert got.rows == expected.rows, query
        assert got.overflow == expected.overflow, query


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), chunk=st.integers(1, 32), k=st.integers(1, 6))
def test_rank_engine_answers_like_the_scan_engine(data, chunk, k):
    table, domains = data.draw(tables())
    ranker = data.draw(rankers(len(domains)))
    has_filter = bool(table.filter_names)
    batch = [Query()] + data.draw(
        st.lists(queries(domains, has_filter), min_size=10, max_size=30)
    )
    with patch.object(dataplane, "_CHUNK_START", chunk), \
            patch.object(dataplane, "_CHUNK_CAP", 4 * chunk):
        interfaces = _interfaces(table, ranker, k)
        _check(interfaces, batch)
        # The same engines and queries after the data moved: every index
        # built above belongs to the old version.
        ops = churn_ops(table, 0.2, seed=data.draw(st.integers(0, 1000)))
        table.apply_mutations(ops)
        _check(interfaces, batch)


def test_the_patched_constants_reach_both_paths():
    # Guards the property above: with the chunk patched down, a small
    # table answers some queries by the scan alone and others from the
    # index, both straight away and after a first chunk fell short.
    rng = np.random.default_rng(7)
    values = rng.integers(0, 6, size=(300, 3))
    values[:, 2] = np.where(values[:, 2] == 5, 4, values[:, 2])
    values[::75, 2] = 5  # a value held by 4 rows: fewer than a chunk
    table = _table(values, (6, 6, 6))
    paths = {"scan": 0, "index": 0, "index after a chunk": 0}
    from_index = dataplane._RankEngine._from_index

    def spy(self, combined, tests, best, k):
        _, lo, hi, value_index = tests[best]
        start, stop = value_index.span(lo, hi)
        direct = stop - start <= dataplane._CHUNK_START
        paths["index" if direct else "index after a chunk"] += 1
        return from_index(self, combined, tests, best, k)

    batch = [
        Query({0: Interval(lo, hi)})
        for lo in range(6) for hi in range(lo, 6)
    ] + [
        Query({0: Interval(a, a), 1: Interval(b, 5), 2: Interval(c, 5)})
        for a in range(6) for b in range(6) for c in range(6)
    ]
    with patch.object(dataplane, "_CHUNK_START", 8), \
            patch.object(dataplane, "_CHUNK_CAP", 32), \
            patch.object(dataplane._RankEngine, "_from_index", spy):
        engine = dataplane.make_engine(table, LinearRanker(), "rank")
        for query in batch:
            before = sum(paths.values())
            engine.top_rows(query, 3)
            if sum(paths.values()) == before:
                paths["scan"] += 1
        assert all(paths.values()), paths
        _check(_interfaces(table, LinearRanker(), 3), batch)
