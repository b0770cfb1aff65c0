"""Serving engines: how a :class:`TopKInterface` answers a query.

Three interchangeable engines sit behind the unchanged interface contract,
all producing bit-identical :class:`~repro.hiddendb.interface.QueryResult`
rows (same rows, same order, same overflow flag):

* ``scan`` -- the original reference path: an O(n) boolean match mask over
  the whole table, then a per-query lexsort of the survivors.  The only
  engine that supports rankers without a query-independent order (the
  per-query-randomised :class:`~repro.hiddendb.ranking.RandomSkylineRanker`).
* ``rank`` -- the in-memory fast path: the ranker's total order is computed
  once per bind (one lexsort) and the value matrix is copied into rank
  order.  A query either scans that matrix top-down in growing chunks,
  short-circuiting as soon as ``k`` rows match, or reads the candidates
  of its most selective predicate from a per-column value index (the
  column's rank positions grouped by value, built on the first query that
  constrains the column) and keeps the ``k`` smallest positions that pass
  the other predicates.  It picks per query, from the candidate counts and
  the scan's hit rate so far, so a query costs about the smaller of the
  rank of its ``k``-th answer and its smallest candidate set, instead of
  O(n) + sort -- and a query matching fewer than ``k`` rows no longer
  reads the whole table to prove it.
* ``sqlite`` -- the SQL-native path for :class:`~repro.hiddendb.sqltable.
  SQLTable`: the same total order persisted as an indexed ``rank`` column,
  so top-k compiles to ``SELECT ... WHERE <ranges> ORDER BY rank LIMIT k``
  over a covering index, without ever loading the table into memory.

Identity argument: ``rank`` works in the *exact* permutation
:meth:`BoundRanker.total_order` produces -- keyed by (primary criterion,
value vector, row id), the same keys ``top()`` sorts by -- so the first
``k`` surviving positions of any filter are precisely ``top(matched, k)``.
The index path returns the same positions: every match passes the most
selective predicate, so it is among that predicate's candidates, and the
``k`` smallest rank positions among all matches are the scan's first
``k`` matches.  ``sqlite`` orders by a persisted copy of that
permutation, making it identical by construction.
"""

from __future__ import annotations

import threading
from array import array
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import UnknownAttributeError
from .query import Query
from .ranking import BoundRanker, LinearRanker, Ranker, ranker_from_label
from .table import Row, Table

#: Engine names accepted by :func:`make_engine` (and the CLI / service).
ENGINE_CHOICES = ("auto", "scan", "rank", "sqlite")

#: First chunk of the rank scan.  Most queries resolve inside it (the
#: top-k of a selective-enough query clusters near the top ranks), so it
#: starts small; misses grow geometrically to bound the number of passes.
_CHUNK_START = 1024
_CHUNK_GROWTH = 4
_CHUNK_CAP = 65536
#: What answering from one index candidate costs, in rows of the chunk
#: scan (a gather and a test per other predicate, then a partial sort,
#: against one contiguous test per predicate).
_CANDIDATE_COST = 4


@runtime_checkable
class Engine(Protocol):
    """What :class:`TopKInterface` needs from a serving engine."""

    #: Engine name as reported in metrics and ``repr``.
    label: str
    #: Whether every filtering attribute the schema declares is answerable
    #: -- when ``True`` (and queries are validated), executing a query can
    #: never raise, which unlocks the vectorised batch billing path.
    covers_filters: bool
    #: The bound ranker, or ``None`` for the SQL-native engine (which
    #: never materialises scores -- the persisted rank column is the order).
    bound: BoundRanker | None

    def top_rows(self, query: Query, k: int) -> tuple[Row, ...]:
        """The top-``k`` answer rows for ``query``, best rank first."""


def _covers_filters(table: Table) -> bool:
    declared = table.schema.filtering_attributes
    return all(attr.name in table.filter_names for attr in declared)


def _memory_view(source) -> Table:
    """An internally-consistent in-memory view of ``source``'s data.

    SQL tables materialise through ``as_memory()``; mutable in-memory
    tables hand out a zero-copy snapshot whose matrix / filters / rids
    belong to one data version; anything else serves itself.
    """
    if hasattr(source, "as_memory"):
        return source.as_memory()
    if hasattr(source, "snapshot_view"):
        return source.snapshot_view()
    return source


def _source_version(source) -> int:
    return int(getattr(source, "data_version", 0))


class _ScanEngine:
    """Reference path: full match mask + per-query lexsort (O(n)).

    Mutation-aware: the engine serves a snapshot view bound at build
    time; when the source table's ``data_version`` advances, the next
    query rebinds against a fresh snapshot under a lock.  The (view,
    bound) pair is published as one tuple so a racing reader can never
    match against new data with scores from the old bind.
    """

    label = "scan"

    def __init__(self, source, view: Table, bound: BoundRanker,
                 ranker: Ranker) -> None:
        self._source = source
        self._ranker = ranker
        self.covers_filters = _covers_filters(view)
        self._refresh_lock = threading.Lock()
        self._state: tuple[Table, BoundRanker] = (view, bound)
        self._version = _source_version(source)

    @property
    def bound(self) -> BoundRanker:
        return self._state[1]

    def _current(self) -> tuple[Table, BoundRanker]:
        version = _source_version(self._source)
        if version != self._version:
            with self._refresh_lock:
                if version != self._version:
                    view = _memory_view(self._source)
                    self._state = (view, self._ranker.bind(view))
                    self._version = _source_version(view)
        return self._state

    def top_rows(self, query: Query, k: int) -> tuple[Row, ...]:
        table, bound = self._current()
        matched = table.match_indices(query)
        top = bound.top(matched, k)
        return table.rows(top)


class _ValueIndex:
    """One column's rank positions, grouped by value.

    ``positions`` lists every rank position sorted by the column's value
    and, within one value, ascending (a stable argsort), as int32 (an
    in-memory table has fewer than 2**31 rows).
    ``offsets[v - lowest]`` is where value ``v``'s positions start, so the
    rows valued in ``[lo, hi]`` are ``positions[offsets[lo - lowest]:
    offsets[hi + 1 - lowest]]`` and a predicate's candidate count is two
    array lookups.  The offsets cover the attribute's domain (widened to
    any out-of-domain value a filter column carries), not a sorted copy
    of the values.
    """

    __slots__ = ("positions", "offsets", "lowest", "highest")

    def __init__(self, column: np.ndarray, highest: int) -> None:
        lowest = 0
        if column.size:
            lowest = min(lowest, int(column.min()))
            highest = max(highest, int(column.max()))
        keys = column - lowest
        ends = np.cumsum(np.bincount(keys, minlength=highest - lowest + 1))
        self.offsets = array("i", [0])
        self.offsets.extend(ends.tolist())
        if highest - lowest < 1 << 16:
            keys = keys.astype(np.uint16)  # a stable uint16 sort is radix
        self.positions = np.argsort(keys, kind="stable").astype(np.int32)
        self.lowest = lowest
        self.highest = highest

    def span(self, lo: int, hi: int) -> tuple[int, int]:
        """``(start, stop)``: ``positions[start:stop]`` are the rows valued
        in ``[lo, hi]``, clamped to the values the index covers."""
        if lo < self.lowest:
            lo = self.lowest
        if hi > self.highest:
            hi = self.highest
        if lo > hi:
            return 0, 0
        offsets = self.offsets
        return offsets[lo - self.lowest], offsets[hi + 1 - self.lowest]


class _RankState:
    """One immutable build of the rank-sorted serving state.

    ``indexes`` is the one part filled in later: a column's
    :class:`_ValueIndex` (keyed by ranking-attribute index or filter
    name) is built on the first query that constrains that column and
    published whole, so a reader sees a finished index or none.  A
    ``data_version`` bump builds a new state, and with it new indexes.
    """

    __slots__ = ("combined", "columns", "filters", "maxes", "indexes")

    def __init__(self, combined, columns, filters, maxes) -> None:
        self.combined = combined
        self.columns = columns
        self.filters = filters
        self.maxes = maxes
        self.indexes: dict[int | str, _ValueIndex] = {}


class _RankEngine:
    """Rank-ordered scan or value index, whichever reads fewer rows.

    The rank-sorted state (order permutation, reordered value matrix and
    filter columns) is built lazily on the first query and shared by all
    threads thereafter -- experiments construct many interfaces and query
    few, so paying the one-off lexsort + copy at construction time would
    penalise them.  When the source table's ``data_version`` advances,
    the next query rebinds and rebuilds the whole state under the build
    lock; the state is published as one immutable object, so a racing
    reader serves a coherent (possibly one-version-stale) order.

    A query is answered one of two ways, both returning the first ``k``
    matching rank positions:

    * the **chunk scan** reads the rank order top-down in growing chunks
      and stops at the ``k``-th match -- cheap when that match sits near
      the top;
    * the **index path** takes the candidates of the query's most
      selective predicate from that column's :class:`_ValueIndex`, keeps
      those that pass the other predicates and returns the ``k`` smallest
      positions.  The ``k`` smallest rank positions among all matches are
      the scan's first ``k`` matches, so both paths answer identically.

    The engine picks per query, from what it observes: every predicate's
    candidate count (two array lookups), and the hit rate of the chunks
    scanned so far.  A query whose fewest candidates fit in the first
    chunk goes straight to the index; otherwise it scans, and switches
    to the index as soon as the candidates cost less than the rows its
    hit rate says are still to read.  A query costs the smaller of the
    rank of its ``k``-th answer and its smallest candidate set, instead
    of the whole table for one that matches fewer than ``k`` rows.
    """

    label = "rank"

    def __init__(self, source, view: Table, bound: BoundRanker,
                 ranker: Ranker) -> None:
        self._source = source
        self._view = view
        self._ranker = ranker
        self.bound = bound
        self.covers_filters = _covers_filters(view)
        self._build_lock = threading.Lock()
        self._state: _RankState | None = None
        self._version = _source_version(source)

    def _build(self, view: Table, bound: BoundRanker) -> _RankState:
        order = bound.total_order()
        assert order is not None, "rank engine needs a total order"
        filters = {
            name: view.filter_column(name)[order]
            for name in view.filter_names
        }
        ordered = view.matrix[order]
        # One contiguous array per attribute: the chunk masks below then
        # run over dense cache lines instead of strided matrix columns.
        columns = tuple(
            np.ascontiguousarray(ordered[:, j])
            for j in range(ordered.shape[1])
        )
        maxes = tuple(
            attribute.max_value
            for attribute in view.schema.ranking_attributes
        )
        # (rid, v0..vm-1) per row in rank order: answers materialise with
        # a single fancy-indexed slice + one tolist pass.  Stable rids
        # (which diverge from positions once tuples are deleted) ride in
        # column 0 so answers identify tuples across mutations.
        rids = getattr(view, "rids", None)
        identifiers = (
            rids[order] if rids is not None else np.asarray(order)
        )
        combined = np.concatenate(
            [identifiers.reshape(-1, 1), ordered], axis=1
        )
        return _RankState(combined, columns, filters, maxes)

    def _ensure_built(self) -> _RankState:
        state = self._state
        version = _source_version(self._source)
        if state is None or version != self._version:
            with self._build_lock:
                state = self._state
                if state is None or version != self._version:
                    if version != self._version:
                        self._view = _memory_view(self._source)
                        self.bound = self._ranker.bind(self._view)
                        self._version = _source_version(self._view)
                    state = self._build(self._view, self.bound)
                    self._state = state
        return state

    def _value_index(self, state: _RankState, key: int | str) -> _ValueIndex:
        with self._build_lock:
            index = state.indexes.get(key)
            if index is None:
                if isinstance(key, str):
                    declared = self._view.schema[key].max_value
                    index = _ValueIndex(state.filters[key], declared)
                else:
                    index = _ValueIndex(state.columns[key], state.maxes[key])
                state.indexes[key] = index
        return index

    def top_rows(self, query: Query, k: int) -> tuple[Row, ...]:
        state = self._ensure_built()
        combined = state.combined
        n = combined.shape[0]
        indexes = state.indexes
        # Compile the query into (column, lo, hi, index) tests, dropping
        # bounds that cannot exclude anything (the common select-all
        # envelope), and find the test with the fewest candidates.
        tests: list[tuple[np.ndarray, int, int, _ValueIndex]] = []
        fewest = n + 1
        best = 0
        ranges = query.ranges
        if ranges:
            columns = state.columns
            maxes = state.maxes
            for index, interval in ranges.items():
                lo = interval.lo
                hi = interval.hi
                top = maxes[index]
                if lo > 0 or hi < top:
                    value_index = (
                        indexes.get(index) or self._value_index(state, index)
                    )
                    if lo >= 0 and hi <= top:
                        # Ranking values lie in [0, top], so the offsets
                        # start at value 0: no clamping inside the domain.
                        offsets = value_index.offsets
                        count = offsets[hi + 1] - offsets[lo]
                    else:
                        start, stop = value_index.span(lo, hi)
                        count = stop - start
                    if count < fewest:
                        fewest = count
                        best = len(tests)
                    tests.append((columns[index], lo, hi, value_index))
        filters = query.filters
        if filters:
            for name, value in filters.items():
                column = state.filters.get(name)
                if column is None:
                    raise UnknownAttributeError(f"no filter column {name!r}")
                value_index = (
                    indexes.get(name) or self._value_index(state, name)
                )
                start, stop = value_index.span(value, value)
                if stop - start < fewest:
                    fewest = stop - start
                    best = len(tests)
                tests.append((column, value, value, value_index))

        if not tests:  # unconstrained: the top-k is rows 0..k
            count = k if k < n else n
            return self._materialize(
                combined, np.arange(count, dtype=np.intp)
            )
        if fewest == 0:  # some predicate matches no row at all
            return ()
        if fewest <= _CHUNK_START:
            return self._from_index(combined, tests, best, k)

        first = tests[0]
        rest = tests[1:]
        positions: np.ndarray | None = None
        found = 0
        start = 0
        chunk = _CHUNK_START
        while True:
            stop = start + chunk
            if stop > n:
                stop = n
            column, lo, hi, _ = first
            segment = column[start:stop]
            if lo == hi:  # point constraint (SQ/PQ probes, filters)
                mask = segment == lo
            else:
                mask = segment >= lo
                mask &= segment <= hi
            for column, lo, hi, _ in rest:
                segment = column[start:stop]
                if lo == hi:
                    mask &= segment == lo
                else:
                    mask &= segment >= lo
                    mask &= segment <= hi
            matched = mask.nonzero()[0]
            if matched.size:
                if start:
                    matched += start
                positions = (
                    matched
                    if positions is None
                    else np.concatenate((positions, matched))
                )
                found += matched.size
            start = stop
            if found >= k or start == n:
                break
            # Rows still to read at the hit rate seen so far (at least
            # one hit's worth), against what the candidates cost.
            left = (k - found) * start // (found or 1)
            if left > n - start:
                left = n - start
            if fewest * _CANDIDATE_COST < left:
                return self._from_index(combined, tests, best, k)
            if chunk < _CHUNK_CAP:
                chunk = min(chunk * _CHUNK_GROWTH, _CHUNK_CAP)
        if positions is None:
            return ()
        return self._materialize(combined, positions[:k])

    def _from_index(
        self,
        combined: np.ndarray,
        tests: list[tuple[np.ndarray, int, int, _ValueIndex]],
        best: int,
        k: int,
    ) -> tuple[Row, ...]:
        """The first ``k`` matches, from the candidates of ``tests[best]``."""
        _, best_lo, best_hi, value_index = tests[best]
        start, stop = value_index.span(best_lo, best_hi)
        # One conversion up front: a gather with int32 indices converts
        # them again on every call.
        rows = value_index.positions[start:stop].astype(np.intp)
        for position, (column, lo, hi, _) in enumerate(tests):
            if position == best:
                continue
            values = column[rows]  # a fresh int64 array, ours to modify
            if lo == hi:
                keep = values == lo
            else:  # lo <= v <= hi as one unsigned test on v - lo
                values -= lo
                keep = values.view(np.uint64) <= hi - lo
            rows = rows[keep]
        if best_lo != best_hi:  # ascending only within each value
            if rows.size > 64 * k:  # a partition pays off only well past k
                rows = np.partition(rows, k - 1)[:k]
            rows.sort()
        return self._materialize(combined, rows[:k])

    def _materialize(
        self, combined: np.ndarray, positions: np.ndarray
    ) -> tuple[Row, ...]:
        if positions.size == 0:
            return ()
        return tuple(
            [Row(row[0], tuple(row[1:]))
             for row in combined[positions].tolist()]
        )


class _SQLiteEngine:
    """SQL-native path: one covering-index walk per query, no table load."""

    label = "sqlite"
    covers_filters = True  # build_sqltable persists every declared filter
    bound = None

    def __init__(self, table) -> None:
        self._table = table

    def top_rows(self, query: Query, k: int) -> tuple[Row, ...]:
        return self._table.top_rows(query, k)


def _is_sql_native(table: object, ranker: Ranker) -> bool:
    """Whether ``table`` can serve ``ranker`` straight from its rank index."""
    return (
        hasattr(table, "top_rows")
        and getattr(table, "ranking_label", None) == ranker.describe()
    )


def default_ranker(table: object) -> Ranker:
    """The ranking a table serves under when the caller names none.

    Plain in-memory tables get the paper's unit-weight SUM
    (:class:`LinearRanker`); a SQL table's persisted rank index pins the
    ranking it was built with, so its label is reconstructed instead --
    anything else would silently answer under a different order than the
    index provides.
    """
    label = getattr(table, "ranking_label", None)
    if label is not None and hasattr(table, "top_rows"):
        return ranker_from_label(label)
    return LinearRanker()


def make_engine(table, ranker: Ranker, engine: str = "auto") -> Engine:
    """Build the serving engine for ``table`` under ``ranker``.

    ``auto`` picks the fastest correct engine: the SQL-native path when
    ``table`` is a :class:`~repro.hiddendb.sqltable.SQLTable` whose
    persisted ranking matches ``ranker``; otherwise the rank-ordered scan
    when the ranker has a query-independent total order; otherwise the
    O(n) reference scan.  Forcing an engine the configuration cannot
    support raises ``ValueError`` rather than silently degrading.

    A SQL table under a *different* ranker (or a forced ``scan``/``rank``)
    is materialised in memory once via ``as_memory()``.
    """
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {ENGINE_CHOICES}"
        )
    native = _is_sql_native(table, ranker)
    if engine == "sqlite":
        if not native:
            reason = (
                f"its rank index was built for "
                f"{getattr(table, 'ranking_label', None)!r}, "
                f"not {ranker.describe()!r}"
                if hasattr(table, "top_rows")
                else "the table is not SQLite-backed"
            )
            raise ValueError(f"cannot use the sqlite engine: {reason}")
        return _SQLiteEngine(table)
    if engine == "auto" and native:
        return _SQLiteEngine(table)
    view = _memory_view(table)
    bound = ranker.bind(view)
    if engine == "scan":
        return _ScanEngine(table, view, bound, ranker)
    if engine == "rank" and not bound.has_total_order:
        raise ValueError(
            f"cannot use the rank engine: {ranker.describe()} has no "
            "query-independent total order"
        )
    if bound.has_total_order:
        return _RankEngine(table, view, bound, ranker)
    return _ScanEngine(table, view, bound, ranker)


__all__ = [
    "ENGINE_CHOICES",
    "Engine",
    "default_ranker",
    "make_engine",
]
