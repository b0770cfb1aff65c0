"""The top-k search interface -- the only data access the algorithms get.

:class:`TopKInterface` models the proprietary search form of a hidden web
database (Section 2.1 of the paper):

* it accepts conjunctive queries, validated against the per-attribute
  interface taxonomy (SQ / RQ / PQ / filtering);
* it returns at most ``k`` matching tuples, selected by a
  domination-consistent ranking function the client cannot inspect;
* it **counts every issued query**, the paper's sole efficiency measure, and
  optionally enforces a query budget that mirrors per-IP / per-API-key rate
  limits (triggering :class:`~repro.hiddendb.errors.QueryBudgetExceeded`).

The ``overflow`` flag of a :class:`QueryResult` is the client-side proxy a
real scraper has: a query *may* have more matches exactly when it returned
``k`` tuples.  The simulator does not reveal the true match count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from .dataplane import default_ranker, make_engine
from .errors import HiddenDBError, QueryBudgetExceeded
from .query import Query
from .ranking import Ranker
from .table import Row, Table

#: Sentinel for :meth:`TopKInterface.reset`: distinguishes "keep the current
#: budget" (the default) from an explicit ``budget=None`` (remove the limit).
KEEP_BUDGET = object()


@dataclass(frozen=True)
class QueryResult:
    """Answer to one issued query."""

    query: Query
    rows: tuple[Row, ...]
    overflow: bool  #: ``True`` when ``len(rows) == k`` (more matches may exist)
    sequence: int  #: 1-based position of this query in the issue order

    @property
    def is_empty(self) -> bool:
        """Whether the query returned no tuples."""
        return not self.rows

    @property
    def top(self) -> Row:
        """The highest-ranked returned tuple (``rows[0]``)."""
        if not self.rows:
            raise IndexError("query returned no rows")
        return self.rows[0]


class TopKInterface:
    """A counting, validating, rate-limited top-k query endpoint.

    Parameters
    ----------
    table:
        The hidden data.
    ranker:
        Domination-consistent ranking function; defaults to the unit-weight
        :class:`~repro.hiddendb.ranking.LinearRanker` (the paper's SUM).
    k:
        Maximum number of tuples returned per query.
    budget:
        Optional hard limit on the number of queries; the ``budget + 1``-th
        query raises :class:`QueryBudgetExceeded` *without* being executed.
    validate:
        Whether to enforce the per-attribute interface taxonomy.  Leave on;
        turning it off is only useful for oracle-style test harnesses.
    name:
        Optional label identifying the dataset behind this interface.  It
        feeds the crawl store's endpoint fingerprint, so two same-shaped
        interfaces over *different* data (e.g. regenerated datasets) do
        not share a query ledger.
    engine:
        Serving engine (see :mod:`repro.hiddendb.dataplane`): ``auto``
        (default) picks the fastest bit-identical path -- SQL-native for a
        :class:`~repro.hiddendb.sqltable.SQLTable` under its persisted
        ranking, the rank-ordered in-memory scan for query-independent
        rankers, the O(n) reference scan otherwise.  ``scan`` / ``rank`` /
        ``sqlite`` force a specific path.
    """

    def __init__(
        self,
        table: Table,
        ranker: Ranker | None = None,
        k: int = 1,
        budget: int | None = None,
        validate: bool = True,
        name: str = "",
        engine: str = "auto",
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self._table = table
        self._ranker = ranker if ranker is not None else default_ranker(table)
        self._engine = make_engine(table, self._ranker, engine)
        self._bound = self._engine.bound
        self._k = k
        self._budget = budget
        self._validate = validate
        self._name = name
        self._count = 0
        # Billing (check budget, then charge) must be atomic: the execution
        # engine's concurrent strategy issues queries from pool threads.
        self._lock = threading.Lock()
        # Batches may bill upfront (one lock round-trip) only when answering
        # cannot fail afterwards: queries validated, every declared filter
        # column answerable.  Otherwise an execution error after upfront
        # billing would charge queries the per-item loop never issues.
        self._batch_fast = validate and self._engine.covers_filters

    # ------------------------------------------------------------------
    # metadata visible to a client
    # ------------------------------------------------------------------
    @property
    def schema(self):
        """The (public) schema of the search form."""
        return self._table.schema

    @property
    def k(self) -> int:
        """The top-k output limit."""
        return self._k

    @property
    def name(self) -> str:
        """Dataset label of this interface (crawl-store endpoint identity)."""
        return self._name

    @property
    def ranking_label(self) -> str:
        """Stable label of the bound ranking function.

        Part of the crawl-store endpoint identity: the same table ranked
        differently returns different top-k answers, so the two must
        never share a query ledger.
        """
        return self._ranker.describe()

    @property
    def engine(self) -> str:
        """Name of the serving engine answering queries (``scan`` /
        ``rank`` / ``sqlite``)."""
        return self._engine.label

    @property
    def data_version(self) -> int:
        """The table's monotonic mutation counter (0 = never mutated)."""
        return int(getattr(self._table, "data_version", 0))

    @property
    def queries_issued(self) -> int:
        """Total number of queries issued so far -- the paper's cost metric."""
        return self._count

    @property
    def budget(self) -> int | None:
        """The configured query budget, if any."""
        return self._budget

    @property
    def budget_remaining(self) -> int | None:
        """Queries left before the rate limit triggers (``None`` = unlimited)."""
        if self._budget is None:
            return None
        return max(self._budget - self._count, 0)

    # ------------------------------------------------------------------
    # the search endpoint
    # ------------------------------------------------------------------
    def query(self, query: Query) -> QueryResult:
        """Issue one query and return its top-k answer.

        Raises
        ------
        UnsupportedQueryError
            If the query is not expressible through this interface.
        QueryBudgetExceeded
            If the query budget is already exhausted.
        """
        if self._validate:
            query.validate(self._table.schema)
        with self._lock:
            if self._budget is not None and self._count >= self._budget:
                raise QueryBudgetExceeded(self._budget)
            self._count += 1
            sequence = self._count
        rows = self._engine.top_rows(query, self._k)
        return QueryResult(
            query=query,
            rows=rows,
            overflow=len(rows) == self._k,
            sequence=sequence,
        )

    def batch_query(self, queries: Sequence[Query]) -> tuple[QueryResult, ...]:
        """Answer several independent queries in one call.

        Per-item billing and failure semantics are those of issuing each
        query alone: the first exhausted-budget or unsupported-query error
        aborts the remainder of the batch, carrying the answers billed
        before it as ``exc.partial_results`` (the
        :class:`~repro.hiddendb.endpoint.BatchSearchEndpoint` convention).

        When answering cannot fail (validated queries, engine covering
        every declared filter -- the common case), the whole batch is
        validated and billed under **one** lock acquisition and answered
        lock-free afterwards, so a batch costs one lock round-trip instead
        of one per item.  Configurations where execution itself may raise
        (``validate=False``, or a table missing declared filter columns)
        keep the exact per-item loop, whose interleaved bill-then-execute
        ordering their error accounting depends on.
        """
        if not self._batch_fast:
            results: list[QueryResult] = []
            for query in queries:
                try:
                    results.append(self.query(query))
                except HiddenDBError as exc:
                    exc.partial_results = tuple(results)
                    raise
            return tuple(results)

        schema = self._table.schema
        billed: list[tuple[Query, int]] = []
        error: HiddenDBError | None = None
        with self._lock:
            for query in queries:
                try:
                    query.validate(schema)
                    if self._budget is not None and self._count >= self._budget:
                        raise QueryBudgetExceeded(self._budget)
                except HiddenDBError as exc:
                    error = exc
                    break
                self._count += 1
                billed.append((query, self._count))
        answers = tuple(
            QueryResult(
                query=query,
                rows=rows,
                overflow=len(rows) == self._k,
                sequence=sequence,
            )
            for query, sequence in billed
            for rows in (self._engine.top_rows(query, self._k),)
        )
        if error is not None:
            error.partial_results = answers
            raise error
        return answers

    def apply_mutations(self, ops: Sequence) -> int:
        """Mutate the underlying table (insert / delete / update batch).

        Mutations are an *operator* action, not a search-form one: they
        are never billed and advance :attr:`data_version` by one per
        non-empty batch.  The serving engine notices the new version on
        the next query and rebuilds its rank state, so answers before
        and after the batch are each internally consistent.
        """
        apply = getattr(self._table, "apply_mutations", None)
        if apply is None:
            raise HiddenDBError(
                f"table {type(self._table).__name__} does not support "
                "mutations"
            )
        return int(apply(ops))

    # ------------------------------------------------------------------
    # experiment plumbing
    # ------------------------------------------------------------------
    def reset(self, budget: int | None | object = KEEP_BUDGET) -> None:
        """Clear the query counter; optionally change the budget.

        ``reset()`` keeps the current budget, ``reset(budget=n)`` installs a
        new one and ``reset(budget=None)`` removes the limit entirely (the
        :data:`KEEP_BUDGET` sentinel is what makes ``None`` expressible).
        """
        self._count = 0
        if budget is not KEEP_BUDGET:
            if budget is not None and not isinstance(budget, int):
                raise TypeError(f"budget must be an int or None, got {budget!r}")
            if budget is not None and budget < 0:
                raise ValueError(f"budget must be >= 0, got {budget}")
            self._budget = budget

    def __repr__(self) -> str:
        return (
            f"TopKInterface(n={self._table.n}, k={self._k}, "
            f"issued={self._count}, budget={self._budget})"
        )
