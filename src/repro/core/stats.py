"""Query-log analytics for discovery runs.

A real scraping campaign cares not only about the total query count but
about *how* the budget was spent: how many queries came back empty, how
deep the conjunctions went, how much of the answer stream was redundant.
:func:`summarize_session` folds the query log of a session built with
``record_log=True`` into a :class:`QueryLogSummary`; the experiment
front-ends and examples use it to explain cost differences between
algorithms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from ..hiddendb.interface import QueryResult
from .base import DiscoverySession


@dataclass(frozen=True)
class QueryLogSummary:
    """Aggregate statistics over one discovery session's query log."""

    total_queries: int
    empty_answers: int  #: queries returning no tuple
    overflowing_answers: int  #: queries returning exactly k tuples
    underflowing_answers: int  #: non-empty answers below k (fully resolved)
    rows_returned: int  #: total tuples across all answers (with repeats)
    distinct_rows: int  #: distinct tuples retrieved
    redundant_rows: int  #: answer slots occupied by already-seen tuples
    max_predicates: int  #: deepest conjunction issued
    predicate_histogram: dict[int, int]  #: #predicates -> #queries

    @property
    def empty_fraction(self) -> float:
        """Fraction of the budget spent on empty answers."""
        if self.total_queries == 0:
            return 0.0
        return self.empty_answers / self.total_queries

    @property
    def redundancy(self) -> float:
        """Fraction of returned tuples that were already known.

        High redundancy is the signature of SQ-DB-SKY's overlapping
        branches; RQ-DB-SKY's mutually exclusive queries drive it down.
        """
        if self.rows_returned == 0:
            return 0.0
        return self.redundant_rows / self.rows_returned

    def as_rows(self) -> list[dict]:
        """Tabular form for the experiment reporters."""
        return [
            {"metric": "total queries", "value": self.total_queries},
            {"metric": "empty answers", "value": self.empty_answers},
            {"metric": "overflowing answers", "value": self.overflowing_answers},
            {"metric": "underflowing answers", "value": self.underflowing_answers},
            {"metric": "distinct tuples", "value": self.distinct_rows},
            {"metric": "redundant answer slots", "value": self.redundant_rows},
            {"metric": "redundancy", "value": round(self.redundancy, 3)},
            {"metric": "max predicates", "value": self.max_predicates},
        ]


def summarize_session(session: DiscoverySession) -> QueryLogSummary:
    """Fold ``session``'s query log into a :class:`QueryLogSummary`.

    The session keeps a log only when built with ``record_log=True``; an
    unlogged session has an empty log and summarizes as no queries.
    """
    return summarize_log(session.log)


def summarize_log(log: Sequence[QueryResult]) -> QueryLogSummary:
    """Fold a query/answer log into a :class:`QueryLogSummary`.

    Accepts any result sequence -- a session's ``log``, or the
    ``query_log`` a facade run attaches when ``record_log`` is set.
    """
    empty = overflow = underflow = 0
    rows_returned = 0
    seen: set[int] = set()
    redundant = 0
    predicate_histogram: Counter[int] = Counter()
    max_predicates = 0
    for result in log:
        depth = result.query.num_predicates
        predicate_histogram[depth] += 1
        max_predicates = max(max_predicates, depth)
        if result.is_empty:
            empty += 1
        elif result.overflow:
            overflow += 1
        else:
            underflow += 1
        for row in result.rows:
            rows_returned += 1
            if row.rid in seen:
                redundant += 1
            else:
                seen.add(row.rid)
    return QueryLogSummary(
        total_queries=len(log),
        empty_answers=empty,
        overflowing_answers=overflow,
        underflowing_answers=underflow,
        rows_returned=rows_returned,
        distinct_rows=len(seen),
        redundant_rows=redundant,
        max_predicates=max_predicates,
        predicate_histogram=dict(predicate_histogram),
    )
