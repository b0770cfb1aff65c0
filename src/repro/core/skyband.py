"""K-skyband discovery extensions (§7.2).

A tuple is in the top-K skyband iff fewer than ``K`` other tuples dominate
it; the skyline is the ``K = 1`` special case.  The paper extends each
discovery algorithm differently:

* **RQ** -- a tuple on band level ``h`` (but not ``h - 1``) is a skyline
  tuple of the *domination subspace* of some tuple on band level ``h - 1``.
  The subspace ``{u : u dominated by t}`` is expressible through two-ended
  ranges as ``m`` disjoint conjunctive roots, so the extension re-runs the
  range tree once per band tuple.
* **PQ** -- the plane machinery already tracks per-cell dominator *counts*;
  a cell stays alive until ``K`` dominators are known, with fully-specified
  point queries resolving lines deeper than the interface's ``k``.
* **SQ** -- provably hard: one-ended queries alone can never surface a
  dominated tuple, so the best-effort extension branches on answer tuples
  that are dominated by ``K - 1`` others *within the same answer* (needs a
  generous interface ``k``) and otherwise reports the discovery as partial.

Each extension is a body ``(session, band) -> None``, like an algorithm's
``run(session, config)``: it issues queries through the session and returns
nothing.  :meth:`Discoverer.skyband <repro.core.facade.Discoverer.skyband>`
is the one way to run one; it owns the session lifecycle and reports a
:class:`SkybandResult`, whose membership is decided by counting dominators
among the retrieved tuples -- sound because every dominator of a band tuple
lies in a lower band and is therefore retrieved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..hiddendb.attributes import InterfaceKind
from ..hiddendb.interface import QueryResult
from ..hiddendb.query import Query
from ..hiddendb.table import Row
from .base import DiscoverySession
from .dominance import dominator_counts, skyband_of_rows
from .pq import pq_db_sky
from .registry import attach_skyband
from .rq import rq_db_sky
from . import sq as _sq  # noqa: F401  (registers "sq" before attachment)

if TYPE_CHECKING:  # pragma: no cover - types only
    from .engine import EngineStats
    from .registry import AlgorithmInfo, DiscoveryConfig


@dataclass(frozen=True)
class SkybandResult:
    """Outcome of a K-skyband discovery run."""

    algorithm: str
    band: int
    skyband: tuple[Row, ...]
    total_cost: int
    retrieved: tuple[Row, ...]
    complete: bool
    #: Run configuration (:meth:`Discoverer.skyband` always sets it).
    config: "DiscoveryConfig | None" = None
    #: Registry metadata of the algorithm that produced this result.
    info: "AlgorithmInfo | None" = None
    #: Full query/answer log (populated when ``config.record_log`` is set).
    query_log: tuple[QueryResult, ...] = field(default=(), repr=False)
    #: Execution-engine counters of the run; ``stats.deduped`` reports how
    #: many cross-subspace repeats the shared memoizer absorbed.
    stats: "EngineStats | None" = None

    @property
    def skyband_values(self) -> frozenset[tuple[int, ...]]:
        """The skyband as a set of value vectors."""
        return frozenset(row.values for row in self.skyband)

    def __repr__(self) -> str:
        return (
            f"SkybandResult({self.algorithm}, K={self.band}: "
            f"|band|={len(self.skyband)}, cost={self.total_cost}, "
            f"complete={self.complete})"
        )


# ----------------------------------------------------------------------
# RQ extension
# ----------------------------------------------------------------------
def _domination_subspace_roots(row: Row, domain_sizes: tuple[int, ...]) -> list[Query]:
    """Disjoint conjunctive roots covering exactly the tuples dominated by
    ``row`` (its domination subspace minus its own value combination).

    Root ``j`` pins ``A_i = row[A_i]`` for ``i < j``, requires
    ``A_j > row[A_j]`` and ``A_i >= row[A_i]`` for ``i > j``.
    """
    m = len(domain_sizes)
    roots: list[Query] = []
    for pivot_attr in range(m):
        query: Query | None = Query.select_all()
        for earlier in range(pivot_attr):
            query = query.and_point(earlier, row.values[earlier])
            assert query is not None
        query = query.and_lower(
            pivot_attr, row.values[pivot_attr] + 1, domain_sizes[pivot_attr]
        )
        if query is None:
            continue  # row already holds the worst value on this attribute
        for later in range(pivot_attr + 1, m):
            if row.values[later] > 0:
                query = query.and_lower(
                    later, row.values[later], domain_sizes[later]
                )
                assert query is not None
        roots.append(query)
    return roots


@attach_skyband(
    "rq",
    # Domination-subspace roots need point and lower-bound predicates on
    # every ranking attribute, i.e. two-ended ranges throughout.
    requires=lambda schema: all(
        a.kind is InterfaceKind.RQ for a in schema.ranking_attributes
    ),
)
def _rq_skyband(session: DiscoverySession, band: int) -> None:
    """Discover the top-``band`` skyband through a two-ended range interface.

    One range-tree run discovers the skyline; every confirmed band tuple of
    level ``< band`` then spawns range-tree runs over its domination
    subspace, surfacing the next level.  Total runs: ``|top-(K-1) band| + 1``
    (§7.2).
    """
    domain_sizes = session.schema.domain_sizes
    rq_db_sky(session)
    expanded: set[int] = set()
    while True:
        candidates = _expansion_candidates(session, band, expanded)
        if not candidates:
            break
        for row in candidates:
            expanded.add(row.rid)
            for root in _domination_subspace_roots(row, domain_sizes):
                rq_db_sky(session, root=root)


def _expansion_candidates(
    session: DiscoverySession, band: int, expanded: set[int]
) -> list[Row]:
    """Retrieved tuples on the top-(band-1) skyband not yet expanded."""
    if band == 1:
        return []
    retrieved = session.retrieved_rows
    frontier = skyband_of_rows(retrieved, band - 1)
    return [row for row in frontier if row.rid not in expanded]


# ----------------------------------------------------------------------
# PQ extension
# ----------------------------------------------------------------------
@attach_skyband("pq")
def _pq_skyband(session: DiscoverySession, band: int) -> None:
    """Discover the top-``band`` skyband through a point-predicate interface.

    Reuses the PQ plane machinery with dominator-count pruning: a plane cell
    survives until ``band`` dominators are known.  When the interface's ``k``
    is smaller than ``band``, overflowing line queries are drained with
    fully-specified point queries.
    """
    pq_db_sky(session, band=band)


# ----------------------------------------------------------------------
# SQ extension (best effort)
# ----------------------------------------------------------------------
@attach_skyband("sq")
def _sq_skyband(session: DiscoverySession, band: int) -> None:
    """Best-effort top-``band`` skyband through a one-ended range interface.

    Branches on an answer tuple dominated by ``band - 1`` others *within the
    answer* (so everything it dominates is provably outside the band).  When
    an overflowing answer contains no such tuple the subtree cannot be
    explored safely; the session is then marked incomplete -- the paper
    shows complete SQ skyband discovery degenerates to a full crawl in the
    worst case.
    """
    m = session.schema.m
    # Like SQ-DB-SKY, the branching pivot depends only on the node's own
    # answer, so the tree expands through a parallel-friendly frontier.
    frontier = session.frontier()

    def expand(query: Query, result) -> None:
        if result.is_empty or not result.overflow:
            return
        pivot = _band_pivot(result.rows, band)
        if pivot is None:
            session.mark_incomplete()
            return
        for attribute in range(m):
            child = query.and_upper(attribute, pivot[attribute] - 1)
            if child is not None:
                frontier.add(child, lambda res, q=child: expand(q, res))

    root = Query.select_all()
    frontier.add(root, lambda res: expand(root, res))
    frontier.drain()


def _band_pivot(rows: tuple[Row, ...], band: int) -> Row | None:
    """First answer tuple dominated by >= band - 1 other answer tuples."""
    if band == 1:
        return rows[0]
    counts = dominator_counts(
        np.array([row.values for row in rows], dtype=np.int64), cap=band - 1
    )
    hits = np.flatnonzero(counts >= band - 1)
    return rows[hits[0]] if hits.size else None


__all__ = ["SkybandResult"]
