"""SQ-DB-SKY: skyline discovery through one-ended range interfaces (§3).

The algorithm is an iterative divide-and-conquer over a *query tree*: the
root is ``SELECT *``; whenever a query ``q`` overflows after returning top
tuple ``t``, it spawns ``m`` children, the ``i``-th appending the predicate
``A_i < t[A_i]``.  Every skyline tuple matching ``q`` must beat ``t`` on some
attribute, hence matches at least one child -- which gives completeness
(Theorem 2).  Because each query region is downward-closed, any returned
tuple not dominated by another tuple in the same answer is guaranteed to be a
skyline tuple, so discovery is *anytime*.

Query cost is worst-case ``O(m * |S|^(m+1))`` but only ``(e + e|S|/m)^m``
expected under the random-ranking model (§3.2); see
:mod:`repro.core.analysis` for the closed forms.
"""

from __future__ import annotations

from typing import Sequence

from ..hiddendb.attributes import InterfaceKind
from ..hiddendb.query import Query
from .base import DiscoverySession
from .registry import DiscoveryConfig, register_algorithm

ALGORITHM_NAME = "SQ-DB-SKY"


def sq_db_sky(
    session: DiscoverySession,
    branch_attributes: Sequence[int] | None = None,
    root: Query | None = None,
) -> None:
    """Run SQ-DB-SKY (Algorithm 1 of the paper) inside ``session``.

    Parameters
    ----------
    session:
        Discovery session wrapping the top-k interface.
    branch_attributes:
        Ranking-attribute indices the tree branches on; defaults to all
        ranking attributes.  MQ-DB-SKY restricts this to the range-predicate
        attributes.
    root:
        Query at the tree root (defaults to ``SELECT *``).  Used by the
        skyband extension to explore a subspace.

    Notes
    -----
    Children whose appended predicate is syntactically empty (``A_i < 0``,
    i.e. "better than the best domain value") are skipped without being
    issued -- a real search form cannot even express them.

    The tree is expanded through a :class:`~repro.core.engine.Frontier`: a
    node's children depend only on that node's own answer (its pivot), so
    every queued query is independent of its siblings and the concurrent
    strategy may hold a whole wave of them in flight.  The FIFO frontier
    order reproduces the breadth-first traversal of Algorithm 1 exactly.
    """
    schema = session.schema
    if branch_attributes is None:
        branch_attributes = range(schema.m)
    branch_attributes = tuple(branch_attributes)
    frontier = session.frontier()

    def expand(query: Query, result) -> None:
        if result.is_empty or not result.overflow:
            # Valid or underflowing answer: leaf node.  All matching tuples
            # were returned (Section 2.1), nothing below to explore.
            return
        pivot = result.top
        for attribute in branch_attributes:
            child = query.and_upper(attribute, pivot[attribute] - 1)
            if child is not None:
                frontier.add(
                    child, lambda res, q=child: expand(q, res)
                )

    root_query = root if root is not None else Query.select_all()
    frontier.add(root_query, lambda res: expand(root_query, res))
    frontier.drain()


@register_algorithm(
    "sq",
    display_name=ALGORITHM_NAME,
    kinds=(InterfaceKind.SQ, InterfaceKind.RQ),
    capabilities=("anytime", "complete"),
    summary="Overlapping query tree over one-ended range predicates (§3)",
    # Auto-dispatched only for pure one-ended schemas: RQ-DB-SKY takes
    # over as soon as one attribute is two-ended.
    dispatch=lambda schema: not schema.indices_of_kind(InterfaceKind.RQ)
    and not schema.indices_of_kind(InterfaceKind.PQ),
    priority=30,
)
def _run_sq(session: DiscoverySession, config: DiscoveryConfig) -> None:
    """SQ-DB-SKY under the facade; honours the ``branch_attributes`` option."""
    sq_db_sky(session, config.option("branch_attributes"))
