"""MQ-DB-SKY: skyline discovery over mixed SQ / RQ / PQ interfaces (§6).

The algorithm composes the range and point machinery:

1. **Range phase.**  Run the range-tree traversal (RQ-DB-SKY restricted to
   the range-predicate attributes, with exclusion predicates only on the
   two-ended ones) while leaving the point attributes unconstrained.  Every
   tuple it confirms is a true skyline tuple, but tuples that are
   *range-dominated* by a discovered tuple -- yet beat it on a point
   attribute -- are missed.
2. **Pruned point phase.**  Any missed skyline tuple ``t`` satisfies
   ``t[A_j] >= min_{s in S} s[A_j]`` on every two-ended range attribute
   (predicate ``P``, Eq. 17) and beats some discovered tuple on some point
   attribute ``B_i``.  The algorithm therefore issues
   ``P AND B_i = v`` for every point attribute and every value
   ``v < max_{s in S} s[B_i]``; underflowing answers certify their region,
   while overflowing ones are refined point attribute by point attribute and
   finally resolved by a range-tree rooted at the fully point-specified
   query.

When the schema has no point attributes this degenerates to RQ-DB-SKY's
range tree, and with no range attributes to PQ-DB-SKY -- MQ-DB-SKY runs on
every schema, and auto-dispatch (:meth:`repro.Discoverer.run`) falls back
to it when no more specific algorithm applies.
"""

from __future__ import annotations

from typing import Sequence

from ..hiddendb.attributes import InterfaceKind
from ..hiddendb.query import Query
from .base import DiscoverySession
from .pq import pq_db_sky
from .registry import DiscoveryConfig, register_algorithm
from .rq import rq_db_sky

ALGORITHM_NAME = "MQ-DB-SKY"


def _interface_partition(
    schema,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Ranking-attribute indices split into (one-ended, two-ended, point)."""
    sq = schema.indices_of_kind(InterfaceKind.SQ)
    rq = schema.indices_of_kind(InterfaceKind.RQ)
    pq = schema.indices_of_kind(InterfaceKind.PQ)
    return sq, rq, pq


def _range_branch_order(
    sq_attrs: Sequence[int], rq_attrs: Sequence[int]
) -> tuple[int, ...]:
    """Branch two-ended attributes before one-ended ones.

    Exclusion (``>=``) predicates are attached to a branch for every
    *earlier* two-ended branch attribute, so fronting the two-ended
    attributes maximises the mutual exclusivity the tree can express --
    the "simple revision of RQ-DB-SKY which leverages the availability of
    '>' predicates on only the attributes that support two-ended ranges"
    (§6.3).
    """
    return tuple(rq_attrs) + tuple(sq_attrs)


def mq_db_sky(session: DiscoverySession) -> None:
    """Run MQ-DB-SKY (Algorithm 6 of the paper) inside ``session``."""
    schema = session.schema
    sq_attrs, rq_attrs, pq_attrs = _interface_partition(schema)
    range_attrs = _range_branch_order(sq_attrs, rq_attrs)
    if not range_attrs:
        pq_db_sky(session)
        return
    if not pq_attrs:
        rq_db_sky(session, branch_attributes=range_attrs, two_ended=rq_attrs)
        return

    # Phase 1: range discovery, point attributes left unconstrained.
    rq_db_sky(session, branch_attributes=range_attrs, two_ended=rq_attrs)
    discovered = session.confirmed_skyline()
    if not discovered:
        return

    # Phase 2: chase range-dominated skyline tuples through the point
    # attributes, under the pruning predicate P of Eq. (17).  The
    # enumeration is unconditional -- every ``P AND B_i = v`` query below
    # the per-attribute ceiling is issued regardless of the others'
    # answers -- so the whole sweep goes through one frontier and a
    # concurrent strategy overlaps the point probes; only the *resolution*
    # of an overflowing probe (which ends in a state-dependent range tree)
    # runs synchronously inside its expansion callback.
    domain_sizes = schema.domain_sizes
    pruning = Query.select_all()
    for attribute in rq_attrs:
        floor = min(row.values[attribute] for row in discovered)
        if floor > 0:
            refined = pruning.and_lower(attribute, floor, domain_sizes[attribute])
            assert refined is not None  # floor is within the domain
            pruning = refined
    frontier = session.frontier()
    for point_attribute in pq_attrs:
        ceiling = max(row.values[point_attribute] for row in discovered)
        free = tuple(p for p in pq_attrs if p != point_attribute)
        for value in range(ceiling):
            query = pruning.and_point(point_attribute, value)
            assert query is not None  # pruning never touches point attributes

            def on_probe(result, query=query, free=free) -> None:
                if result.overflow:
                    _resolve_overflow(
                        session, query, free, range_attrs, rq_attrs
                    )

            frontier.add(query, on_probe)
    frontier.drain()


def _resolve_overflow(
    session: DiscoverySession,
    query: Query,
    free_point_attrs: Sequence[int],
    range_attrs: Sequence[int],
    rq_attrs: Sequence[int],
) -> None:
    """Exhaust an overflowing phase-2 region.

    Point attributes are fixed one at a time (the paper's recursive plane
    partitioning, with early termination on underflow); once every point
    attribute is pinned, any tuple still hidden must be on the *range*
    skyline of the region -- all point values being equal, a range dominator
    is a full dominator -- so a range-tree rooted at the query finds it.
    """
    if free_point_attrs:
        next_attribute = free_point_attrs[0]
        remaining = free_point_attrs[1:]
        domain = session.schema.ranking_attributes[next_attribute].domain_size
        # Value enumeration is unconditional at every level, so each level
        # gets its own (nested) frontier; deeper recursion stays inside the
        # expansion callbacks, preserving the serial refinement order.
        frontier = session.frontier()
        for value in range(domain):
            refined = query.and_point(next_attribute, value)
            if refined is None:
                continue

            def on_refined(result, refined=refined) -> None:
                if result.overflow:
                    _resolve_overflow(
                        session, refined, remaining, range_attrs, rq_attrs
                    )

            frontier.add(refined, on_refined)
        frontier.drain()
        return
    if range_attrs:
        rq_db_sky(
            session,
            branch_attributes=range_attrs,
            two_ended=rq_attrs,
            root=query,
        )
    # With neither free point attributes nor range attributes the query is
    # fully specified; an overflow means > k duplicated value vectors, which
    # a top-k interface fundamentally cannot enumerate further (the paper's
    # general-positioning assumption rules this out).


@register_algorithm(
    "mq",
    display_name=ALGORITHM_NAME,
    kinds=(InterfaceKind.SQ, InterfaceKind.RQ, InterfaceKind.PQ),
    capabilities=("anytime", "complete"),
    summary="Range phase plus pruned point chase for mixed interfaces (§6)",
    dispatch=lambda schema: True,  # the universal fallback
    priority=0,
)
def _run_mq(session: DiscoverySession, config: DiscoveryConfig) -> None:
    """MQ-DB-SKY under the facade."""
    mq_db_sky(session)
