"""PQ-DB-SKY: skyline discovery for higher-dimensional point interfaces (§5.3).

No instance-optimal algorithm exists beyond two dimensions (§5.2), so
PQ-DB-SKY is a greedy decomposition: it selects the two ranking attributes
with the **largest domains** as the plane (their sizes contribute additively
to the cost; the remaining attributes contribute multiplicatively) and runs
the pruned-plane subroutine :mod:`repro.core.pqsub` once per value
combination of the remaining attributes.

Planes are visited in ascending order of the combination's coordinate sum --
a linear extension of the dominance order over combinations -- so every
potential dominator of a plane's tuples lives in an earlier plane.  This
ordering both maximises pruning and gives the *anytime* property: a plane
tuple that survives the already-discovered set is on the final skyline.

Execution-engine note: the plane sweep is inherently sequential -- whether
a plane is explored at all, and which line query its exploration issues
next, depend on the tuples retrieved from *earlier* planes (the witness /
domination pruning rules), so no two queries are independent and the
frontier degenerates to synchronous fetches.  The engine's memoization,
stats and budget handling still apply to every issued query.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from ..hiddendb.attributes import InterfaceKind
from ..hiddendb.interface import QueryResult
from ..hiddendb.query import Query
from .base import DiscoverySession
from .pqsub import PlaneState, explore_plane
from .registry import DiscoveryConfig, register_algorithm

ALGORITHM_NAME = "PQ-DB-SKY"

#: Refuse to enumerate more planes than this (product of non-plane domains).
DEFAULT_PLANE_LIMIT = 1_000_000


def choose_plane_attributes(domain_sizes: Sequence[int]) -> tuple[int, int]:
    """The two attributes spanning the planes: largest domains first.

    Domain sizes of the plane pair contribute additively to the query cost
    while every other attribute contributes multiplicatively (Eq. 14), so
    the pair with the largest domains minimises the bound.
    """
    if len(domain_sizes) < 2:
        raise ValueError("need at least 2 ranking attributes")
    order = sorted(
        range(len(domain_sizes)), key=lambda i: (-domain_sizes[i], i)
    )
    first, second = sorted(order[:2])
    return first, second


def plane_combinations(
    domain_sizes: Sequence[int], others: Sequence[int]
) -> list[tuple[int, ...]]:
    """All value combinations of the non-plane attributes, best planes first.

    Sorted by coordinate sum: if combination ``a`` dominates ``b``
    component-wise then ``sum(a) < sum(b)``, so dominators always come first.
    """
    spaces = [range(domain_sizes[attribute]) for attribute in others]
    return sorted(itertools.product(*spaces), key=lambda combo: (sum(combo), combo))


def _prune_from_covering_results(
    state: PlaneState,
    covering: Sequence[QueryResult],
    combo: tuple[int, ...],
    others: Sequence[int],
    x_attr: int,
    y_attr: int,
) -> None:
    """Apply the witness rule from queries that contain this plane."""
    for result in covering:
        for row in result.rows:
            if all(row.values[o] >= combo[j] for j, o in enumerate(others)):
                state.close_witness_rect(row.values[x_attr], row.values[y_attr])


def _prune_from_retrieved(
    state: PlaneState,
    session: DiscoverySession,
    combo: tuple[int, ...],
    others: Sequence[int],
    x_attr: int,
    y_attr: int,
) -> None:
    """Apply the domination rule from every tuple retrieved so far."""
    for row in session.retrieved_rows:
        values = row.values
        if all(values[o] <= combo[j] for j, o in enumerate(others)):
            in_plane = all(values[o] == combo[j] for j, o in enumerate(others))
            state.add_dominator(values[x_attr], values[y_attr], in_plane,
                                rid=row.rid)


def pq_db_sky(
    session: DiscoverySession,
    plane_attributes: tuple[int, int] | None = None,
    plane_limit: int = DEFAULT_PLANE_LIMIT,
    band: int = 1,
    covering_results: Sequence[QueryResult] | None = None,
) -> None:
    """Run PQ-DB-SKY (Algorithm 5 of the paper) inside ``session``.

    Parameters
    ----------
    session:
        Discovery session wrapping the top-k interface.
    plane_attributes:
        Override the plane-selection heuristic (used by the ablation bench).
    plane_limit:
        Safety cap on the number of planes to enumerate.
    band:
        Skyband depth; 1 discovers the plain skyline.
    covering_results:
        Additional already-issued query results whose queries contain every
        plane (used by MQ-DB-SKY); the initial ``SELECT *`` is always used.
    """
    schema = session.schema
    m = schema.m
    sizes = schema.domain_sizes
    if m == 1:
        _scan_single_attribute(session, band)
        return
    first = session.issue(Query.select_all())
    if first.is_empty or not first.overflow:
        return
    if m == 2 and band == 1:
        # Delegate to the instance-optimal 2-D algorithm; replay its answer
        # so the initial SELECT * is not issued twice.
        _pq_2d_from_first(session, first)
        return
    if plane_attributes is None:
        x_attr, y_attr = choose_plane_attributes(sizes)
    else:
        x_attr, y_attr = plane_attributes
        if x_attr == y_attr:
            raise ValueError("plane attributes must differ")
    others = [i for i in range(m) if i not in (x_attr, y_attr)]
    total_planes = math.prod(sizes[o] for o in others) if others else 1
    if total_planes > plane_limit:
        raise ValueError(
            f"{total_planes} planes exceed plane_limit={plane_limit}; "
            "PQ-DB-SKY is exponential in the non-plane attributes"
        )
    covering = [first]
    if covering_results:
        covering = list(covering_results) + covering
    for combo in plane_combinations(sizes, others):
        state = PlaneState(sizes[x_attr], sizes[y_attr], band=band)
        _prune_from_covering_results(
            state, covering, combo, others, x_attr, y_attr
        )
        _prune_from_retrieved(state, session, combo, others, x_attr, y_attr)
        if not state.any_alive():
            continue
        plane_query = Query.from_point(dict(zip(others, combo)))
        explore_plane(session, state, plane_query, x_attr, y_attr)


def _pq_2d_from_first(session: DiscoverySession, first: QueryResult) -> None:
    """Finish a 2-attribute database via plane exploration of the single
    (trivial) plane, seeded with the already-issued ``SELECT *`` answer."""
    sizes = session.schema.domain_sizes
    state = PlaneState(sizes[0], sizes[1], band=1)
    for row in first.rows:
        state.close_witness_rect(row.values[0], row.values[1])
        state.add_dominator(row.values[0], row.values[1], in_plane=True,
                            rid=row.rid)
    explore_plane(session, state, Query.select_all(), 0, 1)


def _scan_single_attribute(session: DiscoverySession, band: int) -> None:
    """Degenerate 1-D case: probe values in preference order.

    The skyline of a 1-attribute database is the set of tuples holding the
    best occupied value; the K-skyband additionally needs the next values
    until ``band`` dominators are known.
    """
    attribute = session.schema.ranking_attributes[0]
    dominators = 0
    for value in range(attribute.domain_size):
        if dominators >= band:
            return
        result = session.issue(Query.from_point({0: value}))
        if result.is_empty:
            continue
        if result.overflow:
            # At least k tuples share this value; for band <= k that is
            # enough to close every worse value.
            dominators += session.k
        else:
            dominators += len(result.rows)


@register_algorithm(
    "pq",
    display_name=ALGORITHM_NAME,
    kinds=(InterfaceKind.PQ,),
    capabilities=("anytime", "complete"),
    summary="Greedy plane decomposition over point predicates (§5.3)",
    dispatch=lambda schema: True,  # applicable == pure point schema
    priority=20,
    # A 2-attribute schema runs the instance-optimal 2-D algorithm (see
    # pq_db_sky) and reports its name.
    display_for=lambda schema: "PQ-2D-SKY" if schema.m == 2 else ALGORITHM_NAME,
)
def _run_pq(session: DiscoverySession, config: DiscoveryConfig) -> None:
    """PQ-DB-SKY under the facade; options: ``plane_attributes``,
    ``plane_limit``."""
    pq_db_sky(
        session,
        plane_attributes=config.option("plane_attributes"),
        plane_limit=config.option("plane_limit", DEFAULT_PLANE_LIMIT),
    )
