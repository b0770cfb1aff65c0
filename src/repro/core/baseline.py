"""BASELINE: crawl the whole database, then extract the skyline locally.

The paper compares every discovery algorithm against the obvious alternative:
crawl all ``n`` tuples through the top-k interface with a state-of-the-art
crawler (Sheng et al., VLDB 2012 [22]), then compute the skyline over the
local copy.  Crawling needs two-ended ranges: whenever a query overflows,
its region is split into two disjoint subregions (``A <= v`` / ``A >= v+1``)
around the median returned value of the widest range attribute.  Point
attributes split by value enumeration instead.  The query cost is
``Theta(m * n / k)``-ish in practice -- orders of magnitude above skyline
discovery, which is exactly the gap Figures 13, 22 and 24 report.

BASELINE has **no anytime property** for the skyline: a tuple can only be
confirmed on the skyline once the entire crawl finishes.  The
:class:`~repro.core.base.DiscoveryResult` trace still records first-retrieval
costs so the figures can plot both curves on the same axes.
"""

from __future__ import annotations

from ..hiddendb.attributes import InterfaceKind
from ..hiddendb.query import Query
from .base import DiscoverySession
from .registry import DiscoveryConfig, register_algorithm

ALGORITHM_NAME = "BASELINE"


def crawl_all(session: DiscoverySession, root: Query | None = None) -> bool:
    """Crawl every tuple matching ``root`` (default: the whole database).

    Returns ``True`` when the crawl is provably complete; ``False`` when some
    region could not be subdivided further (more than ``k`` tuples share one
    exact value combination, which the top-k interface cannot enumerate).

    The region subdivisions are expanded through a LIFO
    :class:`~repro.core.engine.Frontier`: each split depends only on its
    own region's answer, so sibling regions crawl concurrently under the
    concurrent strategy while the serial strategy reproduces the historical
    depth-first stack order exactly.
    """
    schema = session.schema
    sizes = schema.domain_sizes
    kinds = [attribute.kind for attribute in schema.ranking_attributes]
    state = {"complete": True}
    frontier = session.frontier(lifo=True)

    def expand(query: Query, result) -> None:
        if not result.overflow:
            return
        split = _split_region(query, result, kinds, sizes)
        if split is None:
            state["complete"] = False
            return
        for piece in split:
            frontier.add(piece, lambda res, q=piece: expand(q, res))

    root_query = root if root is not None else Query.select_all()
    frontier.add(root_query, lambda res: expand(root_query, res))
    frontier.drain()
    return state["complete"]


def _split_region(
    query: Query,
    result,
    kinds: list[InterfaceKind],
    sizes: tuple[int, ...],
) -> list[Query] | None:
    """Split an overflowing region into disjoint, strictly smaller pieces.

    Two-ended attributes split binarily at the median returned value; one-
    ended and point attributes can only be subdivided by value enumeration
    (``A = v`` is supported by every interface kind).  Returns ``None`` when
    every attribute interval is already a single value.
    """
    intervals = {
        index: query.interval(index, sizes[index]) for index in range(len(sizes))
    }
    two_ended = [
        index
        for index, kind in enumerate(kinds)
        if kind is InterfaceKind.RQ and intervals[index].width > 1
    ]
    if two_ended:
        # Widest two-ended attribute, split at the median observed value so
        # each side excludes at least part of the returned answer.
        chosen = max(two_ended, key=lambda index: intervals[index].width)
        interval = intervals[chosen]
        observed = sorted(row.values[chosen] for row in result.rows)
        middle = len(observed) // 2
        if len(observed) % 2:
            pivot = observed[middle]
        else:
            # The median's integer part: domain values are non-negative,
            # so floor division truncates the mean of the middle two.
            pivot = (observed[middle - 1] + observed[middle]) // 2
        pivot = min(max(pivot, interval.lo), interval.hi - 1)
        left = query.and_upper(chosen, pivot)
        right = query.and_lower(chosen, pivot + 1, sizes[chosen])
        assert left is not None and right is not None
        return [left, right]
    enumerable = [
        index
        for index, interval in intervals.items()
        if interval.width > 1
    ]
    if not enumerable:
        return None
    # Cheapest enumeration: the attribute with the fewest remaining values.
    chosen = min(enumerable, key=lambda index: intervals[index].width)
    interval = intervals[chosen]
    pieces = []
    for value in range(interval.lo, interval.hi + 1):
        piece = query.and_point(chosen, value)
        assert piece is not None
        pieces.append(piece)
    return pieces


@register_algorithm(
    "baseline",
    display_name=ALGORITHM_NAME,
    kinds=(InterfaceKind.SQ, InterfaceKind.RQ, InterfaceKind.PQ),
    capabilities=("complete",),
    summary="Crawl everything, then compute the skyline locally (Sheng'12)",
    # Never auto-dispatched: it exists as the comparison yardstick.
)
def _run_baseline(session: DiscoverySession, config: DiscoveryConfig) -> None:
    """BASELINE under the facade.

    The result is incomplete when the budget ran out *or* some region could
    not be subdivided further (> k tuples sharing one value combination).
    """
    if not crawl_all(session):
        session.mark_incomplete()
