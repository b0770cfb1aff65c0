"""PQ-2D-SKY: instance-optimal skyline discovery for 2-D point interfaces (§5.1).

With only equality predicates available, the algorithm works through *1-D
line queries* (``x = v`` or ``y = v``).  Because all tuples sharing an
``x``-value form a chain in the dominance order, a domination-consistent
ranking must return the best of them first -- the "guaranteed single skyline
return" property that makes 2-D discovery instance-optimal.

State is a worklist of disjoint rectangles of still-unknown space.  For a
rectangle with width ``w`` and height ``h`` the algorithm queries along the
narrow side (``x = x_lo`` when ``w < h``, else ``y = y_lo``); each answer
either finds a new skyline tuple (shrinking the rectangle in both
dimensions) or proves a full line empty (shrinking by one).  The total cost
matches Eq. (11) of the paper:

    C = sum_i min(t_{i+1}[x] - t_i[x], t_i[y] - t_{i+1}[y])

over adjacent skyline tuples extended by the two domain corners (plus the
initial ``SELECT *``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hiddendb.attributes import InterfaceKind
from ..hiddendb.query import Query
from .base import DiscoverySession
from .registry import DiscoveryConfig, register_algorithm

ALGORITHM_NAME = "PQ-2D-SKY"


@dataclass
class _Rect:
    """An inclusive rectangle of unexplored space (preference coordinates)."""

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    @property
    def alive(self) -> bool:
        return self.x_lo <= self.x_hi and self.y_lo <= self.y_hi

    @property
    def width(self) -> int:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> int:
        return self.y_hi - self.y_lo


def pq_2d_sky(session: DiscoverySession) -> None:
    """Run PQ-2D-SKY (Algorithm 3 of the paper) inside ``session``.

    Requires a schema with exactly two ranking attributes.  Line queries are
    issued on the full database; the session records every retrieved tuple,
    and the final skyline is extracted by the session's dominance filter.
    """
    schema = session.schema
    if schema.m != 2:
        raise ValueError(
            f"PQ-2D-SKY requires exactly 2 ranking attributes, got {schema.m}"
        )
    x_max = schema.ranking_attributes[0].max_value
    y_max = schema.ranking_attributes[1].max_value

    first = session.issue(Query.select_all())
    if first.is_empty:
        return
    if not first.overflow:
        return  # the whole database fit in one answer
    x1, y1 = first.top.values
    # The remaining candidate space splits into two disconnected rectangles:
    # strictly better on x (worse on y), and strictly better on y (worse on
    # x).  Everything else is either provably empty (it would dominate the
    # returned top tuple) or dominated by it.  Each rectangle's exploration
    # is a self-contained chain of line queries (a step inspects only its
    # own rectangle plus its own answer), so the two chains are routed as
    # independent callback chains through one LIFO frontier: the serial
    # strategy finishes the second rectangle first -- the historical stack
    # order -- while the concurrent strategy keeps one line query of *each*
    # rectangle in flight.
    rectangles = [
        _Rect(0, x1 - 1, y1 + 1, y_max),
        _Rect(x1 + 1, x_max, 0, y1 - 1),
    ]
    frontier = session.frontier(lifo=True)
    for rect in rectangles:
        if rect.alive:
            _advance(frontier, rect)
    frontier.drain()


def _advance(frontier, rect: _Rect) -> None:
    """Queue the next line query of ``rect``'s chain (if it is still alive)."""
    if not rect.alive:
        return
    if rect.width < rect.height:
        query = Query.from_point({0: rect.x_lo})
        fold = _fold_column
    else:
        query = Query.from_point({1: rect.y_lo})
        fold = _fold_row

    def continue_chain(result, fold=fold) -> None:
        fold(rect, result)
        _advance(frontier, rect)

    frontier.add(query, continue_chain)


def _fold_column(rect: _Rect, result) -> None:
    """Shrink ``rect`` from the answer to its ``x = rect.x_lo`` query."""
    if result.is_empty:
        rect.x_lo += 1
        return
    y_found = result.top.values[1]
    if y_found > rect.y_hi:
        # The best tuple of this column lies above the rectangle, i.e. it is
        # dominated by a previously found skyline tuple: the column holds no
        # skyline candidate.
        rect.x_lo += 1
        return
    # result.top is a new skyline tuple: nothing in the already-explored
    # space can dominate it (see §5.1).  Cells left of it in the column are
    # proven empty, cells right/above are dominated.
    rect.x_lo += 1
    rect.y_hi = y_found - 1


def _fold_row(rect: _Rect, result) -> None:
    """Shrink ``rect`` from the answer to its ``y = rect.y_lo`` query."""
    if result.is_empty:
        rect.y_lo += 1
        return
    x_found = result.top.values[0]
    if x_found > rect.x_hi:
        rect.y_lo += 1
        return
    rect.y_lo += 1
    rect.x_hi = x_found - 1


@register_algorithm(
    "pq2d",
    display_name=ALGORITHM_NAME,
    # Point predicates are expressible through every interface kind, so any
    # 2-attribute ranking schema qualifies.
    kinds=(InterfaceKind.PQ, InterfaceKind.SQ, InterfaceKind.RQ),
    capabilities=("anytime", "complete", "instance-optimal"),
    summary="Instance-optimal 1-D line queries for 2-attribute schemas (§5.1)",
    requires=lambda schema: schema.m == 2,
    # Never auto-dispatched: the "pq" spec already runs this algorithm on
    # 2-D point schemas; select it by name to force the rectangle-worklist
    # implementation on any 2-attribute schema.
)
def _run_pq2d(session: DiscoverySession, config: DiscoveryConfig) -> None:
    """PQ-2D-SKY under the facade."""
    pq_2d_sky(session)
