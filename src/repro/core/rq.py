"""RQ-DB-SKY: skyline discovery through two-ended range interfaces (§4).

RQ-DB-SKY traverses the same conceptual tree as SQ-DB-SKY in depth-first
preorder, but exploits two-ended ranges in two ways:

* the ``m`` branches under a pivot tuple ``t`` can be made **mutually
  exclusive** -- branch ``i`` carries ``A_j >= t[A_j]`` for every earlier
  branch attribute ``j < i`` in addition to ``A_i < t[A_i]``;
* before issuing a node's one-ended query ``q``, the algorithm checks
  whether any previously *seen* tuple matches ``q``.  If so it issues the
  exclusive counterpart ``R(q)`` instead; an empty ``R(q)`` proves the whole
  subtree redundant and prunes it (**early termination**).

When ``R(q)`` returns a tuple dominated by an already-known tuple, children
are generated from the dominating tuple (Algorithm 2, line 11), keeping the
branching pivot on the skyline.

Worst-case cost is ``O(m * min(|S|^(m+1), n))`` -- unlike SQ-DB-SKY it can
never do asymptotically worse than crawling.

The same traversal, parameterised by *which* attributes support two-ended
ranges, doubles as the range phase of MQ-DB-SKY: exclusion predicates are
only attached to two-ended attributes (``two_ended``), so with
``two_ended=()`` the procedure degenerates to SQ-DB-SKY's overlapping tree
(modulo the seen-tuple check, which is then disabled because ``R(q)`` is not
expressible).
"""

from __future__ import annotations

from typing import Sequence

from ..hiddendb.attributes import InterfaceKind
from ..hiddendb.query import Query
from ..hiddendb.table import Row
from .base import DiscoverySession
from .dominance import dominates
from .registry import DiscoveryConfig, register_algorithm

ALGORITHM_NAME = "RQ-DB-SKY"


def _children(
    session: DiscoverySession,
    sq_query: Query,
    rq_query: Query,
    pivot: Row,
    branch_attributes: tuple[int, ...],
    two_ended: frozenset[int],
) -> list[tuple[Query, Query]]:
    """Generate the child nodes of a tree node under ``pivot``.

    Each child carries two forms: the one-ended ``sq`` form (used for the
    seen-tuple membership test) and the exclusive ``rq`` form (issued when a
    seen tuple already matches the ``sq`` form).
    """
    domain_sizes = session.schema.domain_sizes
    children: list[tuple[Query, Query]] = []
    for position, attribute in enumerate(branch_attributes):
        child_sq = sq_query.and_upper(attribute, pivot[attribute] - 1)
        if child_sq is None:
            continue  # branch predicate A_i < 0 is syntactically empty
        child_rq = rq_query.and_upper(attribute, pivot[attribute] - 1)
        for earlier in branch_attributes[:position]:
            if child_rq is None:
                break
            if earlier in two_ended and pivot[earlier] > 0:
                child_rq = child_rq.and_lower(
                    earlier, pivot[earlier], domain_sizes[earlier]
                )
        if child_rq is None:
            # The exclusive region is empty: everything under this branch was
            # already covered by earlier siblings, so the subtree is redundant.
            continue
        children.append((child_sq, child_rq))
    return children


def rq_db_sky(
    session: DiscoverySession,
    branch_attributes: Sequence[int] | None = None,
    two_ended: Sequence[int] | None = None,
    early_termination: bool = True,
    root: Query | None = None,
) -> None:
    """Run RQ-DB-SKY (Algorithm 2 of the paper) inside ``session``.

    Parameters
    ----------
    session:
        Discovery session wrapping the top-k interface.
    branch_attributes:
        Ranking-attribute indices the tree branches on (default: all).
    two_ended:
        Subset of ``branch_attributes`` supporting two-ended ranges; only
        these receive exclusion (``>=``) predicates.  Defaults to all branch
        attributes (the pure RQ-DB case).
    early_termination:
        The seen-tuple check of Algorithm 2 (line 3).  Disabling it is the
        ablation of DESIGN.md -- the traversal then issues every one-ended
        query like SQ-DB-SKY would.
    root:
        Query at the tree root; defaults to ``SELECT *``.
    """
    schema = session.schema
    if branch_attributes is None:
        branch_attributes = tuple(range(schema.m))
    branch_attributes = tuple(branch_attributes)
    if two_ended is None:
        two_ended_set = frozenset(branch_attributes)
    else:
        two_ended_set = frozenset(two_ended)
        if not two_ended_set <= set(branch_attributes):
            raise ValueError("two_ended must be a subset of branch_attributes")
    base = root if root is not None else Query.select_all()
    # Depth-first preorder via an explicit stack; children are pushed in
    # reverse so branch 1 is explored first, matching the paper's traversal.
    #
    # Unlike SQ-DB-SKY's overlapping tree, this traversal is inherently
    # sequential: which form a node issues (q or its exclusive counterpart
    # R(q)) and which tuple it branches on depend on *all* tuples retrieved
    # so far, so no two node queries are independent.  The frontier
    # therefore degenerates to synchronous :meth:`Frontier.fetch` calls --
    # the engine's memo, stats and budget still apply (which is what makes
    # the skyband extension's repeated subspace trees dedupe), but a
    # concurrent strategy gains no concurrency here by design.
    frontier = session.frontier()
    stack: list[tuple[Query, Query]] = [(base, base)]
    while stack:
        sq_query, rq_query = stack.pop()
        seen_match = early_termination and any(
            sq_query.matches_row(row) for row in session.retrieved_rows
        )
        if not seen_match:
            # No retrieved tuple matches q: issue the one-ended query itself.
            # Its region is downward-closed, so the top tuple is on the
            # skyline and is a safe branching pivot.
            result = frontier.fetch(sq_query)
            if result.is_empty or not result.overflow:
                continue
            pivot = result.top
        else:
            # q provably returns nothing new at the top; issue R(q) instead.
            result = frontier.fetch(rq_query)
            if result.is_empty:
                continue  # early termination: the whole subtree is redundant
            if not result.overflow:
                # R(q) underflowed: every tuple in the uncovered part of q's
                # region has been retrieved; subtree exhausted.
                continue
            top = result.top
            pivot = top
            # The top of R(q) may be dominated (its region is not
            # downward-closed); branch on a dominating known tuple instead.
            # The dominator must itself match q: when the tree is rooted at a
            # subspace (skyband recursion), a dominating tuple from outside
            # the subspace must not prune subspace-skyline tuples.
            for row in session.retrieved_rows:
                if (
                    row.rid != top.rid
                    and sq_query.matches_row(row)
                    and dominates(row.values, top.values)
                ):
                    pivot = row
                    break
        for child in reversed(
            _children(
                session, sq_query, rq_query, pivot, branch_attributes,
                two_ended_set,
            )
        ):
            stack.append(child)


@register_algorithm(
    "rq",
    display_name=ALGORITHM_NAME,
    kinds=(InterfaceKind.SQ, InterfaceKind.RQ),
    capabilities=("anytime", "complete"),
    summary="Mutually exclusive range tree with early termination (§4)",
    # Auto-dispatched for any schema of range predicates with at least one
    # two-ended attribute.
    dispatch=lambda schema: not schema.indices_of_kind(InterfaceKind.PQ)
    and bool(schema.indices_of_kind(InterfaceKind.RQ)),
    priority=40,
)
def _run_rq(session: DiscoverySession, config: DiscoveryConfig) -> None:
    """RQ-DB-SKY under the facade.

    Two-ended exclusion predicates go to the RQ attributes only, and the
    tree branches two-ended attributes first (§6.3); on a pure-RQ schema
    both are all attributes in schema order.  Options:
    ``branch_attributes``, ``two_ended``, ``early_termination``.
    """
    schema = session.schema
    sq_attrs = schema.indices_of_kind(InterfaceKind.SQ)
    rq_attrs = schema.indices_of_kind(InterfaceKind.RQ)
    branch = config.option("branch_attributes")
    if branch is None:
        branch = tuple(rq_attrs) + tuple(sq_attrs)
    two_ended = config.option("two_ended")
    if two_ended is None:
        two_ended = rq_attrs
    rq_db_sky(
        session,
        branch_attributes=branch,
        two_ended=two_ended,
        early_termination=config.option("early_termination", True),
    )
