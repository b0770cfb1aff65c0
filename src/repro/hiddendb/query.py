"""Conjunctive query model for top-k hidden-database interfaces.

A query is a conjunction of per-attribute predicates.  Every range predicate
over the integer preference domain normalises to an inclusive interval
``[lo, hi]``:

=============================  =======================
paper predicate                normalised interval
=============================  =======================
``A < v``                      ``[0, v - 1]``
``A <= v``                     ``[0, v]``
``A = v``                      ``[v, v]``
``A > v``                      ``[v + 1, max]``
``A >= v``                     ``[v, max]``
``v1 <= A <= v2``              ``[v1, v2]``
=============================  =======================

The interval form makes interface validation trivial (Section 2.2 of the
paper): an **SQ** attribute accepts only intervals anchored at the best value
(``lo == 0``) or point intervals, a **PQ** attribute accepts only point
intervals, and an **RQ** attribute accepts any interval.

Queries are immutable; the refinement helpers (:meth:`Query.and_upper`,
:meth:`Query.and_lower`, :meth:`Query.and_point`) return new queries, which
lets the discovery algorithms share query prefixes structurally while walking
their divide-and-conquer trees.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

from .attributes import InterfaceKind, Schema
from .errors import UnsupportedQueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import Row


@dataclass(frozen=True)
class Interval:
    """An inclusive integer interval ``[lo, hi]`` over a preference domain."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        """Whether the interval pins a single value (an equality predicate)."""
        return self.lo == self.hi

    @property
    def width(self) -> int:
        """Number of domain values covered."""
        return self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lo <= value <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection with ``other``, or ``None`` when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def __repr__(self) -> str:
        if self.is_point:
            return f"={self.lo}"
        return f"[{self.lo},{self.hi}]"


class Query:
    """A conjunctive query over a hidden database.

    ``ranges`` maps ranking-attribute index to an :class:`Interval`;
    attributes absent from the mapping are unconstrained.  ``filters`` maps
    filtering-attribute name to a required value.

    The empty query is the paper's ``SELECT * FROM D``.
    """

    __slots__ = ("_ranges", "_filters", "_key", "_canonical", "_fingerprint")

    def __init__(
        self,
        ranges: Mapping[int, Interval] | None = None,
        filters: Mapping[str, int] | None = None,
    ) -> None:
        self._ranges: dict[int, Interval] = dict(ranges or {})
        self._filters: dict[str, int] = dict(filters or {})
        self._key = (
            tuple(sorted(self._ranges.items(), key=lambda kv: kv[0])),
            tuple(sorted(self._filters.items())),
        )
        self._canonical: str | None = None  # canonical_key(), lazily built
        self._fingerprint: str | None = None  # query_fingerprint(), ditto

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def select_all(cls) -> "Query":
        """The unconstrained ``SELECT * FROM D`` query."""
        return cls()

    @classmethod
    def from_point(
        cls,
        values: Mapping[int, int],
        filters: Mapping[str, int] | None = None,
    ) -> "Query":
        """Build a query with equality predicates on the given attributes."""
        return cls(
            {index: Interval(v, v) for index, v in values.items()}, filters
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def ranges(self) -> Mapping[int, Interval]:
        """Read-only view of the per-attribute intervals."""
        return dict(self._ranges)

    @property
    def filters(self) -> Mapping[str, int]:
        """Read-only view of the filtering-attribute equality predicates."""
        return dict(self._filters)

    @property
    def constrained_attributes(self) -> tuple[int, ...]:
        """Indices of ranking attributes with a predicate, sorted."""
        return tuple(sorted(self._ranges))

    @property
    def num_predicates(self) -> int:
        """Number of conjunctive predicates (range + filter)."""
        return len(self._ranges) + len(self._filters)

    def interval(self, index: int, domain_size: int) -> Interval:
        """Effective interval on attribute ``index`` (full domain if absent)."""
        got = self._ranges.get(index)
        if got is not None:
            return got
        return Interval(0, domain_size - 1)

    # ------------------------------------------------------------------
    # refinement (all return new queries; ``None`` when unsatisfiable)
    # ------------------------------------------------------------------
    def _refine(self, index: int, interval: Interval) -> "Query | None":
        current = self._ranges.get(index)
        if current is not None:
            merged = current.intersect(interval)
            if merged is None:
                return None
            interval = merged
        ranges = dict(self._ranges)
        ranges[index] = interval
        return Query(ranges, self._filters)

    def and_upper(self, index: int, hi: int) -> "Query | None":
        """Append ``A_index <= hi`` (``A < hi + 1``); ``None`` if empty."""
        if hi < 0:
            return None
        return self._refine(index, Interval(0, hi))

    def and_lower(self, index: int, lo: int, domain_size: int) -> "Query | None":
        """Append ``A_index >= lo``; ``None`` if empty."""
        if lo > domain_size - 1:
            return None
        return self._refine(index, Interval(max(lo, 0), domain_size - 1))

    def and_point(self, index: int, value: int) -> "Query | None":
        """Append ``A_index = value``; ``None`` if contradictory."""
        return self._refine(index, Interval(value, value))

    def and_filter(self, name: str, value: int) -> "Query":
        """Append an equality predicate on a filtering attribute."""
        filters = dict(self._filters)
        filters[name] = value
        return Query(self._ranges, filters)

    def merge(self, other: "Query") -> "Query | None":
        """Conjunction of two queries; ``None`` when unsatisfiable."""
        if not self._ranges and not self._filters:
            return other
        ranges = dict(self._ranges)
        for index, interval in other._ranges.items():
            current = ranges.get(index)
            if current is not None:
                interval = current.intersect(interval)
                if interval is None:
                    return None
            ranges[index] = interval
        filters = dict(self._filters)
        for name, value in other._filters.items():
            if filters.setdefault(name, value) != value:
                return None
        return Query(ranges, filters)

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def matches_values(self, values: Sequence[int]) -> bool:
        """Whether a ranking-value vector satisfies all range predicates."""
        for index, interval in self._ranges.items():
            if not interval.contains(values[index]):
                return False
        return True

    def matches_row(self, row: "Row") -> bool:
        """Whether a row satisfies the range predicates (filters ignored)."""
        return self.matches_values(row.values)

    def covers(self, other: "Query") -> bool:
        """Whether every value combination matching ``other`` matches ``self``.

        Used by the PQ plane-pruning rules, which look for previously issued
        queries *containing* a 2-D subspace.  Filter predicates must agree.
        """
        for name, value in self._filters.items():
            if other._filters.get(name) != value:
                return False
        for index, interval in self._ranges.items():
            other_interval = other._ranges.get(index)
            if other_interval is None:
                return False
            if other_interval.lo < interval.lo or other_interval.hi > interval.hi:
                return False
        return True

    def validate(self, schema: Schema) -> None:
        """Check this query is expressible through ``schema``'s interface.

        Raises
        ------
        UnsupportedQueryError
            If any predicate is not supported by the attribute's interface
            kind (Section 2.2 taxonomy).
        """
        ranking = schema.ranking_attributes
        for index, interval in self._ranges.items():
            if not 0 <= index < len(ranking):
                raise UnsupportedQueryError(
                    f"no ranking attribute at index {index}"
                )
            attribute = ranking[index]
            if interval.hi > attribute.max_value or interval.lo < 0:
                raise UnsupportedQueryError(
                    f"interval {interval} outside domain of {attribute.name!r}"
                )
            kind = attribute.kind
            if kind is InterfaceKind.RQ:
                continue
            if kind is InterfaceKind.SQ:
                if interval.lo != 0 and not interval.is_point:
                    raise UnsupportedQueryError(
                        f"{attribute.name!r} is one-ended (SQ): lower bound "
                        f"{interval} not supported"
                    )
            elif kind is InterfaceKind.PQ:
                if not interval.is_point and interval.width != attribute.domain_size:
                    raise UnsupportedQueryError(
                        f"{attribute.name!r} is point-predicate (PQ): range "
                        f"{interval} not supported"
                    )
        for name in self._filters:
            attribute = schema[name]
            if attribute.is_ranking:
                raise UnsupportedQueryError(
                    f"{name!r} is a ranking attribute; use a range predicate"
                )

    # ------------------------------------------------------------------
    # canonical identity
    # ------------------------------------------------------------------
    def canonical_key(self) -> str:
        """The canonical string identity of this query.

        Two queries with the same predicates produce the same key no
        matter how they were built: attribute order, ``numpy`` integer
        scalars, integral floats and tuple-vs-list inputs all normalise
        away.  This is the *one* key scheme shared by every layer that
        identifies queries -- the execution engine's dedup memo, the
        crawl store's query ledger and the billing-safe ``X-Request-Id``
        replay ids -- so those layers can never disagree about whether two
        queries are the same.

        Built once per instance (it sits on the per-query hot path: memo
        lookups, ledger gets and puts all key on it).
        """
        if self._canonical is None:
            parts = [
                f"r{int(index)}:{int(interval.lo)}-{int(interval.hi)}"
                for index, interval in sorted(self._ranges.items())
            ]
            parts.extend(
                f"f{name}={int(value)}"
                for name, value in sorted(self._filters.items())
            )
            self._canonical = "&".join(parts) if parts else "*"
        return self._canonical

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        parts = [f"A{index}{interval}" for index, interval in sorted(self._ranges.items())]
        parts.extend(f"{name}={value}" for name, value in sorted(self._filters.items()))
        if not parts:
            return "Query(SELECT *)"
        return "Query(" + " & ".join(parts) + ")"


def query_fingerprint(query: Query) -> str:
    """Short stable hex digest of a query's canonical key.

    Used where the key must be fixed-width and transport-safe: the
    deterministic component of ``X-Request-Id`` replay ids (so a crawl
    resumed after a crash re-presents the id of an already-billed query
    and gets its answer replayed for free) and compact ledger diagnostics.

    Cached per instance: replay ids and trace spans both ask for it on
    the per-query hot path.
    """
    if query._fingerprint is None:
        query._fingerprint = hashlib.sha1(
            query.canonical_key().encode("utf-8")
        ).hexdigest()[:20]
    return query._fingerprint


def predicates_from_strings(
    schema: Schema, clauses: Iterable[str]
) -> Query:
    """Parse simple ``"name op value"`` clauses into a :class:`Query`.

    Supports ``<``, ``<=``, ``=``, ``>=``, ``>`` on ranking attributes and
    ``=`` on filtering attributes; intended for examples and tests, not for
    performance-critical paths.
    """
    query = Query.select_all()
    for clause in clauses:
        tokens = clause.split()
        if len(tokens) != 3:
            raise ValueError(f"cannot parse predicate {clause!r}")
        name, op, raw_value = tokens
        value = int(raw_value)
        attribute = schema[name]
        if not attribute.is_ranking:
            if op != "=":
                raise ValueError(f"filtering attribute {name!r} supports '=' only")
            query = query.and_filter(name, value)
            continue
        index = schema.ranking_index(name)
        refined: Query | None
        if op == "<":
            refined = query.and_upper(index, value - 1)
        elif op == "<=":
            refined = query.and_upper(index, value)
        elif op == "=":
            refined = query.and_point(index, value)
        elif op == ">=":
            refined = query.and_lower(index, value, attribute.domain_size)
        elif op == ">":
            refined = query.and_lower(index, value + 1, attribute.domain_size)
        else:
            raise ValueError(f"unknown operator {op!r} in {clause!r}")
        if refined is None:
            raise ValueError(f"predicate {clause!r} makes the query empty")
        query = refined
    return query
