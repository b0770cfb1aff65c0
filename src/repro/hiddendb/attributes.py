"""Attribute and schema definitions for hidden web databases.

The paper (Section 2.2) partitions the search support for each *ranking*
attribute into three categories:

* **SQ** -- one-ended range predicates: ``A < v``, ``A <= v`` and ``A = v``.
* **RQ** -- two-ended range predicates: additionally ``A > v`` / ``A >= v``.
* **PQ** -- point predicates only: ``A = v``.

Order-less *filtering* attributes (**FILTER**) support equality only and have
no bearing on the skyline definition.

Internally every ranking attribute is stored in *preference space*: the
domain is the contiguous integer range ``[0, domain_size)`` and **smaller is
always better** (0 is the most preferred value).  Generators that model
real-world data where "larger is better" (e.g. carat, model year) attach
human-readable ``labels`` listing the raw values in preference order, so the
canonical integer encoding never leaks into user-facing output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import InvalidDomainValueError, UnknownAttributeError


class InterfaceKind(enum.Enum):
    """Which predicates the web search form offers for an attribute."""

    SQ = "sq"  #: one-ended range: ``A < v``, ``A <= v``, ``A = v``
    RQ = "rq"  #: two-ended range: SQ plus ``A > v`` / ``A >= v``
    PQ = "pq"  #: point predicates only: ``A = v``
    FILTER = "filter"  #: order-less filtering attribute, equality only

    @property
    def is_ranking(self) -> bool:
        """Whether attributes of this kind participate in the skyline."""
        return self is not InterfaceKind.FILTER

    @property
    def supports_upper_bound(self) -> bool:
        """Whether ``A <= v`` predicates are accepted."""
        return self in (InterfaceKind.SQ, InterfaceKind.RQ)

    @property
    def supports_lower_bound(self) -> bool:
        """Whether ``A >= v`` predicates are accepted."""
        return self is InterfaceKind.RQ


@dataclass(frozen=True)
class Attribute:
    """One attribute of a hidden web database.

    Parameters
    ----------
    name:
        Unique attribute name, e.g. ``"price"``.
    domain_size:
        Number of distinct domain values.  Ranking values are the integers
        ``0 .. domain_size - 1`` in preference order (0 best).
    kind:
        The search-interface support for this attribute.
    labels:
        Optional raw domain values listed in preference order, used only for
        display (``labels[0]`` is the most preferred raw value).
    """

    name: str
    domain_size: int
    kind: InterfaceKind = InterfaceKind.RQ
    labels: tuple | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise ValueError(
                f"attribute {self.name!r}: domain_size must be >= 1, "
                f"got {self.domain_size}"
            )
        if self.labels is not None and len(self.labels) != self.domain_size:
            raise ValueError(
                f"attribute {self.name!r}: {len(self.labels)} labels for a "
                f"domain of size {self.domain_size}"
            )

    @property
    def is_ranking(self) -> bool:
        """Whether this attribute participates in the skyline definition."""
        return self.kind.is_ranking

    @property
    def max_value(self) -> int:
        """The worst (largest) preference value in the domain."""
        return self.domain_size - 1

    def validate_value(self, value: int) -> None:
        """Raise :class:`InvalidDomainValueError` if ``value`` is out of domain."""
        if not 0 <= value < self.domain_size:
            raise InvalidDomainValueError(
                f"value {value} outside domain [0, {self.domain_size}) of "
                f"attribute {self.name!r}"
            )

    def label(self, value: int):
        """Human-readable raw value for preference value ``value``."""
        self.validate_value(value)
        if self.labels is None:
            return value
        return self.labels[value]


class Schema:
    """An ordered collection of :class:`Attribute` objects.

    The schema fixes the positional layout used throughout the library:
    *ranking* attributes are addressed by their index in
    :attr:`ranking_attributes` (this is the ``A_1 .. A_m`` of the paper),
    while filtering attributes are addressed by name.
    """

    def __init__(self, attributes: Sequence[Attribute]) -> None:
        names = [attribute.name for attribute in attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema: {names}")
        self._attributes = tuple(attributes)
        self._by_name = {attribute.name: attribute for attribute in attributes}
        self._ranking = tuple(a for a in attributes if a.is_ranking)
        self._filtering = tuple(a for a in attributes if not a.is_ranking)
        self._ranking_index = {a.name: i for i, a in enumerate(self._ranking)}

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """All attributes in declaration order."""
        return self._attributes

    @property
    def ranking_attributes(self) -> tuple[Attribute, ...]:
        """The ranking attributes ``A_1 .. A_m`` in declaration order."""
        return self._ranking

    @property
    def filtering_attributes(self) -> tuple[Attribute, ...]:
        """The order-less filtering attributes."""
        return self._filtering

    @property
    def m(self) -> int:
        """Number of ranking attributes (the paper's ``m``)."""
        return len(self._ranking)

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        """Domain sizes of the ranking attributes, in order."""
        return tuple(a.domain_size for a in self._ranking)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(f"no attribute named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def ranking_index(self, name: str) -> int:
        """Position of ranking attribute ``name`` within the ranking layout."""
        try:
            return self._ranking_index[name]
        except KeyError:
            raise UnknownAttributeError(
                f"no ranking attribute named {name!r}"
            ) from None

    def indices_of_kind(self, kind: InterfaceKind) -> tuple[int, ...]:
        """Ranking-attribute indices whose interface kind equals ``kind``."""
        return tuple(
            i for i, a in enumerate(self._ranking) if a.kind == kind
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{a.name}:{a.kind.value}[{a.domain_size}]" for a in self._attributes
        )
        return f"Schema({parts})"
