"""Thread-safe metrics primitives: labelled counters, gauges, histograms.

The registry is deliberately tiny and stdlib-only.  It mirrors the
Prometheus data model closely enough that :mod:`repro.obs.exposition` can
render the standard text format, while staying cheap enough to sit on the
engine's hot path:

* every mutation takes a single ``threading.Lock`` owned by the registry
  (uncontended in the common case -- the engine classifies serially and the
  clients already serialise their counters);
* a registry can be **scoped**: ``MetricsRegistry(parent=other)`` mirrors
  every mutation into the parent, so a per-run registry can feed the
  process-global one without double bookkeeping at the call sites;
* families are get-or-create: asking for an existing name with the same
  kind and label names returns the existing family, so servers and
  observers can declare their instruments idempotently.

Asyncio safety comes for free: no method ever awaits or blocks beyond the
registry lock, so calling from coroutines cannot deadlock the loop.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "global_registry",
]

#: Default latency buckets (seconds) -- tuned for the 1-10ms injected
#: latencies the fault injector uses, with headroom for slow CI machines.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricFamily:
    """A named metric plus all its labelled children."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        parent: Optional["MetricFamily"] = None,
    ) -> None:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._parent = parent
        self._children: Dict[Tuple[str, ...], object] = {}

    # -- internals -------------------------------------------------------

    def _labelvalues(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        names = self.labelnames
        if len(names) == 1 == len(labels) and names[0] in labels:
            return (str(labels[names[0]]),)
        if len(labels) != len(names) or any(
            name not in labels for name in names
        ):
            raise ValueError(
                f"{self.name}: expected labels {names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in names)

    # -- inspection ------------------------------------------------------

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Snapshot of ``(labelvalues, value)`` pairs, sorted by labels."""
        with self._lock:
            return sorted(self._children.items())


class _BoundCounter:
    """A counter child pre-resolved to one label set.

    Skips per-call label validation and tuple building -- the hot hook
    sites (the drain core's classification chain, the transport client)
    increment the same few children thousands of times per run.
    """

    __slots__ = ("_chain", "_key")

    def __init__(self, family: "CounterFamily", key: Tuple[str, ...]) -> None:
        chain = []
        node: Optional[MetricFamily] = family
        while node is not None:
            chain.append(node)
            node = node._parent
        self._chain = tuple(chain)
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        key = self._key
        for family in self._chain:
            with family._lock:
                children = family._children
                children[key] = children.get(key, 0.0) + amount


class CounterFamily(MetricFamily):
    """Monotonically increasing counter."""

    kind = "counter"

    def bind(self, **labels: object) -> _BoundCounter:
        """Pre-resolve one labelled child for repeated cheap ``inc()``."""
        return _BoundCounter(self, self._labelvalues(labels))

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        # Validate once, then walk the parent chain with the resolved
        # labelvalues: mirrored registries share label declarations, so
        # re-validating per ancestor would only tax the hot path.
        key = self._labelvalues(labels)
        family: Optional[MetricFamily] = self
        while family is not None:
            with family._lock:
                children = family._children
                children[key] = children.get(key, 0.0) + amount
            family = family._parent

    def value(self, **labels: object) -> float:
        key = self._labelvalues(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))


class GaugeFamily(MetricFamily):
    """A value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        key = self._labelvalues(labels)
        value = float(value)
        family: Optional[MetricFamily] = self
        while family is not None:
            with family._lock:
                family._children[key] = value
            family = family._parent

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._labelvalues(labels)
        family: Optional[MetricFamily] = self
        while family is not None:
            with family._lock:
                children = family._children
                children[key] = children.get(key, 0.0) + amount
            family = family._parent

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = self._labelvalues(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))


class _HistogramChild:
    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.total = 0.0
        self.count = 0


class HistogramFamily(MetricFamily):
    """Fixed-bucket histogram (cumulative buckets rendered at exposition)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        parent: Optional["HistogramFamily"] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames, lock, parent)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be non-empty and sorted")
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        key = self._labelvalues(labels)
        family: Optional[HistogramFamily] = self
        while family is not None:
            with family._lock:
                child = family._children.get(key)
                if child is None:
                    child = family._children[key] = _HistogramChild(
                        len(family.buckets)
                    )
                # The first bucket whose bound is >= value; none past the
                # last bound (only the implicit +Inf bucket counts it).
                index = bisect_left(family.buckets, value)
                if index < len(family.buckets):
                    child.counts[index] += 1
                child.total += value
                child.count += 1
            family = family._parent

    def snapshot(self, **labels: object):
        """Return ``(cumulative_bucket_counts, sum, count)`` for one child."""
        key = self._labelvalues(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return [0] * len(self.buckets), 0.0, 0
            cumulative, running = [], 0
            for n in child.counts:
                running += n
                cumulative.append(running)
            return cumulative, child.total, child.count


_KINDS = {
    "counter": CounterFamily,
    "gauge": GaugeFamily,
    "histogram": HistogramFamily,
}


class MetricsRegistry:
    """A scope of metric families.

    ``MetricsRegistry(parent=other)`` chains scopes: every mutation on a
    family created here is mirrored into an identically-named family in the
    parent.  The conventional setup is a process-global registry (see
    :func:`global_registry`) with one child registry per run/server.
    """

    def __init__(self, parent: Optional["MetricsRegistry"] = None) -> None:
        self._parent = parent
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _get_or_create(self, kind, name, help_text, labelnames, **extra):
        parent_family = None
        if self._parent is not None:
            parent_family = self._parent._get_or_create(
                kind, name, help_text, labelnames, **extra
            )
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind.kind or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}"
                    )
                return family
            family = kind(
                name, help_text, tuple(labelnames), threading.Lock(),
                parent=parent_family, **extra,
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> CounterFamily:
        return self._get_or_create(CounterFamily, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> GaugeFamily:
        return self._get_or_create(GaugeFamily, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> HistogramFamily:
        return self._get_or_create(
            HistogramFamily, name, help_text, labelnames, buckets=buckets
        )

    def collect(self) -> Iterable[MetricFamily]:
        """All families, sorted by name (a snapshot, safe to iterate)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global metrics scope (parent of per-run registries)."""
    return _GLOBAL
