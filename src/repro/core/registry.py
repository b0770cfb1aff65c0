"""Algorithm registry and run configuration for the discovery facade.

Every discovery algorithm in :mod:`repro.core` self-registers here through
the :func:`register_algorithm` decorator, declaring its name, the interface
taxonomy it supports (which :class:`~repro.hiddendb.attributes.InterfaceKind`
mix it can query through) and its capabilities (``anytime``, ``skyband``,
``complete``, ...).  The :class:`~repro.core.facade.Discoverer` facade is a
thin consumer of this registry: it resolves a name (or auto-dispatches on
the schema taxonomy), builds a session from a :class:`DiscoveryConfig` and
runs the registered body through the session's one run lifecycle
(:meth:`~repro.core.base.DiscoverySession.run`).

The registry is the extension seam for new algorithms and backends: a new
module only has to decorate its runner --

    @register_algorithm(
        "my-algo",
        display_name="MY-DB-SKY",
        kinds=(InterfaceKind.RQ,),
        capabilities=("anytime",),
    )
    def _run(session: DiscoverySession, config: DiscoveryConfig) -> None:
        ...

-- and it becomes available to ``Discoverer.run``, ``Discoverer.run_all``,
the CLI ``--algorithm`` flag and the ``repro algorithms`` listing without
touching any dispatch code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace as _dc_replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from ..hiddendb.attributes import InterfaceKind, Schema
from .engine import DEFAULT_BATCH_SIZE, ExecutionStrategy, make_strategy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..hiddendb.interface import QueryResult
    from ..hiddendb.query import Query
    from ..store import CrawlStore
    from .base import DiscoverySession, TraceEntry


class AlgorithmNotFoundError(KeyError):
    """Raised when a registry lookup names no registered algorithm."""

    def __init__(self, name: str, available: Iterable[str]) -> None:
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"no algorithm registered under {name!r}; "
            f"available: {', '.join(self.available) or '(none)'}"
        )


class DuplicateAlgorithmError(ValueError):
    """Raised when two algorithms try to register under the same name."""


@dataclass(frozen=True)
class DiscoveryConfig:
    """Frozen run configuration shared by every facade entry point.

    Parameters
    ----------
    budget:
        Per-run query allowance.  Enforced at the session level (on top of
        any budget the interface itself carries), so one facade can impose
        the same quota on runs against different interfaces.  Exhaustion
        yields a partial ``complete=False`` result -- the anytime behaviour
        of §7.1 -- rather than an exception.
    band:
        K-skyband depth used by :meth:`Discoverer.skyband` (``1`` = plain
        skyline).
    base_query:
        Predicates conjoined to every issued query: the paper's "skyline
        subject to filtering conditions" extension (§2.1).
    on_query:
        Progress hook invoked after every issued query with the
        :class:`~repro.hiddendb.interface.QueryResult`.
    on_tuple:
        Progress hook invoked whenever a *new* distinct tuple is retrieved,
        with the :class:`~repro.core.base.TraceEntry` (first-retrieval cost
        plus row).  Feeding these entries into a list reproduces the anytime
        discovery curve live, while the run is still going.
    record_log:
        Keep the full query/answer log and attach it to the returned
        result (``result.query_log``), for
        :func:`repro.core.stats.summarize_log`.  Off by default: the
        session then keeps no log, so each billed answer is dropped once
        recorded and a run's memory grows with the tuples it retrieved,
        not with the answers it paid for.
    strategy:
        Execution-strategy name: ``"serial"`` or ``"async"`` (see
        :data:`~repro.core.engine.STRATEGY_NAMES`; ``"pipelined"`` is
        accepted as an alias of ``"async"``).  ``None`` (the default)
        keeps the historical implicit switch -- ``workers > 1`` means
        async, otherwise serial.  An
        :class:`~repro.core.engine.ExecutionStrategy` *instance* is also
        accepted and used as-is (it carries its own worker/batch shape;
        ``workers`` / ``batch_size`` below are then only validated).  All
        strategies run the same shared drain core, so the skyline and
        billed cost are identical; only wall time differs.
    workers:
        Execution-engine concurrency: the dispatch-window width.  ``1``
        drains frontiers with the bit-identical
        :class:`~repro.core.engine.SerialStrategy` and ``> 1`` with the
        :class:`~repro.core.engine.AsyncStrategy`, which keeps up to this
        many dispatch tasks in flight while merging answers in
        deterministic order (same skyline, same billable cost).  The
        endpoint decides what a worker is: against an endpoint with its
        own event loop (the asyncio remote client) it is an in-flight
        slot on that loop, so wide windows are cheap; against any other
        endpoint it is a thread of the drain's pool.  The literal
        ``"auto"`` makes the window *adaptive*: an AIMD controller
        (:mod:`repro.core.adaptive`) grows it on clean completions and
        shrinks it on 429/503/timeout pressure within ``[min_workers,
        max_workers]``, honoring the server's ``Retry-After``.
        Adaptivity changes wall-clock only -- the skyline and billed cost
        are identical at any window width.
    min_workers / max_workers:
        Bounds of the adaptive window; only meaningful with
        ``workers="auto"`` (defaults 1 and 32).
    batch_size:
        Queries packed per round trip when the endpoint supports
        ``batch_query()`` (the networked service does); only meaningful
        with ``workers > 1``.
    dedup:
        Run-scoped query memoization: an identical query is never billed
        twice within one run (hits show up as ``result.stats.deduped``).
        ``None`` (the default) keeps each verb's own default -- *off* for
        plain discovery runs (historical query counts), *on* for
        ``Discoverer.skyband`` (its overlapping subspace trees repeat many
        queries).
    store:
        Optional :class:`~repro.store.CrawlStore` making the run durable:
        every billed answer is persisted in the store's query ledger
        (shared across runs and processes; ledgered answers are free, like
        dedup hits), the session checkpoints its progress every
        ``checkpoint_every`` answers, and the finished result is filed in
        the store's crawl catalog.
    resume:
        Pick up the most recent unfinished crawl session of this
        endpoint + algorithm from ``store`` instead of starting fresh: the
        run replays the already-paid-for query prefix from the ledger and
        carries the crashed incarnation's billed count forward into
        ``result.total_cost``.  Requires ``store``.
    session_id:
        Pin the crawl session identity instead of letting the store pick:
        an existing session of this id is resumed (checkpoint, billed
        count and replay nonce carried forward), a missing one is created
        under exactly this id.  The multi-tenant seam -- the coordinator
        assigns each job its own session id so concurrent tenants running
        the same algorithm against the same endpoint never collide.
        Requires ``store``.
    checkpoint_every:
        Recorded answers between session checkpoints (progress snapshots
        in the store).  Each checkpoint also commits the billed answers
        buffered since the last one, together with the billed counter
        that counts them, so a SIGKILL leaves at most
        ``min(checkpoint_every, 64)`` merged answers unledgered.
    trace:
        Attach the observability plane (:mod:`repro.obs`) to the run.
        A path or writable file-like receives one JSONL span per query
        lifecycle event (classification, transport, billing, merge --
        see :class:`repro.obs.TraceWriter` for the schema) and metrics
        are collected into a fresh per-run registry; passing a
        prepared :class:`repro.obs.RunObserver` uses it as-is (its
        registry/writer are then caller-owned).  ``None`` (the default)
        leaves every instrumentation hook a no-op, and a traced run
        reproduces the untraced skyline and billed cost bit-identically
        -- the hooks only emit events, they never branch the algorithm.
    options:
        Algorithm-specific knobs forwarded to the registered runner
        (e.g. ``early_termination`` for RQ-DB-SKY, ``plane_attributes`` /
        ``plane_limit`` for PQ-DB-SKY).  Treat as read-only.
    mode:
        ``"full"`` (default) crawls from scratch.  ``"delta"`` runs the
        :mod:`repro.freshness` repair crawl instead: it revalidates the
        ledger of a *previous* crawl against the endpoint's current data
        version (probing the old skyline first, then re-expanding only
        where answers changed) and reproduces the from-scratch skyline
        for a fraction of the billed cost.  Requires ``store`` (the
        ledger is what gets repaired) and is incompatible with
        ``resume`` (a delta run is always a fresh session: reusing an
        old replay nonce could serve answers billed against the old
        data version).
    """

    budget: int | None = None
    band: int = 1
    base_query: "Query | None" = None
    on_query: "Callable[[QueryResult], None] | None" = None
    on_tuple: "Callable[[TraceEntry], None] | None" = None
    record_log: bool = False
    strategy: "str | ExecutionStrategy | None" = None
    workers: "int | str" = 1
    batch_size: int = DEFAULT_BATCH_SIZE
    dedup: bool | None = None
    store: "CrawlStore | None" = None
    resume: bool = False
    session_id: str | None = None
    checkpoint_every: int = 32
    trace: Any = None
    options: Mapping[str, Any] = field(default_factory=dict)
    mode: str = "full"
    min_workers: int | None = None
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.band < 1:
            raise ValueError(f"band must be >= 1, got {self.band}")
        self.execution_strategy()  # validates the engine knobs
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.resume and self.store is None:
            raise ValueError("resume=True requires a store")
        if self.session_id is not None and self.store is None:
            raise ValueError("session_id requires a store")
        if self.mode not in ("full", "delta"):
            raise ValueError(
                f"unknown mode {self.mode!r}; pick 'full' or 'delta'"
            )
        if self.mode == "delta":
            if self.store is None:
                raise ValueError(
                    "mode='delta' requires a store (the ledger of a "
                    "previous crawl is what gets repaired)"
                )
            if self.resume:
                raise ValueError(
                    "mode='delta' is incompatible with resume=True: a "
                    "delta run always begins a fresh session so its "
                    "replay nonce cannot surface answers billed against "
                    "the old data version"
                )
        if self.trace is not None and not (
            isinstance(self.trace, (str, os.PathLike))
            or hasattr(self.trace, "write")  # open file-like
            or hasattr(self.trace, "emit")  # repro.obs.TraceWriter
            or hasattr(self.trace, "trace_id")  # repro.obs.RunObserver
        ):
            raise ValueError(
                f"trace must be a path, writable file-like, TraceWriter "
                f"or RunObserver, got {type(self.trace).__name__}"
            )

    def execution_strategy(self) -> ExecutionStrategy:
        """The strategy this config names, built by
        :func:`~repro.core.engine.make_strategy`, the one validator of
        ``strategy`` / ``workers`` / ``min_workers`` / ``max_workers`` /
        ``batch_size``.  Construction calls it to validate; sessions and
        delta repairs call it to build their strategy."""
        return make_strategy(
            self.strategy,
            workers=self.workers,
            batch_size=self.batch_size,
            min_workers=self.min_workers,
            max_workers=self.max_workers,
        )

    def replace(self, **changes: Any) -> "DiscoveryConfig":
        """A copy of this config with ``changes`` applied."""
        return _dc_replace(self, **changes)

    def with_options(self, **options: Any) -> "DiscoveryConfig":
        """A copy with ``options`` merged into the algorithm options."""
        merged = dict(self.options)
        merged.update(options)
        return _dc_replace(self, options=merged)

    def option(self, key: str, default: Any = None) -> Any:
        """Look up one algorithm-specific option."""
        return self.options.get(key, default)


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry metadata attached to results (no callables, JSON-friendly)."""

    name: str
    display_name: str
    taxonomy: tuple[str, ...]
    capabilities: tuple[str, ...]

    def __repr__(self) -> str:
        return (
            f"AlgorithmInfo({self.name}: {self.display_name}, "
            f"taxonomy={'+'.join(self.taxonomy)}, "
            f"capabilities={','.join(self.capabilities) or '-'})"
        )


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered discovery algorithm.

    ``run`` is the uniform body every algorithm adapts to:
    ``run(session, config)`` issues queries through the session and returns
    nothing; the facade packages the session into a result.  ``skyband`` is
    an optional second body of the same shape, ``skyband(session, band)``
    (attached via :func:`attach_skyband`), implementing the K-skyband
    extension of §7.2; ``Discoverer.skyband`` runs it.
    """

    name: str
    display_name: str
    run: "Callable[[DiscoverySession, DiscoveryConfig], None]"
    kinds: frozenset[InterfaceKind]
    capabilities: frozenset[str] = frozenset()
    summary: str = ""
    #: Extra structural requirement beyond the kind check (e.g. ``m == 2``).
    requires: Callable[[Schema], bool] | None = None
    #: Auto-dispatch preference: among applicable specs the resolver picks
    #: the highest-priority one whose ``dispatch`` predicate accepts the
    #: schema.  ``None`` means the spec is only ever selected by name.
    dispatch: Callable[[Schema], bool] | None = None
    priority: int = 0
    #: Schema-dependent display name (PQ-DB-SKY reports PQ-2D-SKY on m=2).
    display_for: Callable[[Schema], str] | None = None
    skyband: "Callable[[DiscoverySession, int], None] | None" = None
    skyband_requires: Callable[[Schema], bool] | None = None

    def supports(self, schema: Schema) -> bool:
        """Whether this algorithm can run against ``schema``'s taxonomy."""
        if not all(
            attribute.kind in self.kinds
            for attribute in schema.ranking_attributes
        ):
            return False
        return self.requires is None or self.requires(schema)

    def supports_skyband(self, schema: Schema) -> bool:
        """Whether the attached skyband extension can run against ``schema``."""
        if self.skyband is None:
            return False
        if self.skyband_requires is not None:
            return self.skyband_requires(schema)
        return self.supports(schema)

    def prefers(self, schema: Schema) -> bool:
        """Whether auto-dispatch should consider this spec for ``schema``."""
        return self.dispatch is not None and self.dispatch(schema)

    def display(self, schema: Schema | None = None) -> str:
        """Reported algorithm name, possibly specialised to ``schema``."""
        if schema is not None and self.display_for is not None:
            return self.display_for(schema)
        return self.display_name

    @property
    def taxonomy(self) -> tuple[str, ...]:
        """Supported ranking-attribute kinds, stable order (SQ, RQ, PQ)."""
        order = (InterfaceKind.SQ, InterfaceKind.RQ, InterfaceKind.PQ)
        return tuple(kind.name for kind in order if kind in self.kinds)

    def info(self) -> AlgorithmInfo:
        """The callable-free metadata view attached to results."""
        return AlgorithmInfo(
            name=self.name,
            display_name=self.display_name,
            taxonomy=self.taxonomy,
            capabilities=tuple(sorted(self.capabilities)),
        )


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register_algorithm(
    name: str,
    *,
    display_name: str,
    kinds: Iterable[InterfaceKind],
    capabilities: Iterable[str] = (),
    summary: str = "",
    requires: Callable[[Schema], bool] | None = None,
    dispatch: Callable[[Schema], bool] | None = None,
    priority: int = 0,
    display_for: Callable[[Schema], str] | None = None,
) -> Callable[[Callable], Callable]:
    """Class the decorated ``run(session, config)`` function as algorithm
    ``name``.  Names are case-insensitive and must be unique."""
    key = name.lower()

    def decorator(run: Callable) -> Callable:
        if key in _REGISTRY:
            raise DuplicateAlgorithmError(
                f"algorithm {name!r} is already registered "
                f"(by {_REGISTRY[key].run.__module__})"
            )
        _REGISTRY[key] = AlgorithmSpec(
            name=key,
            display_name=display_name,
            run=run,
            kinds=frozenset(kinds),
            capabilities=frozenset(capabilities),
            summary=summary or (run.__doc__ or "").strip().split("\n")[0],
            requires=requires,
            dispatch=dispatch,
            priority=priority,
            display_for=display_for,
        )
        return run

    return decorator


def attach_skyband(
    name: str,
    *,
    requires: Callable[[Schema], bool] | None = None,
) -> Callable[[Callable], Callable]:
    """Attach a K-skyband body ``(session, band) -> None`` to the
    already-registered algorithm ``name``.

    Like a ``run(session, config)`` body it only issues queries through the
    session; :meth:`~repro.core.facade.Discoverer.skyband` runs it, counts
    the band among the retrieved tuples and reports it as
    ``<display name>BAND`` (RQ-DB-SKY -> RQ-DB-SKYBAND).  A body that
    leaves part of the band provably unexplored calls
    ``session.mark_incomplete()``.
    """
    key = name.lower()

    def decorator(body: Callable) -> Callable:
        spec = _REGISTRY.get(key)
        if spec is None:
            raise AlgorithmNotFoundError(name, _REGISTRY)
        if spec.skyband is not None:
            raise DuplicateAlgorithmError(
                f"algorithm {name!r} already has a skyband extension"
            )
        _REGISTRY[key] = _dc_replace(
            spec,
            skyband=body,
            skyband_requires=requires,
            capabilities=spec.capabilities | {"skyband"},
        )
        return body

    return decorator


def unregister_algorithm(name: str) -> None:
    """Remove ``name`` from the registry (test / plugin teardown helper)."""
    _REGISTRY.pop(name.lower(), None)


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise AlgorithmNotFoundError(name, sorted(_REGISTRY)) from None


def algorithm_names() -> tuple[str, ...]:
    """All registered algorithm names, sorted."""
    return tuple(sorted(_REGISTRY))


def all_algorithms() -> tuple[AlgorithmSpec, ...]:
    """All registered specs, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def applicable_algorithms(schema: Schema) -> tuple[AlgorithmSpec, ...]:
    """Registered specs able to run against ``schema``, sorted by name."""
    return tuple(
        spec for spec in all_algorithms() if spec.supports(schema)
    )


def resolve_algorithm(schema: Schema) -> AlgorithmSpec:
    """Auto-dispatch on the schema's interface taxonomy.

    Among the specs whose ``dispatch`` predicate accepts the schema, the
    highest-priority one wins.  With the built-in registrations, pure
    one-ended schemas run SQ-DB-SKY, range schemas with a two-ended
    attribute run RQ-DB-SKY, pure point schemas run PQ-DB-SKY and
    everything else runs MQ-DB-SKY (the golden cost table in
    ``tests/core/golden_costs.json`` pins each choice).
    """
    candidates = sorted(
        (spec for spec in _REGISTRY.values() if spec.prefers(schema)),
        key=lambda spec: (-spec.priority, spec.name),
    )
    for spec in candidates:
        if spec.supports(schema):
            return spec
    raise AlgorithmNotFoundError(
        f"<no algorithm dispatches schema with kinds "
        f"{[a.kind.name for a in schema.ranking_attributes]}>",
        sorted(_REGISTRY),
    )


__all__ = [
    "AlgorithmInfo",
    "AlgorithmNotFoundError",
    "AlgorithmSpec",
    "DiscoveryConfig",
    "DuplicateAlgorithmError",
    "algorithm_names",
    "all_algorithms",
    "applicable_algorithms",
    "attach_skyband",
    "get_algorithm",
    "register_algorithm",
    "resolve_algorithm",
    "unregister_algorithm",
]
