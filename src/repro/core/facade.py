"""The :class:`Discoverer` facade: one entry point for every algorithm.

``Discoverer`` binds a :class:`~repro.core.registry.DiscoveryConfig` to the
algorithm registry and exposes three verbs:

* :meth:`Discoverer.run` -- run one algorithm (by registry name, or
  auto-dispatched on the schema's interface taxonomy) and return a
  :class:`~repro.core.base.DiscoveryResult`;
* :meth:`Discoverer.run_all` -- run every applicable registered algorithm
  on the same interface and return one result per algorithm;
* :meth:`Discoverer.skyband` -- run the K-skyband extension (§7.2) of a
  registered algorithm and return a
  :class:`~repro.core.skyband.SkybandResult`.

``run`` and ``skyband`` are the only ways to run an algorithm; a delta
repair of a stored crawl is ``run(..., mode="delta")``.  Every run goes
through the session's one lifecycle
(:meth:`~repro.core.base.DiscoverySession.run`): budget exhaustion yields a
partial result, and however the run ends its replay nonce and observer are
released before the result is filed.  Results carry the effective config
plus the registry metadata of the algorithm that produced them, so
downstream reporting never has to guess how a number was obtained.

Quick start::

    from repro import Discoverer, DiscoveryConfig

    disc = Discoverer(DiscoveryConfig(budget=500))
    result = disc.run(interface)                   # auto-dispatch
    result = disc.run(interface, "rq")             # explicit algorithm
    per_algo = disc.run_all(interface)             # compare algorithms
    band = disc.skyband(interface, band=3)         # top-3 skyband
"""

from __future__ import annotations

from typing import Any

from ..hiddendb.endpoint import SearchEndpoint
from . import baseline, mq, pq, pq2d, rq, sq  # noqa: F401  (self-registration)
from .base import DiscoveryResult, DiscoverySession
from .dominance import skyband_of_rows
from .registry import (
    AlgorithmNotFoundError,
    AlgorithmSpec,
    DiscoveryConfig,
    all_algorithms,
    applicable_algorithms,
    get_algorithm,
    resolve_algorithm,
)
from .skyband import SkybandResult


class Discoverer:
    """Facade over the algorithm registry, bound to a default config.

    The constructor config supplies defaults; every verb accepts a
    per-call ``config`` and/or keyword overrides (any
    :class:`DiscoveryConfig` field) that take precedence::

        disc = Discoverer(DiscoveryConfig(budget=1000))
        disc.run(interface)                 # budget 1000
        disc.run(interface, budget=50)      # budget 50, same defaults else
    """

    def __init__(self, config: DiscoveryConfig | None = None) -> None:
        self._config = config if config is not None else DiscoveryConfig()

    @property
    def config(self) -> DiscoveryConfig:
        """The default configuration of this facade."""
        return self._config

    def with_config(self, **changes: Any) -> "Discoverer":
        """A new facade with ``changes`` applied to the default config."""
        return Discoverer(self._config.replace(**changes))

    # ------------------------------------------------------------------
    # registry views
    # ------------------------------------------------------------------
    @staticmethod
    def algorithms(interface_or_schema=None) -> tuple[AlgorithmSpec, ...]:
        """Registered algorithms; restricted to the applicable ones when an
        interface (or schema) is given."""
        if interface_or_schema is None:
            return all_algorithms()
        schema = getattr(interface_or_schema, "schema", interface_or_schema)
        return applicable_algorithms(schema)

    # ------------------------------------------------------------------
    # the three verbs
    # ------------------------------------------------------------------
    def run(
        self,
        interface: SearchEndpoint,
        algorithm: str | None = None,
        *,
        config: DiscoveryConfig | None = None,
        **overrides: Any,
    ) -> DiscoveryResult:
        """Discover the skyline of ``interface``.

        ``algorithm`` is a registry name (``"sq"``, ``"rq"``, ``"pq"``,
        ``"pq2d"``, ``"mq"``, ``"baseline"``, ...); ``None`` auto-dispatches
        on the schema's interface taxonomy
        (:func:`~repro.core.registry.resolve_algorithm`).
        :func:`repro.discover` is a one-line wrapper of it.  With
        ``mode="delta"`` the run repairs the store's earlier crawl instead
        (:class:`~repro.freshness.DeltaCrawl`).  A run that raises leaves
        its durable session ``running``, i.e. resumable.
        """
        cfg = self._effective(config, overrides)
        spec = self._spec_for(interface, algorithm)
        if cfg.mode == "delta":
            # The freshness plane: repair the store ledger against the
            # endpoint's current data version instead of crawling from
            # scratch (probe, revalidate, cascade -- see repro.freshness).
            from ..freshness import DeltaCrawl

            return DeltaCrawl(interface, spec, cfg).run()
        session = DiscoverySession.from_config(
            interface, cfg, algorithm=spec.name
        )
        return session.finish(spec, cfg, session.run(spec.run, cfg))

    def run_all(
        self,
        interface: SearchEndpoint,
        *,
        config: DiscoveryConfig | None = None,
        **overrides: Any,
    ) -> dict[str, DiscoveryResult]:
        """Run every applicable registered algorithm on ``interface``.

        Returns ``{registry name: result}`` in registry order.  Runs share
        the interface (and therefore any interface-level budget); each
        result's ``total_cost`` counts only its own queries.
        """
        cfg = self._effective(config, overrides)
        results: dict[str, DiscoveryResult] = {}
        for spec in applicable_algorithms(interface.schema):
            results[spec.name] = self.run(
                interface, spec.name, config=cfg
            )
        return results

    def skyband(
        self,
        interface: SearchEndpoint,
        band: int | None = None,
        algorithm: str | None = None,
        *,
        config: DiscoveryConfig | None = None,
        **overrides: Any,
    ) -> SkybandResult:
        """Discover the top-``band`` skyband of ``interface`` (§7.2).

        ``band`` defaults to ``config.band``.  ``algorithm`` must name a
        registered algorithm with a skyband extension; ``None`` picks the
        highest-priority applicable one (RQ > PQ > SQ for the built-ins).
        The extension body runs through the same session lifecycle as
        :meth:`run`, with run-scoped memoization on unless the config
        turns it off: its overlapping subspace trees re-derive many
        identical queries, and each is billed once.  Band membership is
        decided by counting dominators among the retrieved tuples.
        """
        cfg = self._effective(config, overrides)
        if cfg.mode != "full":
            raise ValueError(
                "skyband discovery supports mode='full' only; run a "
                "mode='delta' repair through Discoverer.run instead"
            )
        if band is not None:
            cfg = cfg.replace(band=band)
        spec = self._skyband_spec_for(interface, algorithm)
        session = DiscoverySession.from_config(
            interface,
            cfg,
            default_dedup=True,
            algorithm=f"{spec.name}:skyband",
        )
        complete = session.run(spec.skyband, cfg.band)
        retrieved = session.retrieved_rows
        result = SkybandResult(
            # RQ-DB-SKY -> RQ-DB-SKYBAND: the extension's reported name.
            algorithm=f"{spec.display_name}BAND",
            band=cfg.band,
            skyband=tuple(
                sorted(
                    skyband_of_rows(retrieved, cfg.band),
                    key=lambda row: (row.values, row.rid),
                )
            ),
            total_cost=session.cost,
            retrieved=tuple(retrieved),
            complete=complete and not session.marked_incomplete,
            config=cfg,
            info=spec.info(),
            query_log=session.log,
            stats=session.engine_stats,
        )
        session.finish_store(result)
        return result

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _effective(
        self, config: DiscoveryConfig | None, overrides: dict[str, Any]
    ) -> DiscoveryConfig:
        cfg = config if config is not None else self._config
        if overrides:
            options = overrides.pop("options", None)
            cfg = cfg.replace(**overrides)
            if options:
                cfg = cfg.with_options(**options)
        return cfg

    @staticmethod
    def _spec_for(
        interface: SearchEndpoint, algorithm: str | None
    ) -> AlgorithmSpec:
        schema = interface.schema
        if algorithm is None:
            return resolve_algorithm(schema)
        spec = get_algorithm(algorithm)
        if not spec.supports(schema):
            kinds = sorted({a.kind.name for a in schema.ranking_attributes})
            raise ValueError(
                f"algorithm {spec.name!r} ({spec.display_name}) does not "
                f"support schemas with ranking kinds {kinds}; it handles "
                f"{'+'.join(spec.taxonomy)}"
            )
        return spec

    @staticmethod
    def _skyband_spec_for(
        interface: SearchEndpoint, algorithm: str | None
    ) -> AlgorithmSpec:
        schema = interface.schema
        if algorithm is not None:
            spec = get_algorithm(algorithm)
            if spec.skyband is None:
                raise ValueError(
                    f"algorithm {spec.name!r} has no skyband extension"
                )
            if not spec.supports_skyband(schema):
                raise ValueError(
                    f"the skyband extension of {spec.name!r} does not "
                    f"support this schema's interface taxonomy"
                )
            return spec
        candidates = sorted(
            (
                spec
                for spec in all_algorithms()
                if spec.supports_skyband(schema)
            ),
            key=lambda spec: (-spec.priority, spec.name),
        )
        if not candidates:
            raise AlgorithmNotFoundError(
                "<no registered skyband extension supports this schema>",
                [spec.name for spec in all_algorithms() if spec.skyband],
            )
        return candidates[0]

    def __repr__(self) -> str:
        return f"Discoverer(config={self._config!r})"


#: Shared default facade backing the module-level convenience functions.
default_discoverer = Discoverer()


def discover(
    interface: SearchEndpoint,
    algorithm: str | None = None,
    **overrides: Any,
) -> DiscoveryResult:
    """Discover the skyline of ``interface`` (module-level convenience).

    Auto-dispatches on the schema's interface taxonomy unless ``algorithm``
    names a registered algorithm.  Equivalent to
    ``Discoverer().run(interface, algorithm, **overrides)``.
    """
    return default_discoverer.run(interface, algorithm, **overrides)


__all__ = ["Discoverer", "default_discoverer", "discover"]
