"""End-to-end delta-crawl repairs against mutated in-process endpoints.

The acceptance gates of the freshness plane, at test scale: after a
delete-churn batch the repair must reproduce the from-scratch skyline
exactly for **every** registered algorithm under **every** execution
strategy, while billing no more than the from-scratch crawl (the
benchmark suite gates the <= 50% ratio at realistic scale).  Plus the
mode's edge behaviour: an unchanged endpoint repairs for free, a fresh
store degrades to a full crawl, strict mode surfaces a deterministic
hidden insert the default cascade provably cannot observe, and the config
surface rejects the nonsensical combinations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Discoverer, DiscoveryConfig, all_algorithms
from repro.datagen import churn_ops
from repro.hiddendb import Attribute, InterfaceKind, Schema, Table, TopKInterface
from repro.store import CrawlStore

from ..conftest import PARITY_KIND_MIXES, random_table, strategy_configs

SEED = 20260808
K = 3
N = 300
DOMAIN = 12
#: Delete-only churn ("listings disappear"): every change is observable
#: through the probed frontier, so repair exactness is unconditional.
DELETE_CHURN = (1.0, 0.0, 0.0)


def build_table(kinds) -> Table:
    # Distinct vectors keep BASELINE splittable (> k ties are unsplittable).
    return random_table(
        np.random.default_rng(SEED), kinds, N, DOMAIN, distinct=True
    )


def schema_of(kinds) -> Schema:
    return Schema([
        Attribute(f"a{i}", DOMAIN, kind) for i, kind in enumerate(kinds)
    ])


def delta_params():
    """``(algorithm, kinds, strategy, config)``: the full repair grid."""
    for spec in all_algorithms():
        kinds = next(
            (
                PARITY_KIND_MIXES[name]
                for name in sorted(PARITY_KIND_MIXES)
                if spec.supports(schema_of(PARITY_KIND_MIXES[name]))
            ),
            None,
        )
        assert kinds is not None, f"no candidate shape for {spec.name}"
        for strategy, config in strategy_configs().items():
            yield pytest.param(
                spec.name, kinds, config, id=f"{spec.name}-{strategy}"
            )


def crawl_then_churn(kinds, *, frac=0.10, mix=DELETE_CHURN, algorithm=None,
                     base_config=None):
    """Initial durable crawl, then churn: the repair scenario's setup.

    Returns ``(table, interface, store, initial result)`` with the churn
    already applied to the live table (the store's ledger is now stale).
    """
    table = build_table(kinds)
    interface = TopKInterface(table, k=K, name="delta-under-test")
    store = CrawlStore.memory()
    config = (base_config or DiscoveryConfig()).replace(store=store)
    initial = Discoverer(config).run(interface, algorithm)
    assert initial.complete
    table.apply_mutations(churn_ops(table, frac, seed=SEED + 1, mix=mix))
    return table, interface, store, initial


def scratch_crawl(table, algorithm=None):
    return Discoverer().run(
        TopKInterface(table, k=K, name="delta-under-test"), algorithm
    )


class TestRepairParity:
    @pytest.mark.parametrize("algorithm,kinds,config", delta_params())
    def test_delta_matches_scratch_at_lower_cost(
        self, algorithm, kinds, config
    ):
        table, interface, store, _ = crawl_then_churn(
            kinds, algorithm=algorithm, base_config=config
        )
        scratch = scratch_crawl(table, algorithm)
        repaired = Discoverer(
            config.replace(store=store, mode="delta")
        ).run(interface, algorithm)
        assert repaired.complete
        assert repaired.config.mode == "delta"
        assert repaired.skyline_values == scratch.skyline_values
        report = repaired.freshness
        assert report is not None
        assert report.billed == repaired.total_cost
        assert report.billed <= scratch.total_cost
        assert report.stale_entries > 0
        assert report.probes > 0

    def test_unchanged_endpoint_repairs_for_free(self):
        kinds = PARITY_KIND_MIXES["rq3"]
        table = build_table(kinds)
        interface = TopKInterface(table, k=K, name="delta-under-test")
        store = CrawlStore.memory()
        initial = Discoverer(DiscoveryConfig(store=store)).run(interface)
        repaired = Discoverer(
            DiscoveryConfig(store=store, mode="delta")
        ).run(interface)
        assert repaired.skyline_values == initial.skyline_values
        report = repaired.freshness
        assert report.billed == 0
        assert report.stale_entries == 0
        assert report.probes == 0
        assert report.rounds == 1
        assert not report.skyline_changed

    def test_second_repair_of_same_epoch_is_free(self):
        kinds = PARITY_KIND_MIXES["rq3"]
        table, interface, store, _ = crawl_then_churn(kinds)
        first = Discoverer(
            DiscoveryConfig(store=store, mode="delta")
        ).run(interface)
        assert first.freshness.billed > 0
        again = Discoverer(
            DiscoveryConfig(store=store, mode="delta")
        ).run(interface)
        assert again.skyline_values == first.skyline_values
        assert again.freshness.billed == 0

    def test_repair_restamps_revalidated_entries(self):
        kinds = PARITY_KIND_MIXES["rq3"]
        table, interface, store, _ = crawl_then_churn(kinds)
        fingerprint = store.endpoints()[0].fingerprint
        repaired = Discoverer(
            DiscoveryConfig(store=store, mode="delta")
        ).run(interface)
        report = repaired.freshness
        assert report.revalidated == report.served_stale > 0
        # Re-stamping cleared the revalidated entries: far fewer stale
        # entries remain than the repair started with.
        assert store.ledger_stale_count(fingerprint) < report.stale_entries

    def test_report_tracks_skyline_membership_changes(self):
        kinds = PARITY_KIND_MIXES["rq3"]
        table, interface, store, initial = crawl_then_churn(kinds, frac=0.20)
        scratch = scratch_crawl(table)
        repaired = Discoverer(
            DiscoveryConfig(store=store, mode="delta")
        ).run(interface)
        report = repaired.freshness
        assert report.prior_skyline_size == len(initial.skyline_values)
        assert frozenset(report.skyline_added) == (
            scratch.skyline_values - initial.skyline_values
        )
        assert frozenset(report.skyline_removed) == (
            initial.skyline_values - scratch.skyline_values
        )

    def test_fresh_store_degrades_to_full_crawl(self):
        kinds = PARITY_KIND_MIXES["rq3"]
        table = build_table(kinds)
        interface = TopKInterface(table, k=K, name="delta-under-test")
        scratch = scratch_crawl(table)
        repaired = Discoverer(
            DiscoveryConfig(store=CrawlStore.memory(), mode="delta")
        ).run(interface)
        assert repaired.skyline_values == scratch.skyline_values
        report = repaired.freshness
        assert report.billed == scratch.total_cost
        assert report.stale_entries == 0
        assert report.probes == 0

    def test_partial_prior_crawl_repairs_from_ledger_rows(self):
        """No complete prior result: the prior skyline falls back to the
        rows recorded in the stale ledger."""
        kinds = PARITY_KIND_MIXES["rq3"]
        table = build_table(kinds)
        interface = TopKInterface(table, k=K, name="delta-under-test")
        store = CrawlStore.memory()
        partial = Discoverer(
            DiscoveryConfig(store=store, budget=4)
        ).run(interface)
        assert not partial.complete
        table.apply_mutations(
            churn_ops(table, 0.10, seed=SEED + 1, mix=DELETE_CHURN)
        )
        scratch = scratch_crawl(table)
        repaired = Discoverer(
            DiscoveryConfig(store=store, mode="delta")
        ).run(interface)
        assert repaired.complete
        assert repaired.skyline_values == scratch.skyline_values

    def test_budget_starved_repair_reports_partial(self):
        kinds = PARITY_KIND_MIXES["rq3"]
        table, interface, store, _ = crawl_then_churn(kinds)
        repaired = Discoverer(
            DiscoveryConfig(store=store, mode="delta", budget=3)
        ).run(interface)
        assert not repaired.complete
        assert repaired.freshness.revalidated == 0


class TestStrictMode:
    """A deterministic hidden insert: rows (0,9),(9,0),(3,6),(6,3) at k=1,
    then (8,2) appears.  It never cracks the head window (it ranks below
    every top-1 answer the repair re-bills) and no other churn seeds the
    cascade, so the default repair provably cannot observe it; strict
    revalidation re-bills the uncovered emptiness certificates and finds
    it."""

    ROWS = [(0, 9), (9, 0), (3, 6), (6, 3)]
    HIDDEN = (8, 2)

    def scenario(self):
        schema = Schema(
            [Attribute(f"a{i}", 10, InterfaceKind.RQ) for i in range(2)]
        )
        table = Table(schema, np.array(self.ROWS))
        interface = TopKInterface(table, k=1, name="strict-under-test")
        store = CrawlStore.memory()
        Discoverer(DiscoveryConfig(store=store)).run(interface)
        table.apply_mutations([
            {"op": "insert", "values": list(self.HIDDEN)}
        ])
        return table, interface, store

    def test_default_repair_misses_the_hidden_insert(self):
        table, interface, store = self.scenario()
        repaired = Discoverer(
            DiscoveryConfig(store=store, mode="delta")
        ).run(interface)
        assert self.HIDDEN not in repaired.skyline_values
        assert repaired.freshness.billed < len(self.ROWS) + 1

    def test_strict_repair_finds_the_hidden_insert(self):
        table, interface, store = self.scenario()
        scratch = Discoverer().run(
            TopKInterface(table, k=1, name="strict-under-test")
        )
        assert self.HIDDEN in scratch.skyline_values
        config = DiscoveryConfig(store=store, mode="delta").with_options(
            delta_strict=True
        )
        repaired = Discoverer(config).run(interface)
        assert repaired.skyline_values == scratch.skyline_values

    def test_strict_still_exact_under_delete_churn(self):
        kinds = PARITY_KIND_MIXES["rq3"]
        table, interface, store, _ = crawl_then_churn(kinds)
        scratch = scratch_crawl(table)
        config = DiscoveryConfig(store=store, mode="delta").with_options(
            delta_strict=True
        )
        repaired = Discoverer(config).run(interface)
        assert repaired.skyline_values == scratch.skyline_values


class TestConfigSurface:
    def test_delta_requires_a_store(self):
        with pytest.raises(ValueError, match="store"):
            DiscoveryConfig(mode="delta")

    def test_delta_rejects_resume(self):
        with pytest.raises(ValueError, match="resume"):
            DiscoveryConfig(
                store=CrawlStore.memory(), mode="delta", resume=True
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            DiscoveryConfig(mode="incremental")

    def test_skyband_rejects_delta_mode(self):
        table = build_table(PARITY_KIND_MIXES["rq3"])
        interface = TopKInterface(table, k=K)
        config = DiscoveryConfig(store=CrawlStore.memory(), mode="delta")
        with pytest.raises(ValueError, match="delta"):
            Discoverer(config).skyband(interface, 2)

    @pytest.mark.parametrize("bounds,width", [
        (dict(max_workers=4), 4),
        (dict(min_workers=2, max_workers=3), 3),
    ], ids=["max4", "min2-max3"])
    def test_delta_keeps_the_adaptive_bounds(self, bounds, width):
        """A repair session builds its strategy the way a full crawl does,
        so ``workers="auto"`` keeps the configured window bounds."""
        config = DiscoveryConfig(workers="auto", **bounds)
        _, interface, store, initial = crawl_then_churn(
            PARITY_KIND_MIXES["rq3"], base_config=config
        )
        assert initial.stats.workers == width
        repaired = Discoverer(
            config.replace(store=store, mode="delta")
        ).run(interface)
        assert repaired.complete
        assert repaired.stats.workers == width
