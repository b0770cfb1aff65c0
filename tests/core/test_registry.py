"""Tests for the algorithm registry and the Discoverer facade."""

import warnings

import numpy as np
import pytest

from repro import Discoverer, DiscoveryConfig, discover
from repro.core import (
    AlgorithmNotFoundError,
    DuplicateAlgorithmError,
    algorithm_names,
    applicable_algorithms,
    get_algorithm,
    register_algorithm,
    resolve_algorithm,
)
from repro.core.registry import unregister_algorithm
from repro.hiddendb import InterfaceKind, TopKInterface

from ..conftest import make_table, random_table, truth_band_values, truth_values

SQ = InterfaceKind.SQ
RQ = InterfaceKind.RQ
PQ = InterfaceKind.PQ


def interface_for(rng, kinds, n=200, domain=12, k=5) -> TopKInterface:
    return TopKInterface(random_table(rng, kinds, n, domain), k=k)


class TestRegistry:
    def test_builtin_algorithms_registered(self):
        names = algorithm_names()
        for expected in ("sq", "rq", "pq", "pq2d", "mq", "baseline"):
            assert expected in names

    def test_lookup_is_case_insensitive(self):
        assert get_algorithm("RQ") is get_algorithm("rq")

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(AlgorithmNotFoundError) as excinfo:
            get_algorithm("nope")
        assert "rq" in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        @register_algorithm(
            "tmp-dup-test", display_name="TMP", kinds=(RQ,)
        )
        def runner(session, config):  # pragma: no cover - never run
            pass

        try:
            with pytest.raises(DuplicateAlgorithmError):
                register_algorithm(
                    "TMP-DUP-TEST", display_name="TMP2", kinds=(RQ,)
                )(runner)
        finally:
            unregister_algorithm("tmp-dup-test")

    def test_registered_algorithm_is_runnable_through_facade(self):
        from repro.core.sq import sq_db_sky

        @register_algorithm(
            "tmp-run-test",
            display_name="TMP-DB-SKY",
            kinds=(SQ, RQ),
            capabilities=("anytime",),
        )
        def runner(session, config):
            sq_db_sky(session)

        try:
            table = make_table([(5, 1), (1, 5), (3, 3)], kinds=RQ, domain=6)
            result = Discoverer().run(
                TopKInterface(table, k=1), "tmp-run-test"
            )
            assert result.algorithm == "TMP-DB-SKY"
            assert result.skyline_values == truth_values(table)
            assert result.info.name == "tmp-run-test"
            assert result.info.capabilities == ("anytime",)
        finally:
            unregister_algorithm("tmp-run-test")

    def test_spec_taxonomy_and_capabilities(self):
        rq = get_algorithm("rq")
        assert rq.taxonomy == ("SQ", "RQ")
        assert "anytime" in rq.capabilities
        assert "skyband" in rq.capabilities  # attached by repro.core.skyband
        assert get_algorithm("baseline").skyband is None

    def test_applicable_algorithms_mixed_schema(self):
        schema = make_table(
            [(1, 2, 3)], kinds=[SQ, RQ, PQ], domain=5
        ).schema
        names = {spec.name for spec in applicable_algorithms(schema)}
        assert names == {"mq", "baseline"}


class TestAutoDispatchParity:
    """Auto-dispatch targets.  The algorithm, billed cost, skyline size and
    query sequence of every auto-dispatched run on each kind mix are pinned
    by the golden cost table (``tests/core/test_golden_costs.py``)."""

    def test_resolver_targets(self):
        def resolved(kinds):
            schema = make_table(
                [tuple(range(len(kinds)))], kinds=kinds, domain=9
            ).schema
            return resolve_algorithm(schema).name

        assert resolved([SQ, SQ]) == "sq"
        assert resolved([RQ, SQ]) == "rq"
        assert resolved([RQ, RQ]) == "rq"
        assert resolved([PQ, PQ, PQ]) == "pq"
        assert resolved([SQ, RQ, PQ]) == "mq"


class TestDiscovererRun:
    def test_unsupported_algorithm_rejected(self):
        table = make_table([(1, 2)], kinds=PQ, domain=4)
        with pytest.raises(ValueError, match="does not support"):
            Discoverer().run(TopKInterface(table, k=1), "rq")

    def test_result_carries_config_and_info(self):
        table = make_table([(5, 1), (1, 5)], kinds=RQ, domain=6)
        config = DiscoveryConfig(budget=500)
        result = Discoverer(config).run(TopKInterface(table, k=1))
        assert result.config == config
        assert result.info.name == "rq"
        assert result.info.display_name == "RQ-DB-SKY"

    def test_budget_yields_partial_result(self):
        rng = np.random.default_rng(3)
        interface = interface_for(rng, [RQ, RQ, RQ], n=400, k=1)
        full = Discoverer().run(interface)
        assert full.total_cost > 2
        partial = Discoverer().run(interface, budget=2)
        assert not partial.complete
        assert partial.total_cost <= 2

    def test_progress_hooks_fire(self):
        rng = np.random.default_rng(5)
        interface = interface_for(rng, [RQ, RQ], n=300, domain=20, k=3)
        queries, tuples = [], []
        result = Discoverer().run(
            interface,
            on_query=queries.append,
            on_tuple=tuples.append,
        )
        assert len(queries) == result.total_cost
        assert len(tuples) == len(result.retrieved)
        # The hook entries reproduce the anytime trace for skyline tuples.
        skyline_rids = {row.rid for row in result.skyline}
        hook_trace = tuple(
            entry for entry in tuples if entry.row.rid in skyline_rids
        )
        assert sorted(hook_trace, key=lambda e: (e.cost, e.row.rid)) == list(
            result.trace
        )

    def test_record_log_attaches_query_log(self):
        table = make_table([(5, 1), (1, 5), (3, 3)], kinds=RQ, domain=6)
        result = Discoverer().run(
            TopKInterface(table, k=1), record_log=True
        )
        assert len(result.query_log) == result.total_cost
        bare = Discoverer().run(TopKInterface(table, k=1))
        assert bare.query_log == ()

    def test_options_forwarded_to_runner(self):
        rng = np.random.default_rng(11)
        plain_iface = interface_for(rng, [RQ, RQ, RQ], n=300, k=1)
        rng = np.random.default_rng(11)
        ablated_iface = interface_for(rng, [RQ, RQ, RQ], n=300, k=1)
        plain = Discoverer().run(plain_iface, "rq")
        ablated = Discoverer().run(
            ablated_iface, "rq", options={"early_termination": False}
        )
        assert plain.skyline_values == ablated.skyline_values
        assert plain.total_cost <= ablated.total_cost

    def test_run_all_mixed_schema(self):
        rng = np.random.default_rng(2)
        interface = interface_for(rng, [SQ, RQ, PQ], n=150, domain=8)
        results = Discoverer().run_all(interface)
        assert set(results) == {"mq", "baseline"}
        truth = results["mq"].skyline_values
        for name, result in results.items():
            assert result.info.name == name
            assert result.skyline_values == truth, name

    def test_run_all_pure_range_schema(self):
        rng = np.random.default_rng(4)
        interface = interface_for(rng, [RQ, RQ], n=150, domain=15)
        results = Discoverer().run_all(interface)
        assert set(results) == {"sq", "rq", "pq2d", "mq", "baseline"}


class TestDiscovererSkyband:
    def test_auto_dispatch_rq(self):
        rng = np.random.default_rng(9)
        table = random_table(rng, [RQ, RQ], 200, 15)
        result = Discoverer().skyband(TopKInterface(table, k=10), band=2)
        assert result.algorithm == "RQ-DB-SKYBAND"
        assert result.band == 2
        assert result.complete
        assert result.skyband_values == truth_band_values(table, 2)
        assert result.info.name == "rq"
        assert result.config.band == 2

    def test_auto_dispatch_pq(self):
        rng = np.random.default_rng(10)
        table = random_table(rng, [PQ, PQ], 150, 10)
        result = Discoverer().skyband(TopKInterface(table, k=10), band=2)
        assert result.algorithm == "PQ-DB-SKYBAND"
        assert result.skyband_values == truth_band_values(table, 2)

    def test_explicit_algorithm_without_skyband_rejected(self):
        rng = np.random.default_rng(12)
        table = random_table(rng, [RQ, RQ], 50, 8)
        with pytest.raises(ValueError, match="no skyband extension"):
            Discoverer().skyband(TopKInterface(table, k=5), 2, "baseline")

    def test_band_default_from_config(self):
        rng = np.random.default_rng(13)
        table = random_table(rng, [RQ, RQ], 100, 10)
        disc = Discoverer(DiscoveryConfig(band=3))
        result = disc.skyband(TopKInterface(table, k=10))
        assert result.band == 3


class TestDeprecationShims:
    """``repro.discover`` runs without a ``DeprecationWarning``."""

    def test_discover_convenience_does_not_warn(self):
        rng = np.random.default_rng(6)
        interface = interface_for(rng, [RQ, RQ], n=60, domain=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = discover(interface)
        assert result.algorithm == "RQ-DB-SKY"


class TestDiscoveryConfig:
    def test_frozen_and_validated(self):
        config = DiscoveryConfig()
        with pytest.raises(AttributeError):
            config.budget = 3
        with pytest.raises(ValueError):
            DiscoveryConfig(budget=-1)
        with pytest.raises(ValueError):
            DiscoveryConfig(band=0)

    def test_replace_and_options(self):
        config = DiscoveryConfig(budget=10).with_options(plane_limit=99)
        assert config.budget == 10
        assert config.option("plane_limit") == 99
        assert config.replace(band=2).band == 2
        assert config.option("missing", "fallback") == "fallback"
