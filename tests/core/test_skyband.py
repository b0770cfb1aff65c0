"""Tests for the K-skyband discovery extensions (§7.2)."""

import numpy as np
import pytest

from repro.core import Discoverer
from repro.core.skyband import _domination_subspace_roots
from repro.hiddendb import InterfaceKind, Row, TopKInterface

from ..conftest import make_table, random_table, truth_band_values

K = InterfaceKind


class TestDominationSubspaceRoots:
    def test_roots_partition_dominated_region(self):
        domain_sizes = (4, 4)
        row = Row(0, (1, 2))
        roots = _domination_subspace_roots(row, domain_sizes)
        covered = set()
        for x in range(4):
            for y in range(4):
                matches = [r for r in roots if r.matches_values((x, y))]
                dominated = (x >= 1 and y >= 2) and (x, y) != (1, 2)
                assert len(matches) == (1 if dominated else 0), (x, y)
                if matches:
                    covered.add((x, y))
        assert (1, 2) not in covered

    def test_worst_corner_has_no_roots(self):
        roots = _domination_subspace_roots(Row(0, (3, 3)), (4, 4))
        assert roots == []


class TestRQSkyband:
    @pytest.mark.parametrize("band", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_ground_truth(self, band, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, [K.RQ] * 3, n=120, domain=7, distinct=True)
        result = Discoverer().skyband(TopKInterface(table, k=2), band, "rq")
        assert result.complete
        assert result.skyband_values == truth_band_values(table, band)

    def test_band_one_equals_skyline(self):
        rng = np.random.default_rng(4)
        table = random_table(rng, [K.RQ] * 2, n=60, domain=9, distinct=True)
        result = Discoverer().skyband(TopKInterface(table, k=1), 1, "rq")
        assert result.skyband_values == truth_band_values(table, 1)

    def test_band_must_be_positive(self):
        table = make_table([(1, 1)], domain=3)
        with pytest.raises(ValueError):
            Discoverer().skyband(TopKInterface(table, k=1), 0, "rq")

    def test_result_metadata(self):
        table = make_table([(0, 1), (1, 0)], domain=3)
        result = Discoverer().skyband(TopKInterface(table, k=1), 2, "rq")
        assert result.algorithm == "RQ-DB-SKYBAND"
        assert result.band == 2
        assert "RQ-DB-SKYBAND" in repr(result)

    def test_budget_partial_is_flagged(self):
        """A budget-cut skyband run is flagged incomplete.  Unlike skyline
        discovery, partial skybands carry no subset guarantee: a tuple's
        dominators may be among the unretrieved tuples, so its band level
        can be underestimated."""
        rng = np.random.default_rng(5)
        table = random_table(rng, [K.RQ] * 3, n=200, domain=7, distinct=True)
        full = Discoverer().skyband(TopKInterface(table, k=1), 2, "rq")
        assert full.total_cost > 2
        partial = Discoverer().skyband(
            TopKInterface(table, k=1, budget=full.total_cost // 2), 2, "rq"
        )
        assert not partial.complete
        assert partial.skyband_values  # still returns a best-effort band


class TestPQSkyband:
    @pytest.mark.parametrize("band,k", [(1, 1), (2, 2), (2, 1), (3, 2), (3, 4)])
    def test_matches_ground_truth(self, band, k):
        rng = np.random.default_rng(band * 10 + k)
        table = random_table(rng, [K.PQ] * 3, n=100, domain=6, distinct=True)
        result = Discoverer().skyband(TopKInterface(table, k=k), band, "pq")
        assert result.complete
        assert result.skyband_values == truth_band_values(table, band)

    def test_band_larger_than_k_uses_point_queries(self):
        """band > k exercises the 0-D drain of §7.2."""
        rng = np.random.default_rng(40)
        table = random_table(rng, [K.PQ] * 2, n=60, domain=8, distinct=True)
        result = Discoverer().skyband(TopKInterface(table, k=1), 3, "pq")
        assert result.skyband_values == truth_band_values(table, 3)

    def test_band_validation(self):
        table = make_table([(1, 1)], kinds=K.PQ, domain=3)
        with pytest.raises(ValueError):
            Discoverer().skyband(TopKInterface(table, k=1), 0, "pq")


class TestSQSkyband:
    def test_complete_with_generous_k(self):
        rng = np.random.default_rng(50)
        table = random_table(rng, [K.SQ] * 2, n=80, domain=8, distinct=True)
        result = Discoverer().skyband(TopKInterface(table, k=40), 2, "sq")
        if result.complete:
            assert result.skyband_values == truth_band_values(table, 2)

    def test_partial_results_are_sound(self):
        rng = np.random.default_rng(51)
        table = random_table(rng, [K.SQ] * 2, n=100, domain=8, distinct=True)
        result = Discoverer().skyband(TopKInterface(table, k=2), 3, "sq")
        assert result.skyband_values <= truth_band_values(table, 3)

    def test_band_one_reduces_to_sq_db_sky(self):
        rng = np.random.default_rng(52)
        table = random_table(rng, [K.SQ] * 2, n=80, domain=8, distinct=True)
        result = Discoverer().skyband(TopKInterface(table, k=1), 1, "sq")
        assert result.complete
        assert result.skyband_values == truth_band_values(table, 1)

    def test_band_validation(self):
        table = make_table([(1, 1)], kinds=K.SQ, domain=3)
        with pytest.raises(ValueError):
            Discoverer().skyband(TopKInterface(table, k=1), 0, "sq")


class TestBandNesting:
    def test_bands_nest_across_levels(self):
        rng = np.random.default_rng(60)
        table = random_table(rng, [K.RQ] * 2, n=100, domain=9, distinct=True)
        previous: frozenset = frozenset()
        for band in (1, 2, 3):
            result = Discoverer().skyband(
                TopKInterface(table, k=2), band, "rq"
            )
            assert previous <= result.skyband_values
            previous = result.skyband_values
