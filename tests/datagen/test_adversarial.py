"""Tests for the adversarial constructions from the paper's proofs."""

import numpy as np
import pytest

from repro import Discoverer
from repro.datagen.adversarial import (
    priority_case_study_table,
    theorem1_skyline_size,
    theorem1_table,
)
from repro.hiddendb import InterfaceKind, TopKInterface

from ..conftest import truth_values


class TestTheorem1Construction:
    def test_blockers_do_not_join_the_skyline_count(self):
        table = theorem1_table(m=3, s=4)
        assert theorem1_skyline_size(table) == 4

    def test_blockers_are_skyline_but_harmless(self):
        """Each blocker holds the best value on m-1 attributes, so it is on
        the skyline, but it dominates no permutation tuple (the proof's
        second observation)."""
        table = theorem1_table(m=3, s=4)
        assert len(table.skyline_indices()) == 3 + 4

    def test_any_short_query_returns_a_blocker(self):
        """The proof's first observation: a query with fewer than m
        predicates always matches some blocker, which then outranks every
        permutation tuple under a sum ranking restricted to it."""
        table = theorem1_table(m=3, s=3)
        matrix = table.matrix
        blockers = matrix[:3]
        # Every single-attribute restriction keeps at least one blocker.
        for attribute in range(3):
            for bound in range(1, int(matrix[:, attribute].max()) + 1):
                matching = blockers[blockers[:, attribute] < bound]
                if bound > 1:
                    assert len(matching) >= 2

    def test_all_values_unique_per_attribute_among_skyline(self):
        table = theorem1_table(m=3, s=6)
        permutation_rows = table.matrix[3:]
        for column in range(3):
            values = permutation_rows[:, column]
            assert len(np.unique(values)) == len(values)

    def test_sq_discovery_is_complete_and_lower_bounded(self):
        """SQ-DB-SKY stays correct on the adversarial family, and its cost
        respects the Theorem-1 lower bound C(s, m) for every skyline size."""
        from repro.core.analysis import sq_lower_bound_order
        from repro.hiddendb import LexicographicRanker

        previous = 0
        for s in (2, 4, 6):
            table = theorem1_table(m=3, s=s)
            interface = TopKInterface(
                table, ranker=LexicographicRanker(), k=1
            )
            result = Discoverer().run(interface, "sq")
            assert result.skyline_values == truth_values(table)
            assert result.total_cost >= sq_lower_bound_order(3, s)
            assert result.total_cost > previous
            previous = result.total_cost

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem1_table(m=1, s=1)
        with pytest.raises(ValueError):
            theorem1_table(m=2, s=0)
        with pytest.raises(ValueError):
            theorem1_table(m=2, s=3)  # only 2 permutations exist

    def test_kind_override(self):
        table = theorem1_table(m=2, s=2, kind=InterfaceKind.RQ)
        assert all(a.kind is InterfaceKind.RQ
                   for a in table.schema.ranking_attributes)


class TestPriorityCaseStudy:
    def test_every_x_and_y_value_occupied_at_z0(self):
        table, _ = priority_case_study_table(dom_x=5, dom_y=5, seed=2)
        z0 = table.matrix[table.matrix[:, 2] == 0]
        assert set(z0[:, 0]) == set(range(5))
        assert set(z0[:, 1]) == set(range(5))

    def test_ranker_prioritises_z(self):
        table, ranker = priority_case_study_table(seed=3)
        interface = TopKInterface(table, ranker=ranker, k=1)
        from repro.hiddendb import Query

        answer = interface.query(Query.select_all())
        assert answer.top.values[2] == 0

    def test_pq_discovery_complete_under_priority_ranking(self):
        table, ranker = priority_case_study_table(seed=4)
        interface = TopKInterface(table, ranker=ranker, k=2)
        result = Discoverer().run(interface, "pq")
        assert result.skyline_values == truth_values(table)
