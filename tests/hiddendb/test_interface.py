"""Tests for the top-k search interface."""

import pytest

from repro.hiddendb import (
    InterfaceKind,
    LinearRanker,
    Query,
    QueryBudgetExceeded,
    TopKInterface,
    UnsupportedQueryError,
)

from ..conftest import make_table


class TestBasicQuerying:
    def test_returns_at_most_k(self):
        table = make_table([(i,) for i in range(10)], domain=10)
        interface = TopKInterface(table, k=3)
        result = interface.query(Query.select_all())
        assert [row.values for row in result.rows] == [(0,), (1,), (2,)]
        assert result.overflow

    def test_underflow(self):
        table = make_table([(1,), (2,)], domain=10)
        interface = TopKInterface(table, k=5)
        result = interface.query(Query.select_all())
        assert len(result.rows) == 2
        assert not result.overflow

    def test_exactly_k_matches_reports_overflow(self):
        # A real interface cannot tell "exactly k" from "more than k".
        table = make_table([(1,), (2,)], domain=10)
        interface = TopKInterface(table, k=2)
        assert interface.query(Query.select_all()).overflow

    def test_empty_answer(self):
        table = make_table([(5,)], domain=10)
        interface = TopKInterface(table, k=1)
        result = interface.query(Query.select_all().and_upper(0, 3))
        assert result.is_empty
        with pytest.raises(IndexError):
            result.top

    def test_top_property(self):
        table = make_table([(3,), (1,)], domain=10)
        interface = TopKInterface(table, k=2)
        assert interface.query(Query.select_all()).top.values == (1,)

    def test_domination_consistency_of_answers(self):
        table = make_table([(0, 0), (0, 1), (1, 0)], domain=2)
        interface = TopKInterface(table, k=3)
        rows = interface.query(Query.select_all()).rows
        assert rows[0].values == (0, 0)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            TopKInterface(make_table([(1,)]), k=0)


class TestCounting:
    def test_counts_every_query(self):
        table = make_table([(1,)], domain=10)
        interface = TopKInterface(table, k=1)
        for expected in range(1, 4):
            interface.query(Query.select_all())
            assert interface.queries_issued == expected

    def test_sequence_numbers(self):
        table = make_table([(1,)], domain=10)
        interface = TopKInterface(table, k=1)
        first = interface.query(Query.select_all())
        second = interface.query(Query.select_all())
        assert (first.sequence, second.sequence) == (1, 2)

    def test_reset(self):
        table = make_table([(1,)], domain=10)
        interface = TopKInterface(table, k=1)
        interface.query(Query.select_all())
        interface.reset()
        assert interface.queries_issued == 0


class TestBudget:
    def test_budget_exhaustion(self):
        table = make_table([(1,)], domain=10)
        interface = TopKInterface(table, k=1, budget=2)
        interface.query(Query.select_all())
        interface.query(Query.select_all())
        assert interface.budget_remaining == 0
        with pytest.raises(QueryBudgetExceeded):
            interface.query(Query.select_all())
        # The rejected query is not charged.
        assert interface.queries_issued == 2

    def test_budget_remaining(self):
        table = make_table([(1,)], domain=10)
        interface = TopKInterface(table, k=1, budget=5)
        interface.query(Query.select_all())
        assert interface.budget_remaining == 4

    def test_unlimited_budget(self):
        interface = TopKInterface(make_table([(1,)]), k=1)
        assert interface.budget_remaining is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            TopKInterface(make_table([(1,)]), k=1, budget=-1)

    def test_reset_with_new_budget(self):
        table = make_table([(1,)], domain=10)
        interface = TopKInterface(table, k=1, budget=1)
        interface.query(Query.select_all())
        interface.reset(budget=3)
        assert interface.budget_remaining == 3

    def test_reset_without_budget_keeps_limit(self):
        table = make_table([(1,)], domain=10)
        interface = TopKInterface(table, k=1, budget=2)
        interface.query(Query.select_all())
        interface.reset()
        assert interface.budget == 2
        assert interface.budget_remaining == 2

    def test_reset_budget_none_removes_limit(self):
        table = make_table([(1,)], domain=10)
        interface = TopKInterface(table, k=1, budget=1)
        interface.query(Query.select_all())
        interface.reset(budget=None)
        assert interface.budget is None
        # Formerly impossible: the old API read None as "keep the budget".
        interface.query(Query.select_all())
        interface.query(Query.select_all())
        assert interface.queries_issued == 2

    def test_reset_rejects_invalid_budget(self):
        interface = TopKInterface(make_table([(1,)]), k=1)
        with pytest.raises(ValueError):
            interface.reset(budget=-1)
        with pytest.raises(TypeError):
            interface.reset(budget="many")


class TestValidation:
    def test_rejects_unsupported_predicates(self):
        table = make_table([(1, 1)], kinds=InterfaceKind.PQ, domain=10)
        interface = TopKInterface(table, k=1)
        with pytest.raises(UnsupportedQueryError):
            interface.query(Query.select_all().and_upper(0, 5))

    def test_validation_can_be_disabled(self):
        table = make_table([(1, 1)], kinds=InterfaceKind.PQ, domain=10)
        interface = TopKInterface(table, k=1, validate=False)
        result = interface.query(Query.select_all().and_upper(0, 5))
        assert len(result.rows) == 1


class TestRankerIntegration:
    def test_default_ranker_is_sum(self):
        table = make_table([(9, 0), (1, 1)], domain=10)
        interface = TopKInterface(table, k=1)
        assert interface.query(Query.select_all()).top.values == (1, 1)

    def test_price_ascending_ranker(self):
        table = make_table([(9, 0), (1, 1)], domain=10)
        interface = TopKInterface(
            table, ranker=LinearRanker.single_attribute(0, 2), k=1
        )
        assert interface.query(Query.select_all()).top.values == (1, 1)
