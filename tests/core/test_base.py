"""Tests for the discovery session and result machinery."""

import gc
import weakref

import pytest

from repro import CrawlStore, Discoverer, DiscoveryConfig
from repro.core import base
from repro.core.base import DiscoverySession
from repro.core.dominance import skyline_of_rows
from repro.core.registry import register_algorithm, unregister_algorithm
from repro.hiddendb import InterfaceKind, Query, TopKInterface

from ..conftest import make_table, parity_run_params


def _interface(values=((0, 9), (5, 5), (9, 0), (6, 6)), k=2, **kwargs):
    return TopKInterface(make_table(values, domain=10), k=k, **kwargs)


class TestDiscoverySession:
    def test_cost_is_relative_to_session_start(self):
        interface = _interface()
        interface.query(Query.select_all())  # pre-session traffic
        session = DiscoverySession(interface)
        assert session.cost == 0
        session.issue(Query.select_all())
        assert session.cost == 1
        assert interface.queries_issued == 2

    def test_first_seen_records_earliest_cost(self):
        session = DiscoverySession(_interface())
        session.issue(Query.select_all())
        session.issue(Query.select_all())
        result = session.result("X")
        assert all(entry.cost == 1 for entry in result.trace)

    def test_retrieved_rows_deduplicated(self):
        session = DiscoverySession(_interface())
        session.issue(Query.select_all())
        session.issue(Query.select_all())
        rids = [row.rid for row in session.retrieved_rows]
        assert len(rids) == len(set(rids))

    def test_has_retrieved(self):
        session = DiscoverySession(_interface(k=4))
        assert not session.has_retrieved(0)
        session.issue(Query.select_all())
        assert session.has_retrieved(0)

    def test_base_query_applied_to_every_issue(self):
        table = make_table(
            [(1,), (2,)],
            filters={"city": [0, 1]},
            filter_domains={"city": 2},
        )
        interface = TopKInterface(table, k=5)
        base = Query.select_all().and_filter("city", 1)
        session = DiscoverySession(interface, base)
        result = session.issue(Query.select_all())
        assert [row.values for row in result.rows] == [(2,)]

    def test_contradictory_base_raises(self):
        session = DiscoverySession(_interface(), Query.select_all().and_upper(0, 2))
        with pytest.raises(ValueError):
            session.issue(Query.select_all().and_lower(0, 5, 10))

    def test_log_records_results(self):
        session = DiscoverySession(_interface(), record_log=True)
        session.issue(Query.select_all())
        assert len(session.log) == 1

    def test_no_log_unless_asked(self):
        session = DiscoverySession(_interface())
        session.issue(Query.select_all())
        assert session.log == ()

    def test_confirmed_skyline_filters_dominated(self):
        session = DiscoverySession(_interface(k=4))
        session.issue(Query.select_all())
        values = {row.values for row in session.confirmed_skyline()}
        assert values == {(0, 9), (5, 5), (9, 0)}


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "store"])
@pytest.mark.parametrize("algorithm,table", list(parity_run_params()))
def test_maintained_skyline_matches_one_pass(
    monkeypatch, algorithm, table, durable
):
    """Folded every few rows, the maintained skyline still yields the
    skyline of everything retrieved, and so do durable checkpoints."""
    monkeypatch.setattr(base, "FOLD_ROWS", 7)
    store = CrawlStore.memory() if durable else None
    result = Discoverer(DiscoveryConfig(store=store)).run(
        TopKInterface(table, k=5, name=algorithm), algorithm
    )
    assert set(result.skyline) == set(skyline_of_rows(result.retrieved))
    if durable:
        checkpoint = store.sessions()[0].checkpoint
        assert checkpoint["skyline"] == sorted(
            list(vector) for vector in result.skyline_values
        )


@pytest.mark.parametrize(
    "shape", [{}, {"workers": 4, "batch_size": 4}], ids=["serial", "4x4"]
)
def test_unlogged_run_keeps_no_merged_answer_alive(shape):
    """Without ``record_log`` a crawl lets each answer go once it is
    recorded: weak references to the answers merged a window or more
    before a later one are all dead by then.  (A batch's transport holds
    its answers until the last of them merges.)"""
    table = make_table(
        [(i % 13, (7 * i) % 11, (5 * i) % 17) for i in range(300)],
        domain=17,
    )
    window = shape.get("workers", 1) * shape.get("batch_size", 1)
    refs: list[weakref.ref] = []
    alive: list[int] = []

    def on_query(result):
        if len(refs) > window and len(refs) % 16 == 0:
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs[:-window]))
        refs.append(weakref.ref(result))

    result = Discoverer(DiscoveryConfig(on_query=on_query, **shape)).run(
        TopKInterface(table, k=4), "baseline"
    )
    assert len(alive) > 4
    assert alive == [0] * len(alive)
    assert result.query_log == ()

    logged = Discoverer(
        DiscoveryConfig(record_log=True, **shape)
    ).run(TopKInterface(table, k=4), "baseline")
    assert len(logged.query_log) == logged.total_cost == result.total_cost


def test_fold_hands_the_kernel_each_new_vector_once(monkeypatch):
    """Rows tying a vector -- kept or in the same block -- join its rows;
    the block kernel sees new distinct vectors only."""
    blocks = []
    update = base.incremental_skyline_update

    def spy(kept, block):
        blocks.append(sorted(map(tuple, block.tolist())))
        return update(kept, block)

    monkeypatch.setattr(base, "incremental_skyline_update", spy)
    monkeypatch.setattr(base, "FOLD_ROWS", 4)
    table = make_table([(1, 2)] * 6 + [(2, 1)] * 5 + [(3, 3)] * 5, domain=5)
    session = DiscoverySession(TopKInterface(table, k=16))
    session.issue(Query.select_all())
    assert blocks == [[(1, 2), (2, 1), (3, 3)]]
    result = session.result("ties")
    assert len(result.skyline) == 11
    assert set(result.skyline_values) == {(1, 2), (2, 1)}


class TestDiscoveryResult:
    def _result(self):
        session = DiscoverySession(_interface(k=4))
        session.issue(Query.select_all())
        return session.result("TEST")

    def test_skyline_excludes_dominated_retrievals(self):
        result = self._result()
        assert result.skyline_values == {(0, 9), (5, 5), (9, 0)}
        assert result.skyline_size == 3

    def test_trace_is_sorted_and_covers_skyline(self):
        result = self._result()
        costs = [entry.cost for entry in result.trace]
        assert costs == sorted(costs)
        assert {entry.row.values for entry in result.trace} == result.skyline_values

    def test_discovery_curve_monotone(self):
        result = self._result()
        curve = result.discovery_curve()
        assert curve == [(1, 3)]

    def test_discovered_within(self):
        result = self._result()
        assert len(result.discovered_within(0)) == 0
        assert len(result.discovered_within(1)) == 3

    def test_cost_of_discovery_bounds(self):
        result = self._result()
        assert result.cost_of_discovery(1) == 1
        with pytest.raises(IndexError):
            result.cost_of_discovery(4)
        with pytest.raises(IndexError):
            result.cost_of_discovery(0)

    def test_repr_mentions_algorithm(self):
        assert "TEST" in repr(self._result())


@pytest.fixture
def body_algorithm():
    """A registered runner that runs ``options["body"]`` on its session."""

    @register_algorithm(
        "tmp-body-test", display_name="X", kinds=(InterfaceKind.RQ,)
    )
    def runner(session, config):
        config.option("body")(session)

    yield "tmp-body-test"
    unregister_algorithm("tmp-body-test")


class TestBudgetGuard:
    def test_budget_exhaustion_yields_partial_result(self, body_algorithm):
        interface = _interface(k=1, budget=2)

        def body(session):
            for _ in range(10):
                session.issue(Query.select_all())

        result = Discoverer().run(
            interface, body_algorithm, options={"body": body}
        )
        assert not result.complete
        assert result.total_cost == 2
        assert len(result.retrieved) == 1

    def test_normal_completion(self, body_algorithm):
        result = Discoverer().run(
            _interface(),
            body_algorithm,
            options={"body": lambda session: session.issue(Query.select_all())},
        )
        assert result.complete
