"""JSONL trace schema, writer lifecycle, and traced-run parity."""

from __future__ import annotations

import io
import json
from collections import Counter

import pytest

from repro import Discoverer
from repro.cli import DATASETS
from repro.core import DiscoveryConfig, all_algorithms
from repro.hiddendb import InterfaceKind, TopKInterface
from repro.hiddendb.query import Query, query_fingerprint
from repro.obs import MetricsRegistry, RunObserver, TraceWriter
from repro.obs.observer import CLASSIFY_PHASES
from repro.store import CrawlStore

from ..conftest import (
    PARITY_TABLES,
    anti_diagonal_pq_table,
    make_table,
    parity_strategy_params,
    truth_values,
)


def spans_of(buffer: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in buffer.getvalue().splitlines()]


# ----------------------------------------------------------------------
# TraceWriter
# ----------------------------------------------------------------------
class TestTraceWriter:
    def test_emit_writes_one_json_line_per_span(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        writer.emit("billed", trace_id="run-abc", key="*")
        writer.emit("merged", trace_id="run", key="*", transported=True)
        writer.flush()  # spans surface at drain points
        spans = spans_of(buffer)
        assert [s["phase"] for s in spans] == ["billed", "merged"]
        assert spans[0]["trace_id"] == "run-abc"
        assert spans[1]["transported"] is True
        assert writer.spans_written == 2

    def test_schema_fields_always_present(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        writer.emit("attempt", trace_id="t", path="/api/query")
        writer.flush()
        (span,) = spans_of(buffer)
        for field in ("seq", "t", "trace_id", "key", "phase"):
            assert field in span
        assert span["key"] is None  # key is explicit, even when unknown

    def test_seq_and_t_are_monotone(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        for _ in range(50):
            writer.emit("x", trace_id="t")
        writer.flush()
        spans = spans_of(buffer)
        assert len(spans) == 50
        seqs = [s["seq"] for s in spans]
        times = [s["t"] for s in spans]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert times == sorted(times)

    def test_path_sink_appends_and_is_owned(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        writer = TraceWriter(target)
        writer.emit("a", trace_id="t")
        writer.close()
        writer2 = TraceWriter(str(target))
        writer2.emit("b", trace_id="t")
        writer2.close()
        phases = [
            json.loads(line)["phase"]
            for line in target.read_text().splitlines()
        ]
        assert phases == ["a", "b"]

    def test_borrowed_file_like_is_never_closed(self):
        buffer = io.StringIO()
        with TraceWriter(buffer) as writer:
            writer.emit("a", trace_id="t")
        assert not buffer.closed

    def test_buffer_auto_drains_at_threshold(self):
        from repro.obs.trace import _DRAIN_EVERY

        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        for _ in range(_DRAIN_EVERY - 1):
            writer.emit("x", trace_id="t")
        assert spans_of(buffer) == []  # still buffered
        writer.emit("x", trace_id="t")
        assert len(spans_of(buffer)) == _DRAIN_EVERY

    def test_emit_after_close_is_dropped(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer)
        writer.close()
        writer.emit("late", trace_id="t")
        assert spans_of(buffer) == []


# ----------------------------------------------------------------------
# RunObserver
# ----------------------------------------------------------------------
class TestRunObserver:
    def test_trace_ids_are_deterministic(self):
        query = Query.select_all()
        a = RunObserver(run_id="runx")
        b = RunObserver(run_id="runx")
        assert a.trace_id(query) == b.trace_id(query)
        assert a.trace_id(query) == f"runx-{query_fingerprint(query)}"

    def test_events_feed_both_metrics_and_spans(self):
        buffer = io.StringIO()
        reg = MetricsRegistry()
        obs = RunObserver(trace=buffer, registry=reg, run_id="r")
        query = Query.select_all()
        obs.classified(query, query.canonical_key(), "dispatched")
        obs.billed(query)
        obs.merged(query.canonical_key(), transported=True)
        obs.client_event("attempt", trace_id="r-x", path="/api/query")
        obs.store_event("ledger_put", key="*")
        obs.shard_event("http://b0", stolen=True)
        obs.close()
        phases = [s["phase"] for s in spans_of(buffer)]
        assert phases == [
            "dispatched", "billed", "merged", "attempt", "ledger_put"
        ]
        assert reg.counter(
            "repro_query_classifications_total", "", ("phase",)
        ).value(phase="dispatched") == 1.0
        assert reg.counter("repro_queries_billed_total").value() == 1.0
        assert reg.counter(
            "repro_work_steals_total", "", ("backend",)
        ).value(backend="http://b0") == 1.0

    def test_checkpoint_events_record_session_timestamps(self):
        obs = RunObserver()
        assert obs.checkpoint_at == {}
        obs.store_event("checkpoint", session_id="s1")
        assert "s1" in obs.checkpoint_at

    def test_metrics_only_observer_needs_no_writer(self):
        obs = RunObserver()
        obs.billed(Query.select_all())
        obs.flush()
        obs.close()


# ----------------------------------------------------------------------
# traced-run parity: tracing must never change skyline or billed cost
# ----------------------------------------------------------------------
def _crawl_table():
    return PARITY_TABLES["rq3"]


@pytest.mark.parametrize(
    "strategy,config", parity_strategy_params(), ids=None
)
def test_traced_crawl_parity_and_span_coverage(strategy, config):
    table = _crawl_table()
    plain = Discoverer(config).run(
        TopKInterface(table, k=5), "baseline"
    )
    buffer = io.StringIO()
    traced = Discoverer(config.replace(trace=buffer)).run(
        TopKInterface(table, k=5), "baseline"
    )
    assert traced.skyline_values == plain.skyline_values
    assert traced.total_cost == plain.total_cost
    spans = spans_of(buffer)
    assert spans, "traced run wrote no spans"
    billed = [s for s in spans if s["phase"] == "billed"]
    # Every billed query produced exactly one billed span...
    assert len(billed) == traced.total_cost
    # ...carrying a trace id, its canonical key, and monotone seq/t.
    for span in billed:
        assert span["trace_id"] and "-" in span["trace_id"]
        assert isinstance(span["key"], str) and span["key"]
    seqs = [s["seq"] for s in spans]
    times = [s["t"] for s in spans]
    assert seqs == sorted(seqs)
    assert times == sorted(times)
    # The drain core classified every dispatched query exactly once.
    dispatched = [s for s in spans if s["phase"] == "dispatched"]
    assert len(dispatched) == traced.total_cost
    merged = [s for s in spans if s["phase"] == "merged"]
    assert len(merged) == traced.total_cost


#: Per registered algorithm, ``(table factory, k)`` of a cold run that
#: bills well over a handful of queries (63 to 753).
COVERAGE_TABLES = {
    "baseline": (lambda: DATASETS["diamonds"](200, 0), 10),
    "mq": (lambda: DATASETS["flights-mixed"](200, 0), 10),
    "pq": (lambda: DATASETS["flights-pq"](500, 0), 10),
    "pq2d": (lambda: anti_diagonal_pq_table(100), 5),
    "rq": (lambda: DATASETS["diamonds"](200, 0), 10),
    "sq": (lambda: DATASETS["flights-range"](200, 0), 10),
}

COVERAGE_SHAPES = {
    "serial": {"strategy": "serial"},
    "async-4x16": {"strategy": "async", "workers": 4, "batch_size": 16},
}


def test_coverage_tables_name_every_registered_algorithm():
    assert sorted(COVERAGE_TABLES) == sorted(
        spec.name for spec in all_algorithms()
    )


@pytest.mark.parametrize("shape", COVERAGE_SHAPES.values(), ids=COVERAGE_SHAPES)
@pytest.mark.parametrize("algorithm", sorted(COVERAGE_TABLES))
def test_every_billed_query_is_dispatched_billed_and_merged_once(
    algorithm, shape
):
    """Sequential steps (``session.issue``) drain like frontier entries,
    so every billed query of every algorithm carries its whole chain."""
    make, k = COVERAGE_TABLES[algorithm]
    buffer = io.StringIO()
    result = Discoverer(DiscoveryConfig(trace=buffer, **shape)).run(
        TopKInterface(make(), k=k), algorithm
    )
    assert result.total_cost > 40
    keys = {"dispatched": Counter(), "billed": Counter(), "merged": Counter()}
    for span in spans_of(buffer):
        if span["phase"] in keys:
            keys[span["phase"]][span["key"]] += 1
    assert sum(keys["billed"].values()) == result.total_cost
    assert keys["dispatched"] == keys["billed"] == keys["merged"]


@pytest.mark.parametrize("shape", COVERAGE_SHAPES.values(), ids=COVERAGE_SHAPES)
@pytest.mark.parametrize("algorithm", sorted(COVERAGE_TABLES))
def test_every_query_is_classified_once_by_the_step_that_answered_it(
    algorithm, shape
):
    """The consult chain (memo, in-flight window, ledger, dispatch) is the
    one place a paid-for answer is reused.  Each query an algorithm asks
    settles in exactly one of its phases, each phase's count is the
    engine counter it feeds, and the memo and a ledger each bill every
    distinct query once."""
    make, k = COVERAGE_TABLES[algorithm]
    table = make()

    def traced(**options):
        buffer = io.StringIO()
        result = Discoverer(
            DiscoveryConfig(trace=buffer, **shape, **options)
        ).run(TopKInterface(table, k=k), algorithm)
        phases = Counter(
            span["phase"] for span in spans_of(buffer)
            if span["phase"] in CLASSIFY_PHASES
        )
        stats = result.stats
        assert phases["dispatched"] == stats.issued == result.total_cost
        assert phases["memo"] == stats.deduped
        assert phases["ledger"] + phases["inflight"] == stats.ledger_hits
        return result, phases

    plain, plain_phases = traced()
    asked = plain.total_cost
    assert sum(plain_phases.values()) == plain_phases["dispatched"] == asked

    store = CrawlStore.memory()
    memo, memo_phases = traced(dedup=True, store=store)
    warm, warm_phases = traced(dedup=True, store=store)
    ledgered, ledger_phases = traced(store=CrawlStore.memory())
    distinct = memo.total_cost
    for phases in (memo_phases, warm_phases, ledger_phases):
        assert sum(phases.values()) == asked
    # Within a run the memo catches every repeat before the ledger sees it.
    assert memo_phases["ledger"] == memo_phases["inflight"] == 0
    # A warm re-run reads each distinct answer from the ledger once; the
    # memo answers its repeats, as in the cold run.
    assert warm.total_cost == 0
    assert warm_phases["ledger"] == distinct
    assert warm_phases["memo"] == memo_phases["memo"] == asked - distinct
    # Without dedup a mounted ledger catches the repeats: one bill each.
    assert ledgered.total_cost == distinct
    assert ledger_phases["memo"] == 0
    if shape["strategy"] == "serial":
        assert ledger_phases["inflight"] == 0
    for result in (memo, warm, ledgered):
        assert result.skyline_values == plain.skyline_values


def test_traced_run_matches_ground_truth_on_auto_dispatch():
    table = make_table(
        [(5, 1), (4, 4), (1, 3), (3, 2), (2, 2)],
        kinds=InterfaceKind.RQ,
        domain=8,
    )
    buffer = io.StringIO()
    result = Discoverer(DiscoveryConfig(trace=buffer)).run(
        TopKInterface(table, k=2)
    )
    assert result.skyline_values == truth_values(table)
    billed = [s for s in spans_of(buffer) if s["phase"] == "billed"]
    assert len(billed) == result.total_cost


def test_observer_detached_after_run():
    table = _crawl_table()
    interface = TopKInterface(table, k=5)
    buffer = io.StringIO()
    Discoverer(DiscoveryConfig(trace=buffer)).run(interface, "baseline")
    before = len(spans_of(buffer))
    Discoverer(DiscoveryConfig()).run(interface, "baseline")
    assert len(spans_of(buffer)) == before, "observer leaked into next run"


class EndpointDied(Exception):
    """The backend went away mid-crawl."""


class DyingEndpoint:
    """An in-process endpoint that dies after ``limit`` billed queries.

    It takes ``attach_observer`` and ``set_replay_nonce`` the way the
    remote clients do, and keeps what a run leaves bound on it.
    """

    def __init__(self, table, limit: int) -> None:
        self._inner = TopKInterface(table, k=5)
        self._limit = limit
        self.observer = None
        self.nonce = None
        self.nonces_set = 0

    @property
    def schema(self):
        return self._inner.schema

    @property
    def k(self) -> int:
        return self._inner.k

    @property
    def queries_issued(self) -> int:
        return self._inner.queries_issued

    def attach_observer(self, observer) -> None:
        self.observer = observer

    def set_replay_nonce(self, nonce) -> None:
        self.nonces_set += nonce is not None
        self.nonce = nonce

    def query(self, query):
        if self._inner.queries_issued >= self._limit:
            raise EndpointDied(f"gone after {self._limit} queries")
        return self._inner.query(query)


DYING_RUNS = {
    "run": lambda disc, endpoint: disc.run(endpoint, "rq"),
    "skyband": lambda disc, endpoint: disc.skyband(endpoint, 2, "rq"),
    "delta": lambda disc, endpoint: disc.run(endpoint, "rq", mode="delta"),
}


@pytest.mark.parametrize("verb", sorted(DYING_RUNS))
def test_crashed_run_writes_its_spans_and_releases_the_client(verb, tmp_path):
    """However a traced durable run dies, every billed query has left its
    ``billed`` span, and neither the observer nor the replay nonce stays
    bound to the client a later run shares."""
    endpoint = DyingEndpoint(DATASETS["diamonds"](300, 0), limit=40)
    trace = tmp_path / "trace.jsonl"
    disc = Discoverer(DiscoveryConfig(trace=trace, store=CrawlStore.memory()))
    with pytest.raises(EndpointDied):
        DYING_RUNS[verb](disc, endpoint)
    assert endpoint.queries_issued == 40
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    assert sum(span["phase"] == "billed" for span in spans) == 40
    assert endpoint.observer is None
    assert endpoint.nonces_set >= 1
    assert endpoint.nonce is None


def test_unopenable_trace_releases_the_client(tmp_path):
    """A durable run whose trace file cannot be opened raises before it
    issues a query, and drops the replay nonce it already set."""
    endpoint = DyingEndpoint(DATASETS["diamonds"](300, 0), limit=40)
    config = DiscoveryConfig(
        trace=tmp_path / "missing" / "trace.jsonl", store=CrawlStore.memory()
    )
    with pytest.raises(FileNotFoundError):
        Discoverer(config).run(endpoint, "rq")
    assert endpoint.queries_issued == 0
    assert endpoint.nonces_set == 1
    assert endpoint.nonce is None


def test_config_rejects_nonsense_trace():
    with pytest.raises(ValueError):
        DiscoveryConfig(trace=123)
