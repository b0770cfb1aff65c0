"""Self-tests of the crawl benchmark, at a tiny n.

* Layer attribution: a fixed delay added through the benchmark's own wrapper
  around one public function per layer must land in that layer's metric and
  in ``crawl_s``, and not in any other layer's.
* Seed check: every workload passes every correctness gate at a second seed.
* The gates can fail: a wrong oracle or reference is reported by name.
* The host-speed clock scales crawl times by its probe and unhooks itself.

Run from the repository root with ``python -m pytest crawlbench``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from bench_trace import SpanStats, Tracer
from bench_workloads import PROBE_REFERENCE_S, WORKLOADS
from repro.core.base import DiscoverySession
from run import crawl_layers

ROOT = Path(__file__).resolve().parent.parent
TINY_N = 1500

#: Self-time metrics of every layer; an injected delay may move only its own.
LAYER_TIMES = (
    "core.expand.self_s",
    "core.base.record_s",
    "core.base.retrieved_rows_s",
    "core.dominance.final_s",
    "core.dominance.track_s",
    "hiddendb.query_s",
    "service.aclient.rtt_s",
    "service.wire.encode_s",
    "service.wire.decode_s",
    "store.put_s",
    "store.get_s",
    "store.checkpoint_s",
)


@pytest.fixture
def make_workload(tmp_path):
    opened = []

    def make(name: str, seed: int = 0):
        workload = WORKLOADS[name](seed, TINY_N, tmp_path, ROOT)
        opened.append(workload)
        workload.setup()
        workload.prepare()
        return workload

    yield make
    for workload in opened:
        workload.teardown()


def traced_crawl(workload, index: int, delays=None):
    tracer = Tracer(delays)
    with tracer.installed():
        sample = workload.crawl(index, tracer)
    stats = SpanStats(tracer.crawl_spans(index))
    return sample, stats, crawl_layers(stats, tracer.counters[index], sample)


@pytest.mark.parametrize(
    "workload_name, span, delay, metric",
    [
        ("durable-baseline", "store.put", 0.002, "store.put_s"),
        ("remote-baseline", "service.aclient.rtt", 0.002,
         "service.aclient.rtt_s"),
        ("local-rq", "core.dominance.final", 0.3, "core.dominance.final_s"),
    ],
)
def test_injected_delay_lands_in_its_layer(
    make_workload, workload_name, span, delay, metric
):
    workload = make_workload(workload_name)
    base_sample, _, base = traced_crawl(workload, 1)
    slow_sample, stats, slow = traced_crawl(workload, 2, {span: delay})
    injected = stats.calls[span] * delay
    assert injected >= 0.25
    assert slow[metric] - base[metric] >= 0.9 * injected
    # Unscaled: the delay is wall time, not host speed.
    assert (slow_sample.layer["bench.raw_crawl_s"]
            - base_sample.layer["bench.raw_crawl_s"]) >= 0.9 * injected
    for other in LAYER_TIMES:
        if other != metric:
            assert abs(slow[other] - base[other]) < 0.2 * injected, other
    assert not base_sample.failures and not slow_sample.failures


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_every_gate_passes(make_workload, workload_name, seed):
    workload = make_workload(workload_name, seed)
    first = workload.crawl(1)
    second, _, layers = traced_crawl(workload, 2)
    assert first.failures == [] and second.failures == []
    assert first.billed == second.billed > 0
    assert layers["core.engine.issued"] >= first.billed


def test_clock_scales_by_its_probe_and_unhooks(make_workload):
    record = DiscoverySession.__dict__["record"]
    sample = make_workload("durable-baseline").crawl(1)
    raw, probe = (sample.layer[name]
                  for name in ("bench.raw_crawl_s", "bench.host_probe_s"))
    assert probe > 0 and raw > 0
    assert sample.crawl_s == pytest.approx(raw * PROBE_REFERENCE_S / probe)
    assert DiscoverySession.__dict__["record"] is record


def test_gates_report_wrong_answers_by_name(make_workload):
    workload = make_workload("durable-baseline")
    workload.oracle = frozenset()
    workload.reference += 1
    failures = workload.crawl(1).failures
    assert "cold.skyline_equals_oracle" in failures
    assert "warm.skyline_equals_oracle" in failures
    assert "cold.billed_equals_serial_reference" in failures
