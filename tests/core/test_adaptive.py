"""Units for the AIMD adaptive-window controller and its wiring.

The controller is pure control flow over an injectable clock, so every
behaviour -- slow-start ramp, epoch-guarded multiplicative decrease,
floor/ceiling clamps, the ``Retry-After`` hold-off -- is tested
deterministically, without a server or threads.  Wiring tests cover
``resolve_workers``, ``make_strategy(workers="auto")`` and the
``DiscoveryConfig`` validation surface.
"""

import pytest

from repro.core import DiscoveryConfig, EngineStats, make_strategy
from repro.core.adaptive import (
    DEFAULT_MAX_WORKERS,
    DEFAULT_MIN_WORKERS,
    AdaptiveWindow,
    resolve_workers,
)
from repro.core.engine import AsyncStrategy


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestAdaptiveWindow:
    def test_starts_at_min_size(self):
        window = AdaptiveWindow(min_size=2, max_size=16)
        assert window.size == 2

    def test_initial_is_clamped_to_bounds(self):
        assert AdaptiveWindow(min_size=2, max_size=8, initial=64).size == 8
        assert AdaptiveWindow(min_size=2, max_size=8, initial=0).size == 2

    def test_slow_start_grows_one_per_completion(self):
        # Before any congestion the window is in slow start: +1 per
        # clean completion, so it doubles per window's worth of acks.
        window = AdaptiveWindow(min_size=1, max_size=32)
        for _ in range(7):
            window.record_success()
        assert window.size == 8

    def test_full_clean_window_grows_width_by_about_one(self):
        # After the first back-off, AIMD's congestion avoidance:
        # +increase/window per completion, so roughly one full window of
        # clean completions adds one to the width.
        window = AdaptiveWindow(min_size=1, max_size=32, initial=8,
                                decrease=0.5)
        window.record_pressure()  # exits slow start; 8 -> 4
        assert window.size == 4
        for _ in range(5):
            window.record_success()
        assert window.size == 5

    def test_ramp_is_bounded_by_ceiling(self):
        window = AdaptiveWindow(min_size=1, max_size=8)
        for _ in range(1000):
            window.record_success()
        assert window.size == 8

    def test_pressure_shrinks_multiplicatively(self):
        window = AdaptiveWindow(min_size=1, max_size=32, initial=16,
                                decrease=0.5)
        assert window.record_pressure()
        assert window.size == 8
        # Default back-off is the gentler x0.75.
        gentle = AdaptiveWindow(min_size=1, max_size=32, initial=16)
        gentle.record_pressure()
        assert gentle.size == 12

    def test_pressure_burst_collapses_once_per_epoch(self):
        # A burst of simultaneous 429s out of one 16-wide window must
        # shrink the window once, not 16 times.
        window = AdaptiveWindow(min_size=1, max_size=32, initial=16,
                                decrease=0.5)
        assert window.record_pressure()
        for _ in range(15):
            assert not window.record_pressure()
        assert window.size == 8
        assert window.decreases == 1

    def test_success_reopens_the_congestion_epoch(self):
        window = AdaptiveWindow(min_size=1, max_size=32, initial=16,
                                decrease=0.5)
        window.record_pressure()
        window.record_success()
        assert window.record_pressure()
        assert window.size == 4

    def test_decrease_clamps_at_floor(self):
        window = AdaptiveWindow(min_size=3, max_size=32, initial=4)
        window.record_pressure()
        assert window.size == 3
        window.record_success()
        window.record_pressure()
        assert window.size == 3

    def test_events_are_reported_with_sizes(self):
        events = []
        window = AdaptiveWindow(
            min_size=1,
            max_size=3,
            on_event=lambda kind, size: events.append((kind, size)),
        )
        for _ in range(10):
            window.record_success()
        window.record_pressure()
        window.record_success()
        window.record_pressure()
        kinds = [kind for kind, _ in events]
        assert "increase" in kinds
        assert "ceiling" in kinds  # reached max_size exactly once
        assert kinds.count("ceiling") == 1
        assert "decrease" in kinds
        for kind, size in events:
            assert 1 <= size <= 3

    def test_floor_event_when_backoff_clamps(self):
        events = []
        window = AdaptiveWindow(
            min_size=2,
            max_size=8,
            initial=3,
            decrease=0.5,
            on_event=lambda kind, size: events.append(kind),
        )
        window.record_pressure()
        assert events == ["floor"]

    def test_retry_after_holds_dispatch_off(self):
        clock = FakeClock()
        window = AdaptiveWindow(min_size=1, max_size=8, clock=clock)
        assert window.dispatch_allowed()
        window.record_pressure(retry_after=1.5)
        assert not window.dispatch_allowed()
        assert window.holdoff_remaining() == pytest.approx(1.5)
        clock.now = 1.0
        assert window.holdoff_remaining() == pytest.approx(0.5)
        clock.now = 1.6
        assert window.dispatch_allowed()

    def test_repeated_pressure_extends_not_shrinks_holdoff(self):
        clock = FakeClock()
        window = AdaptiveWindow(min_size=1, max_size=8, clock=clock)
        window.record_pressure(retry_after=2.0)
        window.record_pressure(retry_after=0.1)  # same epoch, shorter hint
        assert window.holdoff_remaining() == pytest.approx(2.0)

    def test_poll_drains_the_signal_source(self):
        signals = [(0, 0.0), (3, 0.25)]
        clock = FakeClock()
        window = AdaptiveWindow(
            min_size=1,
            max_size=8,
            initial=8,
            decrease=0.5,
            clock=clock,
            signal_source=lambda: signals.pop(),
        )
        window.poll()  # (3, 0.25): pressure + hold-off
        assert window.size == 4
        assert window.holdoff_remaining() == pytest.approx(0.25)
        clock.now = 1.0
        window.poll()  # (0, 0.0): no signal, no change
        assert window.size == 4
        assert window.dispatch_allowed()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_size=0),
            dict(min_size=4, max_size=2),
            dict(increase=0.0),
            dict(decrease=0.0),
            dict(decrease=1.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveWindow(**kwargs)


class TestResolveWorkers:
    def test_fixed_width(self):
        assert resolve_workers(4) == (False, 4, 4, 4)

    def test_auto_defaults(self):
        assert resolve_workers("auto") == (
            True,
            DEFAULT_MAX_WORKERS,
            DEFAULT_MIN_WORKERS,
            DEFAULT_MAX_WORKERS,
        )

    def test_auto_with_bounds(self):
        assert resolve_workers("auto", 2, 12) == (True, 12, 2, 12)

    def test_bounds_require_auto(self):
        with pytest.raises(ValueError, match="require workers='auto'"):
            resolve_workers(4, 1, 8)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="positive int or 'auto'"):
            resolve_workers("fast")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0)
        with pytest.raises(ValueError, match="min_workers"):
            resolve_workers("auto", 0, 8)
        with pytest.raises(ValueError, match="max_workers"):
            resolve_workers("auto", 8, 2)


class TestStrategyWiring:
    def test_auto_builds_adaptive_strategy(self):
        strategy = make_strategy("async", workers="auto", max_workers=8)
        assert isinstance(strategy, AsyncStrategy)
        assert strategy.adaptive
        assert strategy.min_workers == 1
        assert strategy.max_workers == 8
        assert strategy.workers == 8  # pool sized for the ceiling

    def test_auto_defaults_to_async(self):
        strategy = make_strategy(None, workers="auto")
        assert isinstance(strategy, AsyncStrategy)
        assert strategy.adaptive

    def test_fixed_width_is_not_adaptive(self):
        strategy = make_strategy("async", workers=4)
        assert not strategy.adaptive
        assert strategy.min_workers == strategy.max_workers == 4

    def test_serial_refuses_auto(self):
        with pytest.raises(ValueError, match="single-worker"):
            make_strategy("serial", workers="auto")


class TestConfigValidation:
    def test_auto_config_accepted(self):
        config = DiscoveryConfig(workers="auto", min_workers=2, max_workers=8)
        assert config.workers == "auto"

    def test_bounds_require_auto(self):
        with pytest.raises(ValueError, match="require workers='auto'"):
            DiscoveryConfig(workers=4, max_workers=8)

    def test_serial_refuses_auto(self):
        with pytest.raises(ValueError, match="single-worker"):
            DiscoveryConfig(strategy="serial", workers="auto")

    def test_rejects_arbitrary_strings(self):
        with pytest.raises(ValueError, match="positive int or 'auto'"):
            DiscoveryConfig(workers="many")

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="max_workers"):
            DiscoveryConfig(workers="auto", min_workers=8, max_workers=2)


class TestEngineStatsSurface:
    def test_as_dict_carries_window_fields(self):
        stats = EngineStats(
            strategy="async", workers=8, mean_window=3.5,
            window_decreases=2,
        )
        payload = stats.as_dict()
        assert payload["mean_window"] == 3.5
        assert payload["window_decreases"] == 2
