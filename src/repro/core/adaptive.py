"""AIMD in-flight window control for the drain strategies.

The paper's cost model counts *queries*; wall-clock against a real
rate-limited hidden database is governed by how hard the client dares to
push.  A fixed ``workers``-wide window is simultaneously too timid
against a fast mirror and a 429 storm against a throttled one.  This
module provides the classic congestion-control answer — additive
increase, multiplicative decrease (AIMD) — as a small controller the
windowed strategies consult at dispatch time:

* until the first congestion event the window is in *slow start*,
  growing by ``increase`` per clean completion (doubling per window's
  worth of completions, like TCP) so a crawl against an unthrottled
  server reaches the ceiling quickly;
* after the first back-off every *clean* completion grows the window by
  ``increase / window`` (so a full window of clean completions grows it
  by ~1, AIMD's increase-per-RTT);
* a pressure signal (HTTP 429/503 or a transport timeout, surfaced by
  :meth:`repro.service.client.QueryClientCore.take_throttle_signals`)
  multiplies the window by ``decrease`` — at most once per congestion
  epoch: a burst of N simultaneous 429s out of one window collapses the
  window once, not N times.  The default back-off (x0.75) is gentler
  than TCP Reno's halving (cf. CUBIC's 0.7): crawl windows are tens
  wide, not thousands, so halving overshoots and leaves sustainable
  capacity idle for the whole additive climb back;
* after a back-off the window remembers the width the congestion hit at
  (the *knee*) and climbs back only to just below it, holding there for
  ``hold_completions`` clean completions before probing past it again.
  TCP can afford to probe every RTT because an ACK'd stream has no
  head-of-line blocking; this engine's strict dispatch-order merge means
  every overshoot parks the merge queue behind one throttled request's
  retry sleep, so probing must be rare;
* an honest ``Retry-After`` from the server holds dispatch off entirely
  until the deadline passes.

The controller only ever changes *when* queries are dispatched, never
*which* queries are issued or how their answers merge — the drain core's
classification chain and dispatch-order merge guarantee identical
skyline and billed cost at any window width, so adaptivity is purely a
wall-clock optimisation.

Determinism note: the controller consults a monotonic clock for the
``Retry-After`` hold-off only; unit tests inject a fake ``clock``.
"""

from __future__ import annotations

import time
from typing import Callable

#: Window bounds used by ``workers="auto"`` when the caller does not
#: supply ``min_workers`` / ``max_workers``.
DEFAULT_MIN_WORKERS = 1
DEFAULT_MAX_WORKERS = 32

#: Event kinds reported through ``on_event`` (and counted by the
#: ``engine_window_events_total{kind}`` metric in :mod:`repro.obs`):
#: ``increase`` — the integer window width grew; ``decrease`` — a
#: multiplicative back-off; ``floor`` — a back-off clamped at
#: ``min_size``; ``ceiling`` — the window reached ``max_size``.
WINDOW_EVENTS = ("increase", "decrease", "floor", "ceiling")


def resolve_workers(
    workers: "int | str",
    min_workers: "int | None" = None,
    max_workers: "int | None" = None,
) -> "tuple[bool, int, int, int]":
    """Normalise a ``workers`` spec into ``(adaptive, width, lo, hi)``.

    ``workers`` is either a positive int (fixed window; ``width`` is that
    int and ``lo == hi == width``) or the literal ``"auto"`` (adaptive;
    ``width`` is the ceiling ``hi``, the pool is sized for the widest
    window the controller may ever open).  ``min_workers``/``max_workers``
    are only meaningful with ``"auto"``.
    """
    if workers == "auto":
        lo = DEFAULT_MIN_WORKERS if min_workers is None else int(min_workers)
        hi = DEFAULT_MAX_WORKERS if max_workers is None else int(max_workers)
        if lo < 1:
            raise ValueError(f"min_workers must be >= 1, got {lo}")
        if hi < lo:
            raise ValueError(
                f"max_workers must be >= min_workers, got {hi} < {lo}"
            )
        return True, hi, lo, hi
    if isinstance(workers, str):
        raise ValueError(
            f"workers must be a positive int or 'auto', got {workers!r}"
        )
    if min_workers is not None or max_workers is not None:
        raise ValueError("min_workers/max_workers require workers='auto'")
    width = int(workers)
    if width < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return False, width, width, width


class AdaptiveWindow:
    """An AIMD-controlled in-flight window in ``[min_size, max_size]``.

    Parameters
    ----------
    min_size / max_size:
        Inclusive bounds of the window width (in workers).
    initial:
        Starting width; defaults to ``min_size`` (slow-start from the
        bottom, like TCP).
    increase / decrease:
        Additive increment per full clean window (per *completion* while
        in slow start) and multiplicative back-off factor (defaults +1,
        x0.75 — see the module docstring on the gentle back-off).
    clock:
        Monotonic clock consulted for ``Retry-After`` hold-offs only
        (injectable for deterministic tests).
    on_event:
        Optional ``(kind, size)`` callback fired on every transition;
        kinds are listed in :data:`WINDOW_EVENTS`.
    signal_source:
        Optional zero-argument callable returning ``(count,
        max_retry_after)`` — the transport's accumulated throttle
        signals since the last call (see
        ``QueryClientCore.take_throttle_signals``).  Drained by
        :meth:`poll`.
    hold_completions:
        Clean completions to hold just below the congestion knee after a
        back-off before probing past it again (see the module docstring
        on why probing is expensive here).
    """

    def __init__(
        self,
        *,
        min_size: int = DEFAULT_MIN_WORKERS,
        max_size: int = DEFAULT_MAX_WORKERS,
        initial: "int | None" = None,
        increase: float = 1.0,
        decrease: float = 0.75,
        clock: Callable[[], float] = time.monotonic,
        on_event: "Callable[[str, int], None] | None" = None,
        signal_source: "Callable[[], tuple[int, float]] | None" = None,
        hold_completions: int = 256,
    ) -> None:
        min_size = int(min_size)
        max_size = int(max_size)
        if min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {min_size}")
        if max_size < min_size:
            raise ValueError(
                f"max_size must be >= min_size, got {max_size} < {min_size}"
            )
        if not increase > 0.0:
            raise ValueError(f"increase must be > 0, got {increase}")
        if not 0.0 < decrease < 1.0:
            raise ValueError(f"decrease must be in (0, 1), got {decrease}")
        self._min = min_size
        self._max = max_size
        self._increase = float(increase)
        self._decrease = float(decrease)
        self._clock = clock
        self._on_event = on_event
        self._signal_source = signal_source
        start = min_size if initial is None else int(initial)
        self._window = float(min(max(start, min_size), max_size))
        self._resume_at = 0.0
        #: A success since the last decrease: only then may the next
        #: pressure signal shrink the window (one back-off per epoch).
        self._clean = True
        #: Exponential growth until the first congestion event (TCP slow
        #: start); additive increase afterwards.
        self._slow_start = True
        #: Width the last congestion hit at, and how many clean
        #: completions remain before growth may probe past it again.
        self._knee: "float | None" = None
        self._hold_completions = max(0, int(hold_completions))
        self._hold = 0
        self._at_ceiling = self._window >= self._max
        self._decreases = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current integer window width (always within the bounds)."""
        return int(self._window)

    @property
    def min_size(self) -> int:
        return self._min

    @property
    def max_size(self) -> int:
        return self._max

    @property
    def decreases(self) -> int:
        """Multiplicative back-offs so far (including floor-clamped ones)."""
        return self._decreases

    def holdoff_remaining(self, now: "float | None" = None) -> float:
        """Seconds until a server-mandated ``Retry-After`` deadline passes."""
        if now is None:
            now = self._clock()
        return max(0.0, self._resume_at - now)

    def dispatch_allowed(self, now: "float | None" = None) -> bool:
        """Whether new dispatches are permitted right now."""
        return self.holdoff_remaining(now) == 0.0

    # ------------------------------------------------------------------
    # the control loop
    # ------------------------------------------------------------------
    def record_success(self) -> None:
        """A dispatched query completed cleanly (additive increase)."""
        self._clean = True
        before = self.size
        gain = (
            self._increase
            if self._slow_start
            else self._increase / max(self._window, 1.0)
        )
        limit = float(self._max)
        if self._hold > 0 and self._knee is not None:
            # Held below the knee: grow up to it but never past (and
            # never shrink — a back-off may have landed above the cap).
            self._hold -= 1
            limit = min(limit, max(self._window, self._knee - 1.0))
        self._window = min(limit, self._window + gain)
        if self.size > before:
            self._emit("increase")
        if self._window >= self._max and not self._at_ceiling:
            self._at_ceiling = True
            self._emit("ceiling")

    def record_pressure(self, retry_after: "float | None" = None) -> bool:
        """A throttle signal arrived (multiplicative decrease).

        ``retry_after`` (seconds, from the server's honest header) arms
        the dispatch hold-off.  Returns whether the window actually
        shrank — repeated pressure within one congestion epoch (no
        success in between) refreshes the hold-off but does not shrink
        the window again.
        """
        if retry_after is not None and retry_after > 0.0:
            deadline = self._clock() + float(retry_after)
            if deadline > self._resume_at:
                self._resume_at = deadline
        if not self._clean:
            return False
        self._clean = False
        self._slow_start = False
        self._at_ceiling = False
        self._knee = self._window
        self._hold = self._hold_completions
        floored = self._window * self._decrease < float(self._min)
        self._window = max(float(self._min), self._window * self._decrease)
        self._decreases += 1
        self._emit("floor" if floored else "decrease")
        return True

    def poll(self) -> None:
        """Drain the transport's accumulated throttle signals, if wired."""
        if self._signal_source is None:
            return
        count, retry_after = self._signal_source()
        if count:
            self.record_pressure(retry_after if retry_after > 0.0 else None)

    # ------------------------------------------------------------------
    def _emit(self, kind: str) -> None:
        if self._on_event is not None:
            self._on_event(kind, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AdaptiveWindow(size={self.size}, bounds=[{self._min}, "
            f"{self._max}], decreases={self._decreases})"
        )


__all__ = [
    "AdaptiveWindow",
    "DEFAULT_MAX_WORKERS",
    "DEFAULT_MIN_WORKERS",
    "WINDOW_EVENTS",
    "resolve_workers",
]
