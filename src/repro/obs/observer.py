"""The run observer: one object bundling metrics + tracing for a run.

Instrumentation hooks live *once* in the shared substrates -- the drain
core (``repro.core.engine``), the transport-independent client half
(``QueryClientCore``), the durable store (``CrawlStore``) and the sharded
endpoint set -- and each hook site holds an ``observer`` attribute that
defaults to ``None``.  The no-collector fast path is therefore a single
``is not None`` check per event; attaching a :class:`RunObserver` turns
the same hooks into metric increments and JSONL spans without touching
any algorithmic control flow (parity is preserved by construction).

Trace ids are deterministic: ``{run_id}-{query_fingerprint}``.  The
engine and the remote client share the observer instance, so the id the
client propagates over the wire as ``X-Trace-Id`` is exactly the id on
the engine-side spans for the same logical query.
"""

from __future__ import annotations

import time
import uuid
from typing import Dict, Optional, Union, IO

from ..hiddendb.query import Query, query_fingerprint
from .metrics import MetricsRegistry, global_registry
from .trace import TraceWriter

__all__ = ["RunObserver"]

#: Lifecycle phases emitted by the drain core's classification chain.
CLASSIFY_PHASES = ("memo", "inflight", "ledger", "dispatched")

#: AIMD window transitions emitted by the adaptive controller (kept in
#: lockstep with ``repro.core.adaptive.WINDOW_EVENTS``; duplicated here
#: so the obs plane never imports the engine).
WINDOW_EVENTS = ("increase", "decrease", "floor", "ceiling")


class RunObserver:
    """Collects metrics and (optionally) JSONL trace spans for one run.

    Parameters
    ----------
    trace:
        ``None`` (metrics only), a path / file-like (a
        :class:`TraceWriter` is created and owned), or an existing
        :class:`TraceWriter` (borrowed).
    registry:
        The metrics scope to record into.  Defaults to a fresh per-run
        registry parented to the process-global one, so per-run numbers
        and global aggregates both stay correct.
    run_id:
        The deterministic trace-id prefix.  Auto-generated when omitted.
    """

    def __init__(
        self,
        *,
        trace: Union[None, str, IO[str], TraceWriter] = None,
        registry: Optional[MetricsRegistry] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.registry = (
            registry
            if registry is not None
            else MetricsRegistry(parent=global_registry())
        )
        if trace is None or isinstance(trace, TraceWriter):
            self._writer: Optional[TraceWriter] = trace
            self._owns_writer = False
        else:
            self._writer = TraceWriter(trace)
            self._owns_writer = True

        reg = self.registry
        self._m_classified = reg.counter(
            "repro_query_classifications_total",
            "Drain-core classification outcomes, by lifecycle phase.",
            ("phase",),
        )
        self._m_billed = reg.counter(
            "repro_queries_billed_total",
            "Queries billed against the endpoint budget.",
        )
        self._m_client = reg.counter(
            "repro_client_events_total",
            "Remote-client transport events (attempt/retry/fault/billed).",
            ("event",),
        )
        self._m_store = reg.counter(
            "repro_store_events_total",
            "Durable-store events (ledger hits/writes, checkpoints).",
            ("event",),
        )
        self._m_shard = reg.counter(
            "repro_shard_queries_total",
            "Queries routed to each backend shard.",
            ("backend",),
        )
        self._m_steal = reg.counter(
            "repro_work_steals_total",
            "Queries served off their home shard (work stealing).",
            ("backend",),
        )
        self._m_window = reg.gauge(
            "engine_window_size",
            "Current AIMD dispatch-window width (adaptive runs only).",
        )
        self._m_window_events = reg.counter(
            "engine_window_events_total",
            "AIMD window transitions, by kind.",
            ("kind",),
        )
        # Hot-path children, pre-resolved once (label validation and
        # tuple building off the per-query path).
        self._classified_bound = {
            phase: self._m_classified.bind(phase=phase)
            for phase in CLASSIFY_PHASES
        }
        self._billed_bound = self._m_billed.bind()
        self._client_bound: Dict[str, object] = {}
        self._window_bound = {
            kind: self._m_window_events.bind(kind=kind)
            for kind in WINDOW_EVENTS
        }
        #: ``session_id -> time.monotonic()`` of the last checkpoint seen;
        #: feeds the coordinator's checkpoint-lag gauge.
        self.checkpoint_at: Dict[str, float] = {}

    # -- trace plumbing --------------------------------------------------

    def trace_id(self, query: Query) -> str:
        """Deterministic per-query trace id: ``{run_id}-{fingerprint}``."""
        return f"{self.run_id}-{query_fingerprint(query)}"

    def _span(self, phase, query=None, key=None, trace_id=None, **fields) -> None:
        if self._writer is None:
            return
        if query is not None and key is None:
            key = query.canonical_key()
        if trace_id is None:
            trace_id = self.trace_id(query) if query is not None else self.run_id
        self._writer.emit(phase, trace_id=trace_id, key=key, **fields)

    # -- engine hooks (drain core / query engine) ------------------------

    def classified(self, query: Optional[Query], key: str, phase: str) -> None:
        """A frontier entry settled one step of the classification chain."""
        bound = self._classified_bound.get(phase)
        if bound is not None:
            bound.inc()
        else:
            self._m_classified.inc(phase=phase)
        if self._writer is not None:
            self._span(phase, query=query, key=key)

    def billed(self, query: Query, *, batched: bool = False) -> None:
        """A transported answer was billed (the single billing point)."""
        self._billed_bound.inc()
        if self._writer is not None:
            self._span("billed", query=query, batched=batched)

    def merged(self, key: str, *, transported: bool) -> None:
        """A window slot merged in dispatch order.

        Merge spans ride on the run-level trace id: the per-query id is
        already carried by the classification/billed spans for this key.
        """
        if self._writer is not None:
            self._writer.emit(
                "merged",
                trace_id=self.run_id,
                key=key,
                transported=transported,
            )

    # -- client hooks (QueryClientCore + transports) ---------------------

    def client_event(
        self,
        event: str,
        query: Optional[Query] = None,
        *,
        trace_id: Optional[str] = None,
        span: bool = True,
        **fields: object,
    ) -> None:
        """Transport-side lifecycle event: attempt/retry/fault/billed.

        ``trace_id`` lets the wire layer correlate events it emits below
        the per-query seam (it carries the id, not the query object).
        ``span=False`` records the counter only -- for events another
        layer already traces (e.g. client-side billing, whose span is the
        engine's canonical ``billed``).
        """
        bound = self._client_bound.get(event)
        if bound is None:
            bound = self._client_bound[event] = self._m_client.bind(
                event=event
            )
        bound.inc()
        if span and self._writer is not None:
            self._span(event, query=query, trace_id=trace_id, **fields)

    def window_event(self, kind: str, size: int) -> None:
        """The adaptive controller resized the dispatch window."""
        self._m_window.set(float(size))
        bound = self._window_bound.get(kind)
        if bound is None:
            bound = self._window_bound[kind] = self._m_window_events.bind(
                kind=kind
            )
        bound.inc()
        if self._writer is not None:
            self._writer.emit(
                "window", trace_id=self.run_id, kind=kind, size=size
            )

    # -- store hooks (CrawlStore) ----------------------------------------

    def store_event(self, event: str, **fields: object) -> None:
        """Durable-store event: ledger_hit / ledger_put / checkpoint."""
        self._m_store.inc(event=event)
        if event == "checkpoint":
            session_id = fields.get("session_id")
            if session_id is not None:
                self.checkpoint_at[str(session_id)] = time.monotonic()
        self._span(event, **fields)

    # -- shard hooks (EndpointSet) ---------------------------------------

    def shard_event(self, backend: str, *, stolen: bool) -> None:
        """A query was routed to *backend* (stolen = off its home shard)."""
        self._m_shard.inc(backend=backend)
        if stolen:
            self._m_steal.inc(backend=backend)

    # -- lifecycle -------------------------------------------------------

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    def close(self) -> None:
        """Flush and (when owned) close the trace writer."""
        if self._writer is not None:
            if self._owns_writer:
                self._writer.close()
            else:
                self._writer.flush()
