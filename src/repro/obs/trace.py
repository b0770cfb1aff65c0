"""Query-lifecycle tracing: JSONL span events with deterministic trace ids.

A *span* is one JSON object per line describing a single step of a query's
life: classification inside the drain core (``memo`` / ``inflight`` /
``ledger`` / ``dispatched``), transport and store activity (``attempt``,
``retry``, ``fault``, ``ledger_hit``), and settlement
(``billed``, ``merged``).  Every span carries:

``seq``
    a writer-global strictly increasing sequence number;
``t``
    a ``time.monotonic()`` timestamp (non-decreasing in ``seq`` order --
    both are assigned under the writer lock);
``trace_id``
    ``{run_id}-{query_fingerprint}`` -- deterministic, so the engine and
    the remote client derive the *same* id for the same logical query
    without any per-call plumbing, and the id the client sends over the
    wire as ``X-Trace-Id`` matches the engine-side spans;
``key``
    the query's canonical key (``None`` for run-level events);
``phase``
    the lifecycle step named above.

Writers are thread-safe and append-only, so several sessions (e.g. the
per-subspace sessions of a skyband run) can share one trace file.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import IO, Optional, Union

__all__ = ["TraceWriter"]

# json.dumps with non-default separators builds a fresh JSONEncoder per
# call; emit() sits on the per-query hot path, so keep one encoder.
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: Buffered spans are encoded and written out in bursts of this many.
#: The emit() critical section is then a counter bump plus a list append,
#: which keeps the engine thread and a transport event loop from trading
#: the writer lock (and with it the GIL) on every single span.
_DRAIN_EVERY = 256


class TraceWriter:
    """Thread-safe JSONL span sink.

    ``sink`` may be a filesystem path (opened in append mode and owned by
    the writer) or any object with a ``write`` method (borrowed -- never
    closed by the writer).
    """

    def __init__(self, sink: Union[str, "os.PathLike[str]", IO[str]]) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._buffer: list[tuple] = []
        if hasattr(sink, "write"):
            self._file: Optional[IO[str]] = sink  # type: ignore[assignment]
            self._owns = False
            self.path: Optional[str] = getattr(sink, "name", None)
        else:
            self.path = os.fspath(sink)
            self._file = open(self.path, "a", encoding="utf-8")
            self._owns = True

    def emit(
        self,
        phase: str,
        *,
        trace_id: str,
        key: Optional[str] = None,
        **fields: object,
    ) -> None:
        """Buffer one span.  Silently drops spans after :meth:`close`.

        Spans become visible in the sink at the next drain point: every
        ``_DRAIN_EVERY`` buffered spans, on :meth:`flush`, or at
        :meth:`close`.
        """
        with self._lock:
            if self._closed or self._file is None:
                return
            self._seq += 1
            self._buffer.append(
                (self._seq, time.monotonic(), trace_id, key, phase, fields)
            )
            if len(self._buffer) >= _DRAIN_EVERY:
                self._drain_locked()

    def _drain_locked(self) -> None:
        """Encode and write all buffered spans (caller holds the lock).

        Span dicts are only assembled here, off the per-event hot path.
        """
        if self._buffer:
            self._file.write(
                "".join(
                    _encode(
                        {
                            "seq": seq,
                            "t": t,
                            "trace_id": trace_id,
                            "key": key,
                            "phase": phase,
                            **fields,
                        }
                    )
                    + "\n"
                    for seq, t, trace_id, key, phase, fields in self._buffer
                )
            )
            self._buffer.clear()

    @property
    def spans_written(self) -> int:
        with self._lock:
            return self._seq

    def flush(self) -> None:
        with self._lock:
            if self._file is not None and not self._closed:
                self._drain_locked()
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._file is not None:
                try:
                    self._drain_locked()
                    self._file.flush()
                finally:
                    if self._owns:
                        self._file.close()
                    self._file = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
