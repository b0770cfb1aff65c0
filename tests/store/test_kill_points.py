"""Kill points: what a dead crawl billed comes back once, and early.

Two ways a crawl loses billed answers at a kill, each killed at fixed
points and resumed on the same store:

* **In flight** (the window rule).  An in-process endpoint wrapper bills
  every query it answers; once N are billed the crawl dies at its next
  merge and the wrapper bills nothing more.  Answers billed but never
  merged are lost.  Every popped entry holds a window slot until it
  merges, so the resumed run pops in the order the dead one did, and each
  lost answer must be billed again among its first ``workers x
  batch_size`` billings.  The resumed run transports on an event loop,
  where billing follows dispatch order, so the bound is exact.
* **Buffered** (group commit).  A child process crawls a
  :class:`HiddenDBServer` durably and ``os._exit``\\ s just before or just
  after the N-th commit of the store's write buffer.  The resumed run
  re-sends the lost answers under the session's request ids and the
  server replays them free, so the server bills each query once: its
  count for the crawl's key equals ``ledger_size()`` and the serial cost.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import CrawlStore, Discoverer, DiscoveryConfig, TopKInterface
from repro.datagen import diamonds_table
from repro.hiddendb import Attribute, InterfaceKind, Schema, Table
from repro.hiddendb.endpoint import EventLoopRunner
from repro.service import HiddenDBServer, RemoteTopKInterface


class Killed(Exception):
    """The crawl process died."""


class BillingEndpoint:
    """An in-process endpoint that bills every query it answers, in order.

    With ``kill_at`` set it dies once that many queries are billed: the
    crawl raises at its next merge (``check``), and later calls raise
    without billing, as a dead process sends nothing more.
    """

    def __init__(self, table: Table, k: int, kill_at: int | None = None):
        self._inner = TopKInterface(table, k=k, name="kill-points")
        self.schema, self.k = self._inner.schema, k
        self.name = self._inner.name
        self.ranking_label = self._inner.ranking_label
        self._kill_at = kill_at
        self._lock = threading.Lock()
        self.billed: list[str] = []

    @property
    def queries_issued(self) -> int:
        return len(self.billed)

    @property
    def dead(self) -> bool:
        return self._kill_at is not None and len(self.billed) >= self._kill_at

    def check(self, _result) -> None:
        if self.dead:
            raise Killed

    def query(self, query):
        return self.batch_query([query])[0]

    def batch_query(self, queries):
        if self.dead:
            raise Killed
        answers = [self._inner.query(query) for query in queries]
        with self._lock:
            self.billed.extend(query.canonical_key() for query in queries)
        return answers


class LoopBillingEndpoint(BillingEndpoint):
    """The same endpoint on its own event loop: transports run one at a
    time in dispatch order, so billing order is dispatch order."""

    def __init__(self, table: Table, k: int):
        super().__init__(table, k)
        self.aio_runner = EventLoopRunner()

    async def aquery(self, query):
        return self.query(query)

    async def abatch_query(self, queries):
        return self.batch_query(queries)


def _anti_diagonal_pq_table(domain: int = 400) -> Table:
    """Two point-query attributes, ``domain / 2`` skyline tuples on the
    anti-diagonal plus dominated noise: PQ-2D-SKY bills ``domain``."""
    rng = np.random.default_rng(3)
    diagonal = [(x, domain - 1 - x) for x in range(0, domain, 2)]
    noise = rng.integers(0, domain, size=(3000, 2))
    noise = noise[noise.sum(axis=1) > domain + 5]
    schema = Schema(
        [Attribute(f"a{i}", domain, InterfaceKind.PQ) for i in range(2)]
    )
    return Table(schema, np.vstack([diagonal, noise]))


#: ``(algorithm, table, k, kill points)``: the two LIFO frontiers.
LIFO_CASES = {
    "baseline": ("baseline", diamonds_table(3000, seed=0), 10, (200, 500, 800)),
    "pq2d": ("pq2d", _anti_diagonal_pq_table(), 5, (100, 200, 300)),
}

SHAPES = {"4x1": (4, 1), "4x16": (4, 16)}


def _assert_ledger_is_serial(store: CrawlStore, table: Table, k: int, keys):
    """The ledger holds exactly the serial run's queries and answers."""
    oracle = TopKInterface(table, k=k)
    (endpoint,) = store.endpoints()
    entries = store.ledger_entries(endpoint.fingerprint)
    assert {entry.qkey for entry in entries} == set(keys)
    for entry in entries:
        answer = oracle.query(entry.query)
        assert entry.result.rows == answer.rows, entry.qkey
        assert entry.result.overflow == answer.overflow, entry.qkey


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
@pytest.mark.parametrize("case", LIFO_CASES.values(), ids=LIFO_CASES)
def test_answers_lost_in_flight_come_back_within_one_window(case, shape):
    algorithm, table, k, kill_points = case
    workers, batch_size = shape
    serial_log: list[str] = []
    serial = Discoverer(
        DiscoveryConfig(
            on_query=lambda result: serial_log.append(
                result.query.canonical_key()
            )
        )
    ).run(TopKInterface(table, k=k), algorithm)
    shape_config = dict(workers=workers, batch_size=batch_size)
    for kill_at in kill_points:
        store = CrawlStore.memory()
        dead = BillingEndpoint(table, k, kill_at)
        with pytest.raises(Killed):
            Discoverer(
                DiscoveryConfig(store=store, on_query=dead.check, **shape_config)
            ).run(dead, algorithm)
        (endpoint,) = store.endpoints()
        ledgered = {e.qkey for e in store.ledger_entries(endpoint.fingerprint)}
        lost = [key for key in dead.billed if key not in ledgered]

        again = LoopBillingEndpoint(table, k)
        try:
            resumed = Discoverer(
                DiscoveryConfig(store=store, resume=True, **shape_config)
            ).run(again, algorithm)
        finally:
            again.aio_runner.close()
        window = workers * batch_size
        late = {
            key: again.billed.index(key)
            for key in lost
            if again.billed.index(key) >= window
        }
        assert not late, (kill_at, len(lost), late)
        assert resumed.skyline_values == serial.skyline_values
        assert resumed.total_cost == serial.total_cost
        # Only the lost answers were billed twice.
        assert len(dead.billed) + len(again.billed) == (
            serial.total_cost + len(lost)
        )
        _assert_ledger_is_serial(store, table, k, serial_log)


#: The child crawl: dies by ``os._exit(9)`` just before or just after the
#: N-th commit that writes the store's buffered answers.
CHILD = textwrap.dedent(
    """
    import os
    import sys

    from repro import CrawlStore, Discoverer, DiscoveryConfig
    from repro.service import RemoteTopKInterface

    url, db, workers, batch_size, every, nth, when = sys.argv[1:]
    nth = int(nth)
    flush = CrawlStore._flush
    commits = 0

    def dying_flush(self, then=None):
        global commits
        if not self._buffer:
            return flush(self, then)
        commits += 1
        if commits == nth and when == "before":
            os._exit(9)
        flush(self, then)
        if commits == nth and when == "after":
            os._exit(9)

    CrawlStore._flush = dying_flush
    config = dict(workers=int(workers), batch_size=int(batch_size))
    if every != "default":
        config["checkpoint_every"] = int(every)
    Discoverer(DiscoveryConfig(store=CrawlStore(db), **config)).run(
        RemoteTopKInterface(url, api_key="crawler"), "baseline"
    )
    sys.exit(3)  # the crawl finished: the kill point was never reached
    """
)

#: ``(checkpoint_every, N)``: with the default every 32nd answer commits
#: in its checkpoint; at 200 the 64-answer cap commits first, and the
#: second commit is a cap flush.
FLUSH_CASES = {"every-default": ("default", 4), "every-200": ("200", 2)}

FLUSH_SHAPES = {"serial": (1, 1), "4x8": (4, 8)}

FLUSH_K = 10
FLUSH_TABLE = diamonds_table(1000, seed=2)


@pytest.fixture(scope="module")
def flush_serial():
    """The uninterrupted serial crawl and its answers, by query key."""
    log: dict[str, object] = {}
    result = Discoverer(
        DiscoveryConfig(
            on_query=lambda r: log.setdefault(r.query.canonical_key(), r)
        )
    ).run(TopKInterface(FLUSH_TABLE, k=FLUSH_K), "baseline")
    return result, log


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("shape", FLUSH_SHAPES.values(), ids=FLUSH_SHAPES)
@pytest.mark.parametrize("flush_case", FLUSH_CASES.values(), ids=FLUSH_CASES)
def test_kill_at_a_flush_boundary_bills_each_query_once(
    tmp_path, flush_serial, flush_case, shape, when
):
    serial, serial_log = flush_serial
    every, nth = flush_case
    workers, batch_size = shape
    script = tmp_path / "crawl_child.py"
    script.write_text(CHILD)
    db = tmp_path / "crawl.db"
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (repo_src, env.get("PYTHONPATH", "")) if part
    )
    with HiddenDBServer(FLUSH_TABLE, k=FLUSH_K, name="flush-kill") as server:
        child = subprocess.run(
            [
                sys.executable, str(script), server.url, str(db),
                str(workers), str(batch_size), every, str(nth), when,
            ],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert child.returncode == 9, child.stderr.decode()[-2000:]

        store = CrawlStore(db)
        client = RemoteTopKInterface(server.url, api_key="crawler")
        try:
            killed_at = store.ledger_size()
            assert 0 < killed_at < serial.total_cost
            config = dict(workers=workers, batch_size=batch_size)
            if every != "default":
                config["checkpoint_every"] = int(every)
            resumed = Discoverer(
                DiscoveryConfig(store=store, resume=True, **config)
            ).run(client, "baseline")
            billed = server.stats().usage("crawler").issued
            assert billed == store.ledger_size() == serial.total_cost
            assert resumed.total_cost == serial.total_cost
            assert resumed.skyline_values == serial.skyline_values
            _assert_ledger_is_serial(store, FLUSH_TABLE, FLUSH_K, serial_log)
        finally:
            client.close()
            store.close()
