"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import http.client
import json
import re
import socket
import urllib.parse

import numpy as np
import pytest

from repro.hiddendb import (
    Attribute,
    InterfaceKind,
    LinearRanker,
    Schema,
    Table,
    TopKInterface,
)


def make_table(
    values,
    kinds=None,
    domain: int | None = None,
    filters=None,
    filter_domains=None,
) -> Table:
    """Build a table from a plain list of value tuples.

    ``kinds`` is a single :class:`InterfaceKind` or one per attribute;
    ``domain`` defaults to one past the largest value seen.
    """
    matrix = np.asarray(values, dtype=np.int64)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    m = matrix.shape[1]
    if domain is None:
        domain = int(matrix.max(initial=0)) + 1
    if kinds is None:
        kinds = InterfaceKind.RQ
    if isinstance(kinds, InterfaceKind):
        kinds = [kinds] * m
    attributes = [
        Attribute(f"a{i}", domain, kinds[i]) for i in range(m)
    ]
    for name in (filters or {}):
        size = (filter_domains or {}).get(
            name, int(max(filters[name])) + 1 if len(filters[name]) else 1
        )
        attributes.append(Attribute(name, size, InterfaceKind.FILTER))
    return Table(Schema(attributes), matrix, filters)


def truth_values(table: Table) -> frozenset[tuple[int, ...]]:
    """Ground-truth skyline of ``table`` as value vectors."""
    return frozenset(
        tuple(int(v) for v in row)
        for row in table.matrix[table.skyline_indices()]
    )


def truth_band_values(table: Table, band: int) -> frozenset[tuple[int, ...]]:
    """Ground-truth K-skyband of ``table`` as value vectors."""
    return frozenset(
        tuple(int(v) for v in row)
        for row in table.matrix[table.skyband_indices(band)]
    )


def random_table(
    rng: np.random.Generator,
    kinds,
    n: int,
    domain: int,
    distinct: bool = False,
) -> Table:
    """A uniform random table over the given interface kinds."""
    m = len(kinds)
    if distinct:
        total = domain ** m
        n = min(n, total)
        cells = rng.choice(total, size=n, replace=False)
        matrix = np.stack([(cells // domain ** j) % domain for j in range(m)], axis=1)
    else:
        matrix = rng.integers(0, domain, size=(n, m))
    schema = Schema([Attribute(f"a{i}", domain, kinds[i]) for i in range(m)])
    return Table(schema, matrix)


def anti_diagonal_pq_table(domain: int = 400) -> Table:
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


# ----------------------------------------------------------------------
# parity-suite fixtures: one candidate table per interface-taxonomy shape
# (shared by tests/service/test_parity.py, tests/service/test_batch.py and
# tests/core/test_engine.py so the suites cannot drift apart)
# ----------------------------------------------------------------------

PARITY_SEED = 20160831  # the paper's VLDB year+date, any fixed value works

PARITY_KIND_MIXES = {
    "sq3": (InterfaceKind.SQ,) * 3,
    "rq3": (InterfaceKind.RQ,) * 3,
    "pq2": (InterfaceKind.PQ,) * 2,
    "pq3": (InterfaceKind.PQ,) * 3,
    "mixed": (InterfaceKind.RQ, InterfaceKind.SQ, InterfaceKind.PQ),
}


def build_parity_tables() -> dict[str, Table]:
    """Fresh copies of the parity candidate tables (deterministic)."""
    rng = np.random.default_rng(PARITY_SEED)
    return {
        name: random_table(rng, kinds, n=250, domain=8, distinct=True)
        for name, kinds in PARITY_KIND_MIXES.items()
    }


PARITY_TABLES = build_parity_tables()


def parity_candidate_table(predicate) -> Table | None:
    """First parity table (stable order) whose schema satisfies ``predicate``."""
    for name in sorted(PARITY_TABLES):
        if predicate(PARITY_TABLES[name].schema):
            return PARITY_TABLES[name]
    return None


def parity_run_params():
    """``(algorithm name, table)`` pytest params for every registered
    algorithm, each paired with a parity table it supports."""
    from repro.core import all_algorithms

    for spec in all_algorithms():
        table = parity_candidate_table(spec.supports)
        assert table is not None, f"no candidate table for {spec.name}"
        yield pytest.param(spec.name, table, id=spec.name)


# ----------------------------------------------------------------------
# execution-strategy axis: every parity suite runs each algorithm under
# every registered strategy (serial is the reference; async must produce
# the identical skyline and billed cost, in-process and over the wire,
# both batched and with one query per transport task)
# ----------------------------------------------------------------------

#: Window/batch shape used by the strategy-parity suites: small enough to
#: stay fast, wide enough that batching and concurrency genuinely engage.
PARITY_WORKERS = 4
PARITY_BATCH_SIZE = 8


def strategy_configs(workers: int = PARITY_WORKERS,
                     batch_size: int = PARITY_BATCH_SIZE):
    """``{column: DiscoveryConfig}``: one column per registered execution
    strategy, plus an ``-unbatched`` column for each concurrent one.

    The unbatched column keeps the window ``workers`` wide but sends one
    query per transport task, the shape an endpoint without
    ``batch_query`` (the coordinator's ``EndpointSet``) is always driven
    in, so the per-query transport path stays under every parity grid.
    """
    from repro.core import STRATEGY_NAMES, DiscoveryConfig

    configs = {}
    for name in STRATEGY_NAMES:
        if name == "serial":
            configs[name] = DiscoveryConfig(strategy="serial")
            continue
        configs[name] = DiscoveryConfig(
            strategy=name, workers=workers, batch_size=batch_size
        )
        configs[f"{name}-unbatched"] = DiscoveryConfig(
            strategy=name, workers=workers, batch_size=1
        )
    return configs


def parity_strategy_params(workers: int = PARITY_WORKERS,
                           batch_size: int = PARITY_BATCH_SIZE):
    """``(column, DiscoveryConfig)`` pytest params, one per
    :func:`strategy_configs` column."""
    for name, config in strategy_configs(workers, batch_size).items():
        yield pytest.param(name, config, id=name)


def parity_run_strategy_params():
    """``(algorithm, table, strategy, config)`` params: the full
    algorithm x strategy parity grid."""
    for algo_param in parity_run_params():
        algorithm, table = algo_param.values
        for strat_param in parity_strategy_params():
            strategy, config = strat_param.values
            yield pytest.param(
                algorithm, table, strategy, config,
                id=f"{algorithm}-{strategy}",
            )


# ----------------------------------------------------------------------
# data-plane engine axis: every parity suite can additionally pin the
# serving engine ('scan' is the O(n) reference; 'rank' and 'sqlite' must
# produce bit-identical QueryResults, so algorithm outcomes cannot drift)
# ----------------------------------------------------------------------

#: The fast engines gated on parity with the ``scan`` reference.
DATAPLANE_ENGINES = ("rank", "sqlite")


def build_engine_interface(table, engine, tmp_path, *, ranker=None,
                           k=5, **kwargs) -> TopKInterface:
    """A :class:`TopKInterface` over ``table`` pinned to a serving engine.

    ``sqlite`` builds a throwaway SQLite table under ``tmp_path`` (rank
    index persisted for ``ranker``) and serves from it; ``scan`` /
    ``rank`` force the in-memory paths.  Asserts the requested engine is
    the one actually serving.
    """
    from repro.hiddendb import SQLTable, build_sqltable

    if engine == "sqlite":
        path = tmp_path / f"parity{len(list(tmp_path.glob('*.sqlite')))}.sqlite"
        build_sqltable(path, table, ranker)
        interface = TopKInterface(
            SQLTable(path), ranker=ranker, k=k, engine="sqlite", **kwargs
        )
    else:
        interface = TopKInterface(
            table, ranker=ranker, k=k, engine=engine, **kwargs
        )
    assert interface.engine == engine
    return interface


def parity_run_engine_strategy_params():
    """``(algorithm, table, engine, strategy, config)`` params: the full
    data-plane parity grid -- every registered algorithm x fast engine x
    execution strategy, each gated against the scan+serial reference."""
    for algo_param in parity_run_params():
        algorithm, table = algo_param.values
        for engine in DATAPLANE_ENGINES:
            for strat_param in parity_strategy_params():
                strategy, config = strat_param.values
                yield pytest.param(
                    algorithm, table, engine, strategy, config,
                    id=f"{algorithm}-{engine}-{strategy}",
                )


# ----------------------------------------------------------------------
# Prometheus text-format parser (strict): shared by the obs, service and
# coordinator suites so every /metrics surface is validated the same way
# ----------------------------------------------------------------------

_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_SAMPLE = re.compile(
    rf"^(?P<name>{_PROM_NAME})"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|NaN|[+-]Inf)$"
)
_PROM_LABEL = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\\\|\\"|\\n)*"$'
)


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse (and structurally validate) Prometheus 0.0.4 text exposition.

    Every line must be a well-formed ``# HELP`` / ``# TYPE`` comment or a
    sample; samples must follow their family's TYPE declaration; histogram
    series must carry the ``_bucket``/``_sum``/``_count`` suffixes.
    Returns ``{family name: {"type", "help", "samples"}}`` with samples as
    ``{(sample name, labels tuple): float value}``.
    """
    families: dict[str, dict] = {}
    declared: str | None = None
    for line in text.splitlines():
        assert line == line.rstrip(), f"trailing whitespace: {line!r}"
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert re.fullmatch(_PROM_NAME, name), f"bad HELP name: {line!r}"
            families.setdefault(
                name, {"type": None, "help": help_text, "samples": {}}
            )
            declared = name
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in ("counter", "gauge", "histogram", "untyped"), line
            assert name in families, f"TYPE before HELP: {line!r}"
            families[name]["type"] = kind
            declared = name
            continue
        assert not line.startswith("#"), f"unparseable comment: {line!r}"
        match = _PROM_SAMPLE.match(line)
        assert match is not None, f"malformed sample line: {line!r}"
        sample_name = match.group("name")
        labels_raw = match.group("labels")
        labels: tuple[tuple[str, str], ...] = ()
        if labels_raw is not None:
            parts = labels_raw.split(",")
            for part in parts:
                assert _PROM_LABEL.match(part), f"malformed label: {part!r}"
            labels = tuple(
                (part.split("=", 1)[0], part.split("=", 1)[1][1:-1])
                for part in parts
            )
        assert declared is not None, f"sample before any family: {line!r}"
        family = families[declared]
        if family["type"] == "histogram":
            assert sample_name in (
                declared + "_bucket", declared + "_sum", declared + "_count"
            ), f"histogram sample {sample_name!r} outside family {declared!r}"
            if sample_name.endswith("_bucket"):
                assert any(k == "le" for k, _ in labels), line
        else:
            assert sample_name == declared, (
                f"sample {sample_name!r} under family {declared!r}"
            )
        value = match.group("value")
        families[declared]["samples"][(sample_name, labels)] = (
            float("nan") if value == "NaN" else float(value)
        )
    for name, family in families.items():
        assert family["type"] is not None, f"family {name} missing TYPE"
        if family["type"] == "histogram":
            _check_histogram(name, family["samples"])
    return families


def _check_histogram(name: str, samples: dict) -> None:
    """Cumulative buckets must be monotone and end at +Inf == _count."""
    series: dict[tuple, list[tuple[float, float]]] = {}
    for (sample_name, labels), value in samples.items():
        if not sample_name.endswith("_bucket"):
            continue
        le = dict(labels)["le"]
        rest = tuple(kv for kv in labels if kv[0] != "le")
        series.setdefault(rest, []).append(
            (float("inf") if le == "+Inf" else float(le), value)
        )
    for rest, buckets in series.items():
        buckets.sort()
        counts = [count for _, count in buckets]
        assert counts == sorted(counts), f"{name}{rest}: non-monotone buckets"
        assert buckets[-1][0] == float("inf"), f"{name}{rest}: no +Inf bucket"
        count_key = (name + "_count", rest)
        assert count_key in samples, f"{name}{rest}: missing _count"
        assert buckets[-1][1] == samples[count_key], (
            f"{name}{rest}: +Inf bucket != _count"
        )
        assert (name + "_sum", rest) in samples, f"{name}{rest}: missing _sum"


# ----------------------------------------------------------------------
# raw HTTP: a request whose Content-Length header is written by hand
# (shared by the hidden-DB server and coordinator daemon suites)
# ----------------------------------------------------------------------

def post_raw_content_length(
    url: str, content_length: str, body: bytes, timeout: float = 5.0
) -> tuple[int, dict]:
    """POST ``body`` to ``url`` declaring ``Content-Length: content_length``
    verbatim; returns ``(status, decoded JSON body)``.

    The client never half-closes its side, so a server that waits for the
    body to end makes this raise ``TimeoutError`` after ``timeout`` seconds.
    """
    parts = urllib.parse.urlsplit(url)
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=timeout
    ) as sock:
        sock.sendall(
            f"POST {parts.path} HTTP/1.1\r\n"
            f"Host: {parts.netloc}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode()
            + body
        )
        # The response's file holds the socket open: close it too.
        with http.client.HTTPResponse(sock) as response:
            response.begin()
            return response.status, json.loads(response.read())


def raw_exchange(
    url: str, data: bytes, timeout: float = 5.0, half_close: bool = False
) -> bytes:
    """Send ``data`` on a fresh connection to ``url``'s host; returns every
    byte received until the server closes the connection.

    ``half_close`` shuts the sending side down after ``data``, as a client
    that dies mid-request does: the server sees the end of the stream.
    """
    parts = urllib.parse.urlsplit(url)
    received = b""
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=timeout
    ) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:  # closed with request bytes unread
            pass
    return received


def exchanges_on_one_connection(
    url: str, requests: list[bytes], timeout: float = 5.0
) -> list[tuple[int, bytes]]:
    """Send each raw request in turn on one keep-alive connection to
    ``url``'s host; returns ``(status, body)`` of each response."""
    parts = urllib.parse.urlsplit(url)
    replies = []
    with socket.create_connection(
        (parts.hostname, parts.port), timeout=timeout
    ) as sock:
        for request in requests:
            sock.sendall(request)
            response = http.client.HTTPResponse(sock)
            response.begin()
            replies.append((response.status, response.read()))
    return replies


@pytest.fixture
def simple_table() -> Table:
    """The paper's running example (Figure 2): four 3-D tuples."""
    return make_table(
        [
            (5, 1, 9),
            (4, 4, 8),
            (1, 3, 7),
            (3, 2, 3),
        ],
        kinds=InterfaceKind.RQ,
        domain=10,
    )


@pytest.fixture
def simple_interface(simple_table) -> TopKInterface:
    return TopKInterface(simple_table, ranker=LinearRanker(), k=1)
