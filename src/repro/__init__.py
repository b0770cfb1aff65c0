"""repro: skyline discovery over top-k hidden web databases.

A full reproduction of Asudeh, Thirumuruganathan, Zhang and Das,
*"Discovering the Skyline of Web Databases"* (VLDB 2016): the hidden-database
simulator substrate, the SQ- / RQ- / PQ- / MQ-DB-SKY discovery algorithms,
K-skyband extensions, the crawling baseline, synthetic stand-ins for the
paper's datasets, and a benchmark harness regenerating every evaluation
figure.

The public entry point is the :class:`Discoverer` facade over the algorithm
registry.  Typical usage::

    from repro import (
        Attribute, Discoverer, DiscoveryConfig, InterfaceKind, Schema,
        Table, TopKInterface,
    )

    schema = Schema([
        Attribute("price", 1000, InterfaceKind.RQ),
        Attribute("stops", 3, InterfaceKind.PQ),
    ])
    table = Table(schema, values)
    interface = TopKInterface(table, k=10)

    disc = Discoverer(DiscoveryConfig(budget=5000))
    result = disc.run(interface)           # auto-dispatch on the taxonomy
    print(result.algorithm, result.skyline, result.total_cost)

    per_algo = disc.run_all(interface)     # every applicable algorithm
    band = disc.skyband(interface, band=3) # top-3 skyband (§7.2)

Progress hooks stream the anytime curve while a run is still going::

    config = DiscoveryConfig(
        on_query=lambda res: print("issued", res.query),
        on_tuple=lambda entry: print("new tuple at cost", entry.cost),
    )
    Discoverer(config).run(interface)

``Discoverer.run`` and ``Discoverer.skyband`` are the only ways to run an
algorithm (a delta repair of a stored crawl is ``run(..., mode="delta")``):
one-shot runs can use the module-level ``discover(interface)``, a one-line
wrapper of ``run``, and new algorithms plug in through
:func:`repro.core.registry.register_algorithm`.

Algorithms access data only through the :class:`SearchEndpoint` protocol, so
backends are swappable: the in-process :class:`TopKInterface` simulator, or
the networked service layer in :mod:`repro.service` -- ``repro serve`` (or
:class:`repro.service.HiddenDBServer`) exposes a table as a JSON top-k
search API with per-API-key budgets and fault injection, and
:class:`repro.service.RemoteTopKInterface` is the resilient HTTP client
(retry/backoff) that drops into ``Discoverer`` unchanged; with
``dedup=True`` a query the run already paid for is answered from the
engine's memo instead of billed again::

    from repro.service import HiddenDBServer, RemoteTopKInterface

    with HiddenDBServer(table, k=10) as server:
        remote = RemoteTopKInterface(server.url)
        result = Discoverer(DiscoveryConfig(dedup=True)).run(remote)

Crawls become *durable* by mounting a :class:`CrawlStore`
(:mod:`repro.store`): every billed answer lands in a persistent query
ledger, progress is checkpointed, and a killed run resumed with
``resume=True`` replays the paid-for prefix instead of re-billing it::

    store = CrawlStore("crawl.db")
    Discoverer(DiscoveryConfig(store=store)).run(remote)       # cold crawl
    Discoverer(DiscoveryConfig(store=store)).run(remote)       # warm: free
    # after a kill -9 / deploy / budget exhaustion:
    Discoverer(DiscoveryConfig(store=store, resume=True)).run(remote)
"""

from .hiddendb import (
    Attribute,
    InterfaceKind,
    Interval,
    LexicographicRanker,
    LinearRanker,
    Query,
    QueryBudgetExceeded,
    QueryResult,
    RandomSkylineRanker,
    Ranker,
    Row,
    Schema,
    SearchEndpoint,
    Table,
    TopKInterface,
    UnsupportedQueryError,
)
from .hiddendb import AsyncSearchEndpoint
from .core import (
    AlgorithmInfo,
    AlgorithmNotFoundError,
    AlgorithmSpec,
    AsyncStrategy,
    Discoverer,
    DiscoveryConfig,
    DiscoveryResult,
    EngineStats,
    SerialStrategy,
    SkybandResult,
    algorithm_names,
    all_algorithms,
    applicable_algorithms,
    default_discoverer,
    discover,
    get_algorithm,
    register_algorithm,
)
from .store import CrawlStore, QueryLedger, StoreError, StoreMismatchError

__version__ = "2.0.0"

__all__ = [
    "AlgorithmInfo",
    "AlgorithmNotFoundError",
    "AlgorithmSpec",
    "AsyncSearchEndpoint",
    "AsyncStrategy",
    "Attribute",
    "CrawlStore",
    "Discoverer",
    "DiscoveryConfig",
    "DiscoveryResult",
    "EngineStats",
    "InterfaceKind",
    "Interval",
    "LexicographicRanker",
    "LinearRanker",
    "Query",
    "QueryBudgetExceeded",
    "QueryLedger",
    "QueryResult",
    "RandomSkylineRanker",
    "Ranker",
    "Row",
    "Schema",
    "SearchEndpoint",
    "SerialStrategy",
    "SkybandResult",
    "StoreError",
    "StoreMismatchError",
    "Table",
    "TopKInterface",
    "UnsupportedQueryError",
    "__version__",
    "algorithm_names",
    "all_algorithms",
    "applicable_algorithms",
    "default_discoverer",
    "discover",
    "get_algorithm",
    "register_algorithm",
]
