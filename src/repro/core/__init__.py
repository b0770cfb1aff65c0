"""Skyline discovery algorithms over top-k hidden web databases.

The primary contribution of the paper: one discovery algorithm per interface
family (SQ / RQ / PQ), their mixed-interface composition MQ-DB-SKY, the
crawling BASELINE, K-skyband extensions, and the closed-form cost analysis.

Every algorithm self-registers with :mod:`repro.core.registry`; the
:class:`Discoverer` facade is the stable entry point over that registry.

Quick start::

    from repro.core import Discoverer, DiscoveryConfig

    disc = Discoverer(DiscoveryConfig(budget=1000))
    result = disc.run(interface)          # dispatches on the schema taxonomy
    result.skyline, result.total_cost, result.trace

or, for one-shot runs, the module-level convenience::

    from repro.core import discover
    result = discover(interface)
"""

from . import analysis
from .base import DiscoveryResult, DiscoverySession, TraceEntry, rows_values
from .baseline import crawl_all
from .dominance import (
    dominates,
    dominates_row,
    dominator_counts,
    skyband_indices,
    skyband_of_rows,
    skyline_indices,
    skyline_of_rows,
)
from .adaptive import AdaptiveWindow
from .engine import (
    STRATEGY_NAMES,
    AsyncStrategy,
    EngineStats,
    ExecutionStrategy,
    Frontier,
    QueryEngine,
    SerialStrategy,
    make_strategy,
)
from .registry import (
    AlgorithmInfo,
    AlgorithmNotFoundError,
    AlgorithmSpec,
    DiscoveryConfig,
    DuplicateAlgorithmError,
    algorithm_names,
    all_algorithms,
    applicable_algorithms,
    attach_skyband,
    get_algorithm,
    register_algorithm,
    resolve_algorithm,
)
from .mq import mq_db_sky
from .pq import choose_plane_attributes, pq_db_sky
from .pq2d import pq_2d_sky
from .pqsub import PlaneState, explore_plane
from .rq import rq_db_sky
from .skyband import SkybandResult
from .sq import sq_db_sky
from .facade import Discoverer, default_discoverer, discover
from .stats import QueryLogSummary, summarize_log, summarize_session

__all__ = [
    "STRATEGY_NAMES",
    "AdaptiveWindow",
    "AlgorithmInfo",
    "AlgorithmNotFoundError",
    "AlgorithmSpec",
    "AsyncStrategy",
    "Discoverer",
    "DiscoveryConfig",
    "DiscoveryResult",
    "DiscoverySession",
    "DuplicateAlgorithmError",
    "EngineStats",
    "ExecutionStrategy",
    "Frontier",
    "PlaneState",
    "QueryEngine",
    "SerialStrategy",
    "QueryLogSummary",
    "SkybandResult",
    "TraceEntry",
    "algorithm_names",
    "all_algorithms",
    "analysis",
    "applicable_algorithms",
    "attach_skyband",
    "choose_plane_attributes",
    "crawl_all",
    "default_discoverer",
    "discover",
    "dominates",
    "dominates_row",
    "dominator_counts",
    "explore_plane",
    "get_algorithm",
    "make_strategy",
    "mq_db_sky",
    "pq_2d_sky",
    "pq_db_sky",
    "register_algorithm",
    "resolve_algorithm",
    "rows_values",
    "rq_db_sky",
    "skyband_indices",
    "skyband_of_rows",
    "skyline_indices",
    "skyline_of_rows",
    "sq_db_sky",
    "summarize_log",
    "summarize_session",
]
