"""Hidden web database simulator: schema, queries, ranking and top-k access.

This subpackage is the substrate every discovery algorithm runs against.  It
reproduces the access model of the paper exactly: conjunctive queries subject
to a per-attribute interface taxonomy (SQ / RQ / PQ / filtering), answered by
at most ``k`` tuples chosen by a domination-consistent ranking function, with
every issued query counted against an optional rate limit.
"""

from .attributes import Attribute, InterfaceKind, Schema
from .endpoint import (
    AsyncBatchSearchEndpoint,
    AsyncSearchEndpoint,
    BatchSearchEndpoint,
    EventLoopRunner,
    SearchEndpoint,
)
from .errors import (
    HiddenDBError,
    InvalidDomainValueError,
    QueryBudgetExceeded,
    UnknownAttributeError,
    UnsupportedQueryError,
)
from .dataplane import ENGINE_CHOICES, default_ranker, make_engine
from .interface import KEEP_BUDGET, QueryResult, TopKInterface
from .query import (
    Interval,
    Query,
    predicates_from_strings,
    query_fingerprint,
)
from .ranking import (
    LexicographicRanker,
    LinearRanker,
    RandomSkylineRanker,
    Ranker,
    ranker_from_label,
)
from .sqltable import SQLTable, SQLTableError, build_sqltable
from .table import Row, Table

__all__ = [
    "AsyncBatchSearchEndpoint",
    "AsyncSearchEndpoint",
    "Attribute",
    "BatchSearchEndpoint",
    "ENGINE_CHOICES",
    "EventLoopRunner",
    "HiddenDBError",
    "InterfaceKind",
    "Interval",
    "InvalidDomainValueError",
    "KEEP_BUDGET",
    "LexicographicRanker",
    "LinearRanker",
    "Query",
    "QueryBudgetExceeded",
    "QueryResult",
    "RandomSkylineRanker",
    "Ranker",
    "Row",
    "SQLTable",
    "SQLTableError",
    "Schema",
    "SearchEndpoint",
    "Table",
    "TopKInterface",
    "UnknownAttributeError",
    "UnsupportedQueryError",
    "build_sqltable",
    "default_ranker",
    "make_engine",
    "predicates_from_strings",
    "query_fingerprint",
]
