"""JSON wire format shared by the service server and the remote client.

Keeps (de)serialisation in one place so the two sides cannot drift: the
server encodes with the same functions the client decodes with, and the
round-trip tests pin the format.  The format is deliberately plain JSON --
no pickling, no numpy types -- so non-Python clients can speak it too.

Schemas travel as ``{"attributes": [{name, domain_size, kind, labels?}]}``
(``kind`` is the :class:`~repro.hiddendb.attributes.InterfaceKind` value
string); queries as ``{"ranges": {"<index>": [lo, hi]}, "filters":
{name: value}}``; answers as ``{"rows": [{rid, values}], "overflow",
"sequence"}``.  Attribute ``labels`` are display-only and are dropped when
they are not JSON-representable.

Batches (``POST /api/batch``) travel as ``{"items": [{"id": <request id>,
"query": {...}}]}`` and come back as ``{"items": [{"status": <HTTP-style
int>, "body": {...answer or error...}}]}``, aligned by position.  Each
item carries its own request id so a retried item replays its
already-billed answer instead of being charged twice, exactly like the
``X-Request-Id`` header of the single-query endpoint.

Two further shared currencies live here: the **endpoint fingerprint**
(:func:`endpoint_fingerprint`, the identity hash the server advertises,
the crawl store keys its ledger by and the coordinator verifies shard
membership with) and the **discovery-job spec**
(:func:`decode_job_spec`, the body of the coordinator's
``POST /api/jobs``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Sequence

from ..hiddendb.attributes import Attribute, InterfaceKind, Schema
from ..hiddendb.query import Interval, Query
from ..hiddendb.table import Row

# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------


def _encode_labels(attribute: Attribute) -> list | None:
    if attribute.labels is None:
        return None
    try:
        json.dumps(attribute.labels)
    except (TypeError, ValueError):
        return None
    return list(attribute.labels)


def encode_schema(schema: Schema) -> dict[str, Any]:
    """Schema -> JSON-ready dict."""
    attributes = []
    for attribute in schema.attributes:
        entry: dict[str, Any] = {
            "name": attribute.name,
            "domain_size": attribute.domain_size,
            "kind": attribute.kind.value,
        }
        labels = _encode_labels(attribute)
        if labels is not None:
            entry["labels"] = labels
        attributes.append(entry)
    return {"attributes": attributes}


def decode_schema(payload: Mapping[str, Any]) -> Schema:
    """JSON dict -> Schema."""
    attributes = []
    for entry in payload["attributes"]:
        labels = entry.get("labels")
        attributes.append(
            Attribute(
                name=entry["name"],
                domain_size=int(entry["domain_size"]),
                kind=InterfaceKind(entry["kind"]),
                labels=None if labels is None else tuple(labels),
            )
        )
    return Schema(attributes)


# ----------------------------------------------------------------------
# endpoint identity
# ----------------------------------------------------------------------


def endpoint_descriptor(
    schema: Schema, k: int, name: str = "", ranking: str = ""
) -> str:
    """Canonical JSON descriptor of an endpoint's public identity.

    Covers exactly what determines whether a ledgered answer is reusable:
    the ranking/filtering attribute layout (names, domain sizes, interface
    kinds -- display labels excluded), the top-``k`` limit, the service
    name and the ranking-function label (the same table ranked differently
    returns different answers).  The fingerprint is a hash of this string;
    it is computed identically by the server (``/healthz``,
    ``/api/schema``), the remote client, the crawl store and the
    coordinator, so every layer agrees on whether two endpoints are "the
    same hidden database".
    """
    return json.dumps(
        {
            "attributes": [
                {
                    "name": attribute.name,
                    "domain_size": int(attribute.domain_size),
                    "kind": attribute.kind.value,
                }
                for attribute in schema.attributes
            ],
            "k": int(k),
            "name": name,
            "ranking": ranking,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def fingerprint_of(descriptor: str) -> str:
    """Hash an :func:`endpoint_descriptor` string into a fingerprint."""
    return hashlib.sha256(descriptor.encode("utf-8")).hexdigest()[:16]


def endpoint_fingerprint(
    schema: Schema, k: int, name: str = "", ranking: str = ""
) -> str:
    """Stable identity hash of an endpoint (schema + ``k`` + name + ranking)."""
    return fingerprint_of(endpoint_descriptor(schema, k, name, ranking))


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------


def encode_query(query: Query) -> dict[str, Any]:
    """Query -> JSON-ready dict (attribute indices become string keys)."""
    return {
        "ranges": {
            str(index): [interval.lo, interval.hi]
            for index, interval in query.ranges.items()
        },
        "filters": dict(query.filters),
    }


def decode_query(payload: Any) -> Query:
    """JSON dict -> Query; :class:`ValueError` (a 400 on the server) when
    the query, its ``ranges`` or its ``filters`` is not a JSON object, or
    a range is not a ``[lo, hi]`` pair."""
    if not isinstance(payload, Mapping):
        raise ValueError("query must be a JSON object")
    ranges = payload.get("ranges") or {}
    filters = payload.get("filters") or {}
    if not (isinstance(ranges, Mapping) and isinstance(filters, Mapping)):
        raise ValueError("query ranges and filters must be JSON objects")
    intervals = {}
    for index, bounds in ranges.items():
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise ValueError(f"range {index!r} must be a [lo, hi] pair")
        intervals[int(index)] = Interval(int(bounds[0]), int(bounds[1]))
    return Query(
        intervals, {str(name): int(value) for name, value in filters.items()}
    )


# ----------------------------------------------------------------------
# rows and answers
# ----------------------------------------------------------------------


def encode_row(row: Row) -> dict[str, Any]:
    """Row -> JSON-ready dict."""
    return {"rid": row.rid, "values": list(row.values)}


def decode_row(payload: Mapping[str, Any]) -> Row:
    """JSON dict -> Row."""
    return Row(int(payload["rid"]), tuple(int(v) for v in payload["values"]))


def encode_answer(
    rows: tuple[Row, ...], overflow: bool, sequence: int
) -> dict[str, Any]:
    """Query answer -> JSON-ready dict (the query itself is not echoed:
    the client already holds it and reattaches it on decode)."""
    return {
        "rows": [encode_row(row) for row in rows],
        "overflow": bool(overflow),
        "sequence": int(sequence),
    }


def decode_answer(
    payload: Mapping[str, Any],
) -> tuple[tuple[Row, ...], bool, int]:
    """JSON dict -> ``(rows, overflow, sequence)``."""
    rows = tuple(decode_row(entry) for entry in payload["rows"])
    return rows, bool(payload["overflow"]), int(payload["sequence"])


# ----------------------------------------------------------------------
# discovery jobs (the coordinator's ``POST /api/jobs`` body)
# ----------------------------------------------------------------------

#: Recognised discovery-job spec fields with their defaults.  ``None``
#: algorithm means "auto-select by schema"; ``None`` budget means
#: unbounded; ``fingerprint`` is the endpoint identity the tenant
#: *expects* to crawl (the coordinator rejects the job with a conflict
#: when it does not match its backends).  ``watch`` turns the job into a
#: continuous monitor: after the initial crawl the coordinator re-checks
#: the endpoint every ``interval_s`` seconds and repairs the skyline with
#: a delta-crawl whenever the data version moved.
JOB_SPEC_DEFAULTS: Mapping[str, Any] = {
    "algorithm": None,
    "budget": None,
    "dedup": None,
    "tenant": "anonymous",
    "workers": 4,
    "checkpoint_every": 8,
    "fingerprint": None,
    "watch": None,
}


def decode_job_spec(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Validate and normalise a job-submission body.

    Unknown fields are rejected (a typo'd ``"budgit"`` must not silently
    submit an unbounded crawl); known fields are type-checked and
    defaulted from :data:`JOB_SPEC_DEFAULTS`.  Raises :class:`ValueError`
    with an operator-readable message on any problem.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("job spec must be a JSON object")
    unknown = sorted(set(payload) - set(JOB_SPEC_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown job spec field(s): {', '.join(unknown)}; "
            f"known fields: {', '.join(sorted(JOB_SPEC_DEFAULTS))}"
        )
    spec = dict(JOB_SPEC_DEFAULTS)
    spec.update({key: payload[key] for key in payload})
    for key in ("budget", "workers", "checkpoint_every"):
        if spec[key] is not None:
            if isinstance(spec[key], bool) or not isinstance(spec[key], int):
                raise ValueError(f"job spec field {key!r} must be an integer")
    if spec["budget"] is not None and spec["budget"] < 0:
        raise ValueError("job spec field 'budget' must be >= 0")
    if spec["workers"] is None or spec["workers"] < 1:
        raise ValueError("job spec field 'workers' must be >= 1")
    if spec["checkpoint_every"] is None or spec["checkpoint_every"] < 1:
        raise ValueError("job spec field 'checkpoint_every' must be >= 1")
    if spec["dedup"] is not None and not isinstance(spec["dedup"], bool):
        raise ValueError("job spec field 'dedup' must be a boolean")
    for key in ("algorithm", "fingerprint"):
        if spec[key] is not None and not isinstance(spec[key], str):
            raise ValueError(f"job spec field {key!r} must be a string")
    if not isinstance(spec["tenant"], str) or not spec["tenant"]:
        raise ValueError("job spec field 'tenant' must be a non-empty string")
    if spec["watch"] is not None:
        watch = spec["watch"]
        if not isinstance(watch, Mapping):
            raise ValueError("job spec field 'watch' must be an object")
        unknown = sorted(set(watch) - {"interval_s"})
        if unknown:
            raise ValueError(
                f"unknown watch field(s): {', '.join(unknown)}; "
                f"known fields: interval_s"
            )
        interval = watch.get("interval_s")
        if isinstance(interval, bool) or not isinstance(interval, (int, float)):
            raise ValueError("watch field 'interval_s' must be a number")
        if not interval > 0:
            raise ValueError("watch field 'interval_s' must be > 0")
        spec["watch"] = {"interval_s": float(interval)}
    return spec


def encode_job_spec(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Job spec -> JSON-ready submission body (defaults dropped)."""
    return {
        key: spec[key]
        for key in JOB_SPEC_DEFAULTS
        if key in spec and spec[key] != JOB_SPEC_DEFAULTS[key]
    }


# ----------------------------------------------------------------------
# batches
# ----------------------------------------------------------------------


def encode_batch_request(
    queries: Sequence[Query], ids: Sequence[str]
) -> dict[str, Any]:
    """Queries + per-item request ids -> the ``/api/batch`` body."""
    if len(queries) != len(ids):
        raise ValueError(
            f"{len(queries)} queries but {len(ids)} request ids"
        )
    return {
        "items": [
            {"id": request_id, "query": encode_query(query)}
            for query, request_id in zip(queries, ids)
        ]
    }


def encode_batch_item(status: int, body: Mapping[str, Any]) -> dict[str, Any]:
    """One per-item outcome of a batch answer."""
    return {"status": int(status), "body": dict(body)}


def decode_batch_answer(
    payload: Mapping[str, Any], expected: int
) -> list[tuple[int, dict[str, Any]]]:
    """The ``/api/batch`` response -> ``[(status, body), ...]`` by position."""
    items = payload.get("items")
    if not isinstance(items, list) or len(items) != expected:
        raise ValueError(
            f"batch answer carries {len(items) if isinstance(items, list) else 'no'} "
            f"items, expected {expected}"
        )
    return [
        (int(item["status"]), dict(item["body"])) for item in items
    ]


__all__ = [
    "JOB_SPEC_DEFAULTS",
    "decode_answer",
    "decode_batch_answer",
    "decode_job_spec",
    "decode_query",
    "decode_row",
    "decode_schema",
    "encode_answer",
    "encode_batch_item",
    "encode_batch_request",
    "encode_job_spec",
    "encode_query",
    "encode_row",
    "encode_schema",
    "endpoint_descriptor",
    "endpoint_fingerprint",
    "fingerprint_of",
]
