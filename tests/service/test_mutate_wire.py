"""Over-the-wire endpoint mutations: ``POST /api/mutate`` and the client.

Mutations are the freshness plane's operator surface: unbilled, atomic
per batch, advancing the advertised ``data_version`` by exactly one.
These tests drive the real HTTP server and pin the wire contract --
explicit ops and server-drawn churn, the error shapes, and the client
folding the new version into its skew detector (dropping its cache).
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.datagen import churn_ops
from repro.hiddendb import InterfaceKind, Query, TopKInterface
from repro.service import RemoteTopKInterface

from ..conftest import make_table

ROWS = [(0, 9), (3, 3), (9, 0), (5, 5), (7, 2), (2, 7)]


@pytest.fixture
def table():
    return make_table(ROWS, kinds=InterfaceKind.RQ, domain=10)


def post_mutate(url, payload):
    request = urllib.request.Request(
        f"{url}/api/mutate",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read().decode())


class TestMutateEndpoint:
    def test_explicit_ops_apply_and_bump_version(self, serve, table):
        server = serve(table, k=2)
        status, body = post_mutate(server.url, {"ops": [
            {"op": "insert", "values": [1, 1]},
            {"op": "delete", "rid": 0},
        ]})
        assert status == 200
        assert body == {"applied": 2, "data_version": 1}
        assert table.data_version == 1

    def test_server_drawn_churn_matches_local_batch(self, serve):
        table = make_table(ROWS, kinds=InterfaceKind.RQ, domain=10)
        twin = make_table(ROWS, kinds=InterfaceKind.RQ, domain=10)
        server = serve(table, k=2)
        expected = churn_ops(twin, 0.5, seed=9)
        status, body = post_mutate(
            server.url, {"churn": {"frac": 0.5, "seed": 9}}
        )
        assert status == 200
        assert body["applied"] == len(expected)
        # (table, frac, seed) names the same batch on both sides.
        twin.apply_mutations(expected)
        assert table.matrix.tolist() == twin.matrix.tolist()

    def test_mutations_are_never_billed(self, serve, connect, table):
        server = serve(table, k=2, key_budget=5)
        client = connect(server.url)
        client.query(Query.select_all())
        billed_before = client.queries_issued
        status, _ = post_mutate(server.url, {"ops": [
            {"op": "delete", "rid": 0},
        ]})
        assert status == 200
        assert client.queries_issued == billed_before

    @pytest.mark.parametrize(
        "payload,expected_error",
        [
            ({}, "bad_request"),
            ({"ops": [], "churn": {"frac": 0.1}}, "bad_request"),
            ({"churn": {"seed": 1}}, "bad_mutation"),
            ({"churn": {"frac": 2.0}}, "bad_mutation"),
            ({"ops": [{"op": "merge"}]}, "bad_mutation"),
            ({"ops": [{"op": "delete", "rid": 999}]}, "bad_mutation"),
            ({"ops": [{"op": "insert", "values": [1]}]}, "bad_mutation"),
        ],
        ids=["neither", "both", "no-frac", "bad-frac", "bad-op",
             "unknown-rid", "arity"],
    )
    def test_invalid_payloads_are_rejected(
        self, serve, table, payload, expected_error
    ):
        server = serve(table, k=2)
        status, body = post_mutate(server.url, payload)
        assert status == 400
        assert body["error"] == expected_error
        assert not body["retriable"]
        # A rejected batch applied nothing.
        assert table.data_version == 0

    def test_served_answers_reflect_the_mutation(
        self, serve, connect, table
    ):
        server = serve(table, k=3)
        client = connect(server.url)
        before = client.query(Query.select_all())
        post_mutate(server.url, {"ops": [
            {"op": "insert", "values": [0, 0]},
        ]})
        after = client.query(Query.select_all())
        assert before.rows != after.rows
        assert (0, 0) in {row.values for row in after.rows}


class TestClientMutate:
    def test_client_mutate_folds_the_new_version(self, serve, table):
        with RemoteTopKInterface(serve(table, k=2).url) as client:
            assert client.data_version == 0
            reply = client.mutate([{"op": "delete", "rid": 0}])
            assert reply == {"applied": 1, "data_version": 1}
            assert client.data_version == 1

    def test_client_mutate_churn_mode(self, serve, table):
        with RemoteTopKInterface(serve(table, k=2).url) as client:
            reply = client.mutate(churn={"frac": 0.5, "seed": 3})
            assert reply["applied"] == len(
                churn_ops(
                    make_table(ROWS, kinds=InterfaceKind.RQ, domain=10),
                    0.5,
                    seed=3,
                )
            )
            assert reply["data_version"] == 1

    def test_client_mutate_requires_exactly_one_mode(self, serve, table):
        with RemoteTopKInterface(serve(table, k=2).url) as client:
            with pytest.raises(ValueError):
                client.mutate()
            with pytest.raises(ValueError):
                client.mutate(
                    [{"op": "delete", "rid": 0}], churn={"frac": 0.1}
                )

    def test_skew_detection_tracks_the_new_version(
        self, serve, connect, table
    ):
        server = serve(table, k=2)
        client = connect(server.url)
        query = Query.select_all()
        client.query(query)
        assert (client.version_skews, client.data_version) == (0, 0)
        # Another operator mutates behind our back.  Detection rides on
        # billed answers only: the next wire round trip advertises the
        # new version, and the answer itself is fresh.
        post_mutate(server.url, {"ops": [{"op": "insert",
                                          "values": [0, 0]}]})
        fresh = client.query(query)
        assert client.version_skews == 1
        assert client.data_version == 1
        assert (0, 0) in {row.values for row in fresh.rows}

    def test_refresh_data_version_is_a_free_probe(
        self, serve, connect, table
    ):
        server = serve(table, k=2)
        client = connect(server.url)
        post_mutate(server.url, {"ops": [{"op": "delete", "rid": 0}]})
        assert client.refresh_data_version() == 1
        assert client.queries_issued == 0

    def test_parity_with_local_interface_after_churn(self, serve):
        table = make_table(ROWS, kinds=InterfaceKind.RQ, domain=10)
        twin = make_table(ROWS, kinds=InterfaceKind.RQ, domain=10)
        server = serve(table, k=3)
        with RemoteTopKInterface(server.url) as client:
            client.mutate(churn={"frac": 0.5, "seed": 4})
            twin.apply_mutations(churn_ops(twin, 0.5, seed=4))
            local = TopKInterface(twin, k=3)
            for hi in range(10):
                query = Query.select_all().and_upper(0, hi)
                assert client.query(query).rows == local.query(query).rows
