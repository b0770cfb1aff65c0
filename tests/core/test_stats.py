"""Tests for the query-log analytics."""

from repro.core.base import DiscoverySession
from repro.core.rq import rq_db_sky
from repro.core.sq import sq_db_sky
from repro.core.stats import summarize_session
from repro.hiddendb import Query, TopKInterface

from ..conftest import make_table


def _session(values=((0, 9), (5, 5), (9, 0), (6, 6)), k=2):
    return DiscoverySession(
        TopKInterface(make_table(values, domain=10), k=k), record_log=True
    )


class TestSummarize:
    def test_empty_session(self):
        summary = summarize_session(_session())
        assert summary.total_queries == 0
        assert summary.empty_fraction == 0.0
        assert summary.redundancy == 0.0

    def test_counts_answer_categories(self):
        session = _session(k=2)
        session.issue(Query.select_all())  # overflow (4 rows > k)
        session.issue(Query.select_all().and_upper(0, 0))  # 1 row: underflow
        empty = Query.select_all().and_upper(0, 0).and_upper(1, 0)
        session.issue(empty)  # no (0, 0) tuple exists
        summary = summarize_session(session)
        assert summary.total_queries == 3
        assert summary.overflowing_answers == 1
        assert summary.underflowing_answers == 1
        assert summary.empty_answers == 1
        assert abs(summary.empty_fraction - 1 / 3) < 1e-9

    def test_redundancy_counts_repeats(self):
        session = _session(k=2)
        session.issue(Query.select_all())
        session.issue(Query.select_all())  # same two rows again
        summary = summarize_session(session)
        assert summary.rows_returned == 4
        assert summary.distinct_rows == 2
        assert summary.redundant_rows == 2
        assert summary.redundancy == 0.5

    def test_predicate_histogram(self):
        session = _session()
        session.issue(Query.select_all())
        session.issue(Query.select_all().and_upper(0, 5))
        session.issue(Query.select_all().and_upper(0, 5).and_upper(1, 5))
        summary = summarize_session(session)
        assert summary.predicate_histogram == {0: 1, 1: 1, 2: 1}
        assert summary.max_predicates == 2

    def test_as_rows_is_reportable(self):
        session = _session()
        session.issue(Query.select_all())
        rows = summarize_session(session).as_rows()
        assert any(row["metric"] == "total queries" for row in rows)


class TestAlgorithmSignatures:
    def test_sq_more_redundant_than_rq_on_anticorrelated_data(self):
        """The §4 story, quantified: SQ's overlapping branches return known
        tuples again and again; RQ's exclusive queries do not."""
        from repro.datagen.synthetic import correlated

        table = correlated(400, 3, domain=12, rho=-0.8, seed=2)
        sq_session = DiscoverySession(
            TopKInterface(table, k=1), record_log=True
        )
        sq_db_sky(sq_session)
        rq_session = DiscoverySession(
            TopKInterface(table, k=1), record_log=True
        )
        rq_db_sky(rq_session)
        sq_summary = summarize_session(sq_session)
        rq_summary = summarize_session(rq_session)
        assert sq_summary.redundancy > rq_summary.redundancy
        # Both runs nevertheless confirm the same skyline.
        sq_sky = {row.values for row in sq_session.confirmed_skyline()}
        rq_sky = {row.values for row in rq_session.confirmed_skyline()}
        assert sq_sky == rq_sky
