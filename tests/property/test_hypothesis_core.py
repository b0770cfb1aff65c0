"""Property-based tests (hypothesis) for the core discovery invariants.

The central property of the whole paper: for *any* database, any
domination-consistent ranking function, any ``k`` and any interface
taxonomy, the matching discovery algorithm retrieves exactly the skyline
(as value vectors).  Hypothesis searches the instance space for
counterexamples far more adversarially than fixed seeds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Discoverer, discover
from repro.core.dominance import (
    dominates,
    incremental_skyline_update,
    skyline_indices,
    skyline_of_rows,
)
from repro.hiddendb import (
    InterfaceKind,
    LexicographicRanker,
    LinearRanker,
    RandomSkylineRanker,
    Row,
    TopKInterface,
)

from ..conftest import make_table, truth_band_values, truth_values

K = InterfaceKind

# Small instances explore the combinatorics; the fixed-seed tests cover bulk.
matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.lists(
        st.tuples(*([st.integers(min_value=0, max_value=5)] * m)),
        min_size=0,
        max_size=40,
    )
)

kinds_for = {
    "sq": lambda m: [K.SQ] * m,
    "rq": lambda m: [K.RQ] * m,
    "pq": lambda m: [K.PQ] * m,
    "mixed": lambda m: [(K.RQ, K.PQ, K.SQ)[i % 3] for i in range(m)],
}


def _run_discovery(values, taxonomy, k, ranker):
    if not values:
        return None
    table = make_table(values, kinds=kinds_for[taxonomy](len(values[0])),
                       domain=6)
    interface = TopKInterface(table, ranker=ranker, k=k)
    result = discover(interface)
    assert result.complete
    assert result.skyline_values == truth_values(table)
    return result


@settings(max_examples=60, deadline=None)
@given(values=matrices, k=st.integers(1, 4),
       taxonomy=st.sampled_from(["sq", "rq", "pq", "mixed"]))
def test_discovery_finds_exactly_the_skyline(values, k, taxonomy):
    _run_discovery(values, taxonomy, k, LinearRanker())


@settings(max_examples=40, deadline=None)
@given(values=matrices, taxonomy=st.sampled_from(["sq", "rq", "pq", "mixed"]),
       seed=st.integers(0, 1000))
def test_discovery_under_random_skyline_ranker(values, taxonomy, seed):
    _run_discovery(values, taxonomy, 1, RandomSkylineRanker(seed=seed))


@settings(max_examples=40, deadline=None)
@given(values=matrices, taxonomy=st.sampled_from(["sq", "rq", "pq", "mixed"]))
def test_discovery_under_lexicographic_ranker(values, taxonomy):
    if values:
        m = len(values[0])
        ranker = LexicographicRanker(list(reversed(range(m))))
        _run_discovery(values, taxonomy, 2, ranker)


@settings(max_examples=50, deadline=None)
@given(values=matrices, k=st.integers(1, 4))
def test_anytime_trace_is_monotone_and_sound(values, k):
    if not values:
        return
    table = make_table(values, kinds=K.RQ, domain=6)
    result = discover(TopKInterface(table, k=k))
    truth = truth_values(table)
    costs = [entry.cost for entry in result.trace]
    assert costs == sorted(costs)
    for entry in result.trace:
        assert entry.row.values in truth


@settings(max_examples=40, deadline=None)
@given(values=matrices, k=st.integers(2, 5))
def test_baseline_crawl_retrieves_skyline(values, k):
    if not values:
        return
    table = make_table(values, kinds=K.RQ, domain=6)
    result = Discoverer().run(TopKInterface(table, k=k), "baseline")
    assert result.skyline_values == truth_values(table)


@settings(max_examples=40, deadline=None)
@given(values=matrices)
def test_skyline_oracle_members_are_mutually_non_dominating(values):
    if not values:
        return
    matrix = np.asarray(values)
    indices = skyline_indices(matrix)
    sky = matrix[indices]
    for i in range(len(sky)):
        for j in range(len(sky)):
            if i != j:
                assert not dominates(sky[i], sky[j])


@settings(max_examples=40, deadline=None)
@given(values=matrices)
def test_every_non_skyline_tuple_is_dominated_by_a_skyline_tuple(values):
    if not values:
        return
    matrix = np.asarray(values)
    indices = set(skyline_indices(matrix).tolist())
    sky = matrix[sorted(indices)]
    for position in range(len(matrix)):
        if position not in indices:
            assert any(dominates(s, matrix[position]) for s in sky)


# Three values per attribute: most vectors repeat, so ties are the norm.
tied_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.lists(
        st.tuples(*([st.integers(min_value=0, max_value=2)] * m)),
        min_size=1,
        max_size=60,
    )
)


@settings(max_examples=60, deadline=None)
@given(values=tied_matrices, data=st.data())
def test_block_folds_match_one_skyline_pass(values, data):
    """Folding rows into a maintained skyline block by block keeps exactly
    the rows one ``skyline_of_rows`` pass over all of them keeps."""
    m = len(values[0])
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=6)))
    blocks = [values[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(values)])]
    for extra in ([], [data.draw(st.sampled_from(values))] * 3):
        blocks.insert(data.draw(st.integers(0, len(blocks))), extra)
    at = data.draw(st.integers(1, len(blocks)))
    earlier = [vector for block in blocks[:at] for vector in block]
    if earlier:
        # A block dominating every vector folded before it: one better on
        # the first attribute than all of them.
        floor = np.min(earlier, axis=0).tolist()
        floor[0] -= 1
        blocks.insert(at, [tuple(floor)])
    rows: list[Row] = []
    kept_rows: list[Row] = []
    kept = np.empty((0, m), dtype=np.int64)
    for block_values in blocks:
        block_rows = [
            Row(len(rows) + offset, tuple(vector))
            for offset, vector in enumerate(block_values)
        ]
        rows += block_rows
        block = np.array(block_values, dtype=np.int64).reshape(-1, m)
        positions = incremental_skyline_update(kept, block)
        union = kept_rows + block_rows
        kept_rows = [union[position] for position in positions]
        kept = np.concatenate([kept, block])[positions]
        assert (np.diff(kept.sum(axis=1)) >= 0).all()
    assert {row.rid for row in kept_rows} == {
        row.rid for row in skyline_of_rows(rows)
    }


# Distinct-vector instances for skyband (duplicates make band membership
# unobservable through a top-k interface; see DESIGN.md).
distinct_matrices = st.integers(min_value=2, max_value=3).flatmap(
    lambda m: st.sets(
        st.tuples(*([st.integers(min_value=0, max_value=4)] * m)),
        min_size=1,
        max_size=25,
    ).map(sorted)
)


@settings(max_examples=40, deadline=None)
@given(values=distinct_matrices, band=st.integers(1, 3), k=st.integers(1, 4))
def test_rq_skyband_matches_ground_truth(values, band, k):
    table = make_table(values, kinds=K.RQ, domain=5)
    result = Discoverer().skyband(TopKInterface(table, k=k), band, "rq")
    assert result.skyband_values == truth_band_values(table, band)


@settings(max_examples=40, deadline=None)
@given(values=distinct_matrices, band=st.integers(1, 3), k=st.integers(1, 4))
def test_pq_skyband_matches_ground_truth(values, band, k):
    table = make_table(values, kinds=K.PQ, domain=5)
    result = Discoverer().skyband(TopKInterface(table, k=k), band, "pq")
    assert result.skyband_values == truth_band_values(table, band)
