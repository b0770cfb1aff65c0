"""Tests for dominance and the offline skyline / skyband oracles."""

import numpy as np
import pytest

from repro.core import dominance
from repro.core.dominance import (
    dominated_by_any,
    dominates,
    dominates_row,
    dominator_counts,
    incremental_skyline_update,
    skyband_indices,
    skyband_of_rows,
    skyline_indices,
    skyline_of_rows,
)
from repro.hiddendb import Row


def _shadowed_front(size):
    """``size`` incomparable vectors on an anti-diagonal (rows ``size`` on),
    each shadowed by one vector only it dominates (rows ``0..size-1``).  A
    skyline this large outgrows the strongest kept vectors the filter
    tests first, so most shadows meet their dominator only later."""
    x = np.arange(size)
    front = np.stack([x, size - 1 - x], axis=1)
    return np.concatenate([front + [0, 1], front])


class TestDominates:
    def test_strict_domination(self):
        assert dominates((0, 0), (1, 1))
        assert dominates((0, 1), (0, 2))

    def test_no_self_domination_on_equal_vectors(self):
        assert not dominates((1, 1), (1, 1))

    def test_incomparable(self):
        assert not dominates((0, 1), (1, 0))
        assert not dominates((1, 0), (0, 1))

    def test_antisymmetry(self):
        assert dominates((0, 0), (0, 1))
        assert not dominates((0, 1), (0, 0))

    def test_row_wrapper(self):
        assert dominates_row(Row(0, (0, 0)), Row(1, (1, 1)))

    def test_dominated_by_any(self):
        rows = [Row(0, (1, 1)), Row(1, (3, 0))]
        assert dominated_by_any((2, 2), rows)
        assert not dominated_by_any((0, 0), rows)


class TestSkylineIndices:
    def test_simple(self):
        matrix = np.array([[0, 9], [5, 5], [9, 0], [6, 6]])
        assert skyline_indices(matrix).tolist() == [0, 1, 2]

    def test_single_tuple(self):
        assert skyline_indices(np.array([[3, 3]])).tolist() == [0]

    def test_empty(self):
        assert skyline_indices(np.empty((0, 2))).size == 0

    def test_duplicates_are_all_on_the_skyline(self):
        matrix = np.array([[1, 1], [1, 1], [2, 2]])
        assert skyline_indices(matrix).tolist() == [0, 1]

    def test_one_dimension(self):
        matrix = np.array([[3], [1], [1], [2]])
        assert skyline_indices(matrix).tolist() == [1, 2]

    def test_total_dominator(self):
        matrix = np.array([[5, 5], [0, 0], [3, 9]])
        assert skyline_indices(matrix).tolist() == [1]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            skyline_indices(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize(
        "seed, domain",
        [pytest.param(seed, 6, id=str(seed)) for seed in range(8)]
        # 200 rows over 72 distinct vectors; 13 skyline rows tie on 4.
        + [pytest.param(28, 3, id="duplicates")],
    )
    def test_matches_naive_on_random_data(self, seed, domain):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        m = int(rng.integers(1, 5))
        matrix = rng.integers(0, domain, (n, m))
        naive = {
            i
            for i in range(n)
            if not any(
                dominates(matrix[j], matrix[i]) for j in range(n) if j != i
            )
        }
        assert set(skyline_indices(matrix).tolist()) == naive

    def test_large_chunked_path(self):
        # Many sort-filter chunks: exercise the multi-chunk code path.
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 50, (10_000, 3))
        indices = skyline_indices(matrix)
        sky = matrix[indices]
        for candidate in sky[:20]:
            assert not any(
                dominates(other, candidate)
                for other in sky
                if not np.array_equal(other, candidate)
            )

    def test_dominators_beyond_the_strongest_kept_vectors(self):
        matrix = _shadowed_front(600)
        assert skyline_indices(matrix).tolist() == list(range(600, 1200))

    def test_kept_rows_split_across_comparison_masks(self, monkeypatch):
        monkeypatch.setattr(dominance, "_MASK_CELLS", 1)  # one kept row each
        matrix = _shadowed_front(300)
        assert skyline_indices(matrix).tolist() == list(range(300, 600))

    def test_tied_rows_filtered_once_per_distinct_vector(self, monkeypatch):
        """3000 rows on 6 vectors: the filter sees 6 vectors, and every
        copy of the 3 skyline vectors comes back."""
        seen = []
        filter_chunk = dominance._filter_chunk

        def spy(chunk, kept):
            seen.append(len(chunk))
            return filter_chunk(chunk, kept)

        monkeypatch.setattr(dominance, "_filter_chunk", spy)
        vectors = np.array([[0, 3], [1, 1], [3, 0], [1, 2], [2, 2], [3, 3]])
        matrix = vectors[np.arange(3000) % 6]
        expected = [i for i in range(3000) if i % 6 < 3]
        assert skyline_indices(matrix).tolist() == expected
        assert sum(seen) == 6


class TestIncrementalSkylineUpdate:
    def test_block_folds_match_one_pass(self):
        matrix = _shadowed_front(600)
        order = np.random.default_rng(0).permutation(len(matrix))
        kept = np.empty(0, dtype=np.int64)
        for block in np.array_split(order, 8):
            positions = incremental_skyline_update(matrix[kept], matrix[block])
            kept = np.concatenate([kept, block])[positions]
        assert sorted(kept.tolist()) == list(range(600, 1200))


class TestSkylineOfRows:
    def test_preserves_input_order(self):
        rows = [Row(7, (5, 5)), Row(3, (0, 9)), Row(9, (6, 6))]
        assert [r.rid for r in skyline_of_rows(rows)] == [7, 3]

    def test_empty(self):
        assert skyline_of_rows([]) == []


class TestDominatorCounts:
    def test_chain(self):
        matrix = np.array([[0, 0], [1, 1], [2, 2]])
        assert dominator_counts(matrix).tolist() == [0, 1, 2]

    def test_cap(self):
        matrix = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        assert dominator_counts(matrix, cap=2).tolist() == [0, 1, 2, 2]

    def test_incomparable(self):
        matrix = np.array([[0, 1], [1, 0]])
        assert dominator_counts(matrix).tolist() == [0, 0]

    def test_duplicates_do_not_count(self):
        matrix = np.array([[1, 1], [1, 1]])
        assert dominator_counts(matrix).tolist() == [0, 0]


class TestSkyband:
    def test_band_one_is_skyline(self):
        rng = np.random.default_rng(2)
        matrix = rng.integers(0, 8, (100, 3))
        assert skyband_indices(matrix, 1).tolist() == skyline_indices(matrix).tolist()

    def test_band_grows_monotonically(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 8, (100, 3))
        previous: set[int] = set()
        for band in (1, 2, 3, 4):
            current = set(skyband_indices(matrix, band).tolist())
            assert previous <= current
            previous = current

    def test_band_must_be_positive(self):
        with pytest.raises(ValueError):
            skyband_indices(np.array([[1]]), 0)

    def test_skyband_of_rows(self):
        rows = [Row(0, (0, 0)), Row(1, (1, 1)), Row(2, (2, 2))]
        assert [r.rid for r in skyband_of_rows(rows, 2)] == [0, 1]
        assert skyband_of_rows([], 2) == []
