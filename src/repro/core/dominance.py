"""Dominance tests and skyline / K-skyband computation.

These are the classical *full-access* operators (Borzsony et al., ICDE 2001)
used in two roles:

* as the ground-truth oracle that verifies the hidden-database discovery
  algorithms (the oracle sees the raw matrix; the algorithms never do);
* as the skyline each discovery session maintains over the tuples it
  retrieves -- for the BASELINE crawler, the paper's local extraction step.

One sort-filter kernel (SFS, Chomicki et al., ICDE 2003) computes every
skyline.  Vectors in ascending coordinate-sum order can only be dominated
by earlier ones; each chunk is tested against the kept skyline, strongest
vectors first, then against its own survivors, on column-wise 2-D masks.
:func:`skyline_indices` runs it once over the distinct vectors of a
matrix, and :func:`incremental_skyline_update` folds blocks of new vectors
into a maintained skyline with the same chunk step.

All values are in preference space: smaller is better on every attribute.
A tuple ``t`` dominates ``u`` iff ``t <= u`` component-wise and ``t < u`` on
at least one component; tuples with identical value vectors do not dominate
each other (the paper's general-positioning convention).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..hiddendb.table import Row


def dominates(left: Sequence[int], right: Sequence[int]) -> bool:
    """Whether value vector ``left`` dominates ``right``."""
    strictly_better = False
    for left_value, right_value in zip(left, right):
        if left_value > right_value:
            return False
        if left_value < right_value:
            strictly_better = True
    return strictly_better


def dominates_row(left: Row, right: Row) -> bool:
    """Whether row ``left`` dominates row ``right``."""
    return dominates(left.values, right.values)


def dominated_by_any(values: Sequence[int], rows: Iterable[Row]) -> bool:
    """Whether any row in ``rows`` dominates the value vector ``values``."""
    return any(dominates(row.values, values) for row in rows)


#: Cells of one ``kept x chunk`` dominance mask (a few MB of scratch).
_MASK_CELLS = 1 << 22
#: Distinct vectors per chunk of :func:`skyline_indices`.
_CHUNK = 256
#: Kept vectors a chunk meets first: in coordinate-sum order the strongest,
#: which dominate most candidates.
_STRONGEST = 192


def _dominated_by_block(chunk: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Mask of ``chunk`` rows dominated by at least one row of ``kept``.

    Compares column by column on 2-D ``kept x chunk`` masks (weakly better
    on every column, strictly better on one), in sub-blocks of ``kept``
    sized to :data:`_MASK_CELLS`.  Identical vectors do not dominate each
    other, so a row never dominates itself.
    """
    mask = np.zeros(chunk.shape[0], dtype=bool)
    columns = np.ascontiguousarray(chunk.T)
    block = max(1, _MASK_CELLS // max(chunk.shape[0], 1))
    for start in range(0, kept.shape[0], block):
        piece = np.ascontiguousarray(kept[start : start + block].T)[:, :, None]
        weakly = piece[0] <= columns[0]
        strictly = piece[0] < columns[0]
        for column in range(1, columns.shape[0]):
            weakly &= piece[column] <= columns[column]
            strictly |= piece[column] < columns[column]
        mask |= (weakly & strictly).any(axis=0)
    return mask


def _filter_chunk(chunk: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Positions of the ``chunk`` rows that neither a ``kept`` row nor
    another ``chunk`` row dominates.

    ``kept`` is a skyline in coordinate-sum order, so its strongest vectors
    go first.  Survivors are compared with each other only: a row dominated
    by a filtered-out row is dominated by whatever filtered that row out.
    """
    alive = np.flatnonzero(~_dominated_by_block(chunk, kept[:_STRONGEST]))
    if kept.shape[0] > _STRONGEST and alive.size:
        alive = alive[~_dominated_by_block(chunk[alive], kept[_STRONGEST:])]
    if alive.size > 1:
        survivors = chunk[alive]
        alive = alive[~_dominated_by_block(survivors, survivors)]
    return alive


def skyline_indices(matrix: np.ndarray) -> np.ndarray:
    """Row positions of the skyline of ``matrix``, sorted ascending.

    One sort-filter pass (SFS, Chomicki et al., ICDE 2003) over the
    *distinct* vectors in ascending coordinate-sum order, in which no vector
    is dominated by a later one: each chunk goes through
    :func:`_filter_chunk` against the skyline kept so far and its survivors
    join it.  The one sort also makes identical vectors adjacent, so tied
    data costs what its distinct vectors cost; since identical vectors never
    dominate each other, every row carrying a skyline vector is kept.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    order = np.lexsort((*matrix.T, matrix.sum(axis=1)))
    ordered = matrix[order]
    first = np.ones(ordered.shape[0], dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    distinct = ordered[first]
    on_skyline = np.zeros(distinct.shape[0], dtype=bool)
    kept = distinct[:0]
    for start in range(0, distinct.shape[0], _CHUNK):
        chunk = distinct[start : start + _CHUNK]
        fresh = _filter_chunk(chunk, kept)
        kept = np.concatenate([kept, chunk[fresh]])
        on_skyline[start + fresh] = True
    return np.sort(order[on_skyline[np.cumsum(first) - 1]])


def incremental_skyline_update(
    skyline: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """Fold a block of new vectors into a maintained skyline.

    ``skyline`` is ``(s, m)`` in coordinate-sum order; ``block`` is
    ``(b, m)``.  Returns the positions in ``np.concatenate((skyline,
    block))`` of the union's skyline, again in coordinate-sum order.  The
    block takes the chunk step of :func:`skyline_indices`, then kept vectors
    its survivors dominate drop.  Identical vectors never dominate each
    other, so every copy of a skyline vector is kept; callers pass each
    distinct vector once to keep the masks small.
    """
    fresh = _filter_chunk(block, skyline)
    survivors = block[fresh]
    kept = np.flatnonzero(~_dominated_by_block(skyline, survivors))
    positions = np.concatenate([kept, skyline.shape[0] + fresh])
    sums = np.concatenate([skyline[kept], survivors]).sum(axis=1)
    return positions[np.argsort(sums, kind="stable")]


def skyline_of_rows(rows: Sequence[Row]) -> list[Row]:
    """Skyline of an explicit row collection, preserving input order."""
    if not rows:
        return []
    matrix = np.array([row.values for row in rows], dtype=np.int64)
    return [rows[position] for position in skyline_indices(matrix).tolist()]


def dominator_counts(matrix: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Number of tuples dominating each row (counts clip at ``cap``).

    Visits tuples in ascending coordinate-sum order: only earlier tuples can
    dominate a later one, so each row is compared against a growing prefix.
    Quadratic in the worst case -- intended for ground-truth verification and
    moderate ``n`` (one answer's ``k`` rows, as the skyband pivot passes),
    not for every tuple a crawl retrieved.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return counts
    order = np.argsort(matrix.sum(axis=1), kind="stable")
    sorted_values = matrix[order]
    for position in range(1, n):
        candidate = sorted_values[position]
        prefix = sorted_values[:position]
        weakly_better = np.all(prefix <= candidate, axis=1)
        strictly_better = np.any(prefix < candidate, axis=1)
        count = int(np.count_nonzero(weakly_better & strictly_better))
        if cap is not None:
            count = min(count, cap)
        counts[order[position]] = count
    return counts


def skyband_indices(matrix: np.ndarray, k_band: int) -> np.ndarray:
    """Row positions of the top-``k_band`` skyband, sorted ascending.

    A tuple belongs to the K-skyband iff it is dominated by fewer than ``K``
    other tuples; the skyline is the special case ``K = 1``.
    """
    if k_band < 1:
        raise ValueError(f"k_band must be >= 1, got {k_band}")
    counts = dominator_counts(matrix, cap=k_band)
    return np.flatnonzero(counts < k_band)


def skyband_of_rows(rows: Sequence[Row], k_band: int) -> list[Row]:
    """Top-``k_band`` skyband of an explicit row collection."""
    if not rows:
        return []
    matrix = np.array([row.values for row in rows], dtype=np.int64)
    keep = set(skyband_indices(matrix, k_band).tolist())
    return [row for position, row in enumerate(rows) if position in keep]
