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
vectors first, then against its own survivors, on 2-D masks.
:func:`skyline_indices` runs it once over the distinct vectors of a
matrix, and :func:`incremental_skyline_update` folds blocks of new vectors
into a maintained skyline with the same chunk step.

The masks compare each column once, with ``<=``, and settle strictness
with one ``<`` on coordinate sums: an integer vector weakly better than
another on every column is strictly better on one exactly when its sum is
smaller.  The rule is exact for integers only, so the kernel takes integer
vectors whose sums fit int64 and raises :class:`ValueError` on any other
matrix.  It compares column-major operands, built once per skyline or
fold, in the narrowest of int16, int32 and int64 that holds every value
and every sum of the vectors at hand (int16 for the diamonds domains).

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
#: Types the masks compare in, narrowest first.
_COMPARE_TYPES = (np.int16, np.int32, np.int64)


class _Columns:
    """Vectors as mask operands: ``values`` holds ``m + 1`` rows, the
    coordinate sums and then the ``m`` columns, one entry per vector.
    ``len`` counts vectors; indexing picks vectors."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def __len__(self) -> int:
        return self.values.shape[1]

    def __getitem__(self, index: slice | np.ndarray) -> "_Columns":
        if isinstance(index, slice):
            return _Columns(self.values[:, index])
        # Unlike fancy indexing on the second axis, ``take`` keeps each
        # row of the copy contiguous.
        return _Columns(self.values.take(index, axis=1))

    def join(self, other: "_Columns") -> "_Columns":
        """These vectors followed by ``other``'s."""
        return _Columns(np.concatenate([self.values, other.values], axis=1))


def _operands(matrix: np.ndarray) -> _Columns:
    """The rows of the ``n x m`` integer ``matrix`` as :class:`_Columns`,
    in the narrowest of :data:`_COMPARE_TYPES` that holds every value and
    every coordinate sum.

    Sums are exact int64 sums, so vectors must keep them in int64 range;
    :class:`ValueError` if ``matrix`` holds anything but integers.
    """
    if matrix.size and not np.can_cast(matrix.dtype, np.int64):
        raise ValueError(
            "matrix must hold int64 integers: the sum rule is exact only "
            "for integers"
        )
    rows = np.empty((matrix.shape[1] + 1, matrix.shape[0]), dtype=np.int64)
    rows[1:] = matrix.T
    rows[1:].sum(axis=0, out=rows[0])
    low, high = (int(rows.min()), int(rows.max())) if rows.size else (0, 0)
    for dtype in _COMPARE_TYPES:
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            break
    return _Columns(rows.astype(dtype))


def _dominated_by_block(chunk: _Columns, kept: _Columns) -> np.ndarray:
    """Mask of ``chunk`` vectors dominated by at least one ``kept`` vector.

    Builds 2-D masks of ``kept x chunk`` pairs, in sub-blocks of ``kept``
    sized to :data:`_MASK_CELLS`; the longer side runs along the mask rows,
    so each comparison sweeps long contiguous runs.  One ``<=`` per column
    finds the kept vectors weakly better on every column, and one ``<`` on
    coordinate sums settles strictness: for integer vectors a weakly better
    vector is strictly better on some column exactly when its sum is
    smaller.  So identical vectors do not dominate each other and a vector
    never dominates itself.
    """
    mask = np.zeros(len(chunk), dtype=bool)
    block = max(1, _MASK_CELLS // max(len(chunk), 1))
    for start in range(0, len(kept), block):
        piece = kept.values[:, start : start + block]
        if piece.shape[1] > len(chunk):
            left, right, axis = piece[:, None, :], chunk.values[:, :, None], 1
        else:
            left, right, axis = piece[:, :, None], chunk.values[:, None, :], 0
        dominated = np.less(left[0], right[0])
        weakly = np.empty_like(dominated)
        for kept_column, column in zip(left[1:], right[1:]):
            np.less_equal(kept_column, column, out=weakly)
            dominated &= weakly
        mask |= dominated.any(axis=axis)
    return mask


def _filter_chunk(chunk: _Columns, kept: _Columns) -> np.ndarray:
    """Positions of the ``chunk`` vectors that neither a ``kept`` vector
    nor another ``chunk`` vector dominates.

    ``kept`` is a skyline in coordinate-sum order, so its strongest vectors
    go first.  Survivors are compared with each other only: a vector
    dominated by a filtered-out one is dominated by whatever filtered that
    one out.
    """
    alive = np.flatnonzero(~_dominated_by_block(chunk, kept[:_STRONGEST]))
    if len(kept) > _STRONGEST and alive.size:
        alive = alive[~_dominated_by_block(chunk[alive], kept[_STRONGEST:])]
    if alive.size > 1:
        survivors = chunk[alive]
        alive = alive[~_dominated_by_block(survivors, survivors)]
    return alive


def skyline_indices(matrix: np.ndarray) -> np.ndarray:
    """Row positions of the skyline of the integer ``matrix``, sorted
    ascending.

    One sort-filter pass (SFS, Chomicki et al., ICDE 2003) over the
    *distinct* vectors in ascending coordinate-sum order, in which no vector
    is dominated by a later one: each chunk goes through
    :func:`_filter_chunk` against the skyline kept so far and its survivors
    join it.  The one sort also makes identical vectors adjacent, so tied
    data costs what its distinct vectors cost; since identical vectors never
    dominate each other, every row carrying a skyline vector is kept.
    :class:`ValueError` unless ``matrix`` is 2-D and holds integers.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    operands = _operands(matrix)
    order = np.lexsort((*operands.values[1:], operands.values[0]))
    ordered = operands[order].values
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    distinct = operands[order[first]]
    on_skyline = np.zeros(len(distinct), dtype=bool)
    kept = distinct[:0]
    for start in range(0, len(distinct), _CHUNK):
        chunk = distinct[start : start + _CHUNK]
        fresh = _filter_chunk(chunk, kept)
        kept = kept.join(chunk[fresh])
        on_skyline[start + fresh] = True
    return np.sort(order[on_skyline[np.cumsum(first) - 1]])


def incremental_skyline_update(
    skyline: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """Fold a block of new vectors into a maintained skyline.

    ``skyline`` is ``(s, m)`` in coordinate-sum order; ``block`` is
    ``(b, m)``; both hold integers.  Returns the positions in
    ``np.concatenate((skyline, block))`` of the union's skyline, again in
    coordinate-sum order.  The union becomes mask operands once, in the
    narrowest type that holds it (:func:`_operands`); the block takes the
    chunk step of :func:`skyline_indices`, then kept vectors its survivors
    dominate drop.  Identical vectors never dominate each other, so every
    copy of a skyline vector is kept; callers pass each distinct vector
    once to keep the masks small.
    """
    union = _operands(np.concatenate([skyline, block]))
    old, new = union[: len(skyline)], union[len(skyline) :]
    fresh = _filter_chunk(new, old)
    kept = np.flatnonzero(~_dominated_by_block(old, new[fresh]))
    positions = np.concatenate([kept, len(old) + fresh])
    return positions[np.argsort(union.values[0, positions], kind="stable")]


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
