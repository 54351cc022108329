"""Directional co-occurrence matrices with inverse-distance window weighting.

Each ordered token pair (context at position j, target at position i, j < i,
d = i - j <= window) contributes weight 1/d to left[target][context]. Only
left is built and stored: right[context][target] is left.T, which the SVD
reads as left flagged as transposed. Left is a `linalg.CsrMatrix`, summed one
distance at a time by `linalg.csr_sum`: the working memory is one distance's
pairs and the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EncodedSet
from .linalg import CsrMatrix, csr_sum


class CoocError(Exception):
    """Raised for invalid co-occurrence construction inputs."""


@dataclass
class CoocPair:
    """The left co-occurrence matrix and its window, checked when made; right is left.T."""

    left: CsrMatrix  # (V, V), columns strictly increasing in each row, every value > 0
    window: int

    @property
    def vocab_size(self) -> int:
        return self.left.rows

    def __post_init__(self):
        if self.window < 1:
            raise CoocError(f"window must be >= 1, got {self.window}")
        m, offsets, columns = self.left, self.left.row_offsets, self.left.col_indices
        if m.rows != m.cols:
            raise CoocError("left must be a square vocab_size x vocab_size matrix")
        if not offsets.ndim == columns.ndim == m.values.ndim == 1 or offsets.size != m.rows + 1:
            raise CoocError(f"left needs 1-D arrays and {m.rows + 1} row offsets, not shapes "
                            f"{offsets.shape}, {columns.shape} and {m.values.shape}")
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise CoocError(f"row offsets must start at 0, not at {offsets[0]}, and never fall")
        if not offsets[-1] == columns.size == m.values.size:
            raise CoocError(f"row offsets end at {offsets[-1]}, not at {columns.size} entries")
        if columns.size and not (columns.min() >= 0 and columns.max() < m.cols):
            raise CoocError(f"column indices must lie in [0, {m.cols})")
        rising = np.r_[True, columns[1:] > columns[:-1], True]  # entry j's column > j - 1's
        rising[offsets] = True  # a row's first entry
        if not rising.all():
            raise CoocError("column indices must be strictly increasing within each row")
        if not np.all(m.values > 0):
            raise CoocError("stored values must be strictly positive")


def hal_weight(d: int, window: int) -> float:
    """Inverse-distance weight: 1/d for 0 < d <= window, else 0."""
    if window < 1:
        raise CoocError(f"window must be >= 1, got {window}")
    if 0 < d <= window:
        return 1.0 / d
    return 0.0


def build_cooc(corpus: EncodedSet, vocab_size: int, window: int) -> CoocPair:
    """Accumulate directional co-occurrence counts over encoded documents.

    Windows never cross document boundaries and padded positions contribute
    nothing. Each distance d is counted on its own, in `_distance_counts`, whose
    temporaries die before its CSR, weighted 1/d, is added to the running sum.
    An entry is thus its weighted counts added in ascending d, bitwise
    independent of document order, and no array spans two distances: beside the
    sum, the transient is a few arrays the size of one distance's pairs.
    """
    if not len(corpus):
        raise CoocError("corpus is empty")
    ids, lengths = corpus.ids, corpus.lengths
    bad = np.flatnonzero((corpus.mask & ((ids < 0) | (ids >= vocab_size))).any(axis=1))
    if bad.size:
        raise CoocError(f"document {bad[0]} contains an id outside [0, {vocab_size})")

    left = CsrMatrix(np.zeros(vocab_size + 1, int), np.zeros(0, int), np.zeros(0), vocab_size,
                     vocab_size)
    for d in range(1, min(window, ids.shape[1] - 1) + 1):
        left = csr_sum(left, _distance_counts(ids, lengths, vocab_size, d, hal_weight(d, window)))
    return CoocPair(left=left, window=window)


def _distance_counts(ids, lengths, V: int, d: int, weight: float) -> CsrMatrix:
    """weight times each (target, context) pair's count at distance d, as a V x V CSR. The
    target*V+context keys are 32-bit while V*V fits; sorted, each run of a key is one entry."""
    real = np.arange(d, ids.shape[1]) < lengths[:, None]  # target slot d + j is a real token
    keys = np.multiply(ids[:, d:][real], V, dtype=np.int32 if V * V < 2**31 else np.int64)
    keys += ids[:, : ids.shape[1] - d][real]
    del real
    keys.sort()  # in place; rows, and columns within a row, come out ascending
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]][: keys.size])  # each run's start
    counts, keys = np.diff(np.r_[first, keys.size]) * weight, keys[first]
    del first
    return CsrMatrix(np.searchsorted(keys // V, np.arange(V + 1)), keys % V, counts, V, V)


def concat_pair(pair: CoocPair) -> list[tuple[CsrMatrix, bool]]:
    """[left | right] as truncated_svd's column blocks: left, then left flagged as its
    transpose. Neither right = left.T nor the V x 2V matrix is built."""
    return [(pair.left, False), (pair.left, True)]
