"""Directional co-occurrence matrices with inverse-distance window weighting.

Each ordered token pair (context at position j, target at position i, j < i,
d = i - j <= window) contributes weight 1/d to left[target][context]. Only
left is accumulated and stored; right[context][target] is left.T, and the SVD
takes [left | right] as two CSR blocks, never joined. Left is summed one
distance at a time: the working memory is one distance's pairs and the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import EncodedSet


class CoocError(Exception):
    """Raised for invalid co-occurrence construction inputs."""


@dataclass
class CoocPair:
    """The left co-occurrence matrix and its window, checked when made; right is left.T."""

    left: sp.csr_matrix  # (V, V), canonical CSR, every stored value > 0
    window: int

    @property
    def vocab_size(self) -> int:
        return int(self.left.shape[0])

    @property
    def right(self) -> sp.csr_matrix:
        return self.left.T.tocsr()

    def __post_init__(self):
        if self.window < 1:
            raise CoocError(f"window must be >= 1, got {self.window}")
        m = self.left
        if m.shape[0] != m.shape[1]:
            raise CoocError("left must be a square vocab_size x vocab_size matrix")
        if not m.indptr[-1] == m.indices.size == m.data.size:  # check_format would prune
            raise CoocError(f"row offsets end at {m.indptr[-1]}, not at {m.indices.size} entries")
        try:
            m.check_format(full_check=True)
        except ValueError as exc:
            raise CoocError(f"malformed CSR: {exc}") from None
        if not m.has_canonical_format:
            raise CoocError("column indices must be strictly increasing within each row")
        if not np.all(m.data > 0):
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
    nothing. Each distance d is counted on its own: its (target, context) keys
    come straight from the (N, T) id rows, np.unique counts them as exact
    integers, and their CSR, weighted 1/d, is added to the running sum. An
    entry is thus its weighted counts added in ascending d, bitwise independent
    of document order, and no array spans two distances: beside the sum, the
    transient is a few int64 arrays the size of one distance's pairs.
    """
    if not len(corpus):
        raise CoocError("corpus is empty")
    ids, lengths = corpus.ids, corpus.lengths
    bad = np.flatnonzero((corpus.mask & ((ids < 0) | (ids >= vocab_size))).any(axis=1))
    if bad.size:
        raise CoocError(f"document {bad[0]} contains an id outside [0, {vocab_size})")

    V, T = vocab_size, ids.shape[1]
    left = sp.csr_matrix((V, V))
    for d in range(1, min(window, T - 1) + 1):
        real = np.arange(d, T) < lengths[:, None]  # target slot d + j is a real token
        keys = ids[:, d:][real].astype(np.int64) * V + ids[:, : T - d][real]
        keys, counts = np.unique(keys, return_counts=True)
        # Keys are row*V+col in ascending order, so rows and columns come out sorted.
        offsets = np.searchsorted(keys // V, np.arange(V + 1))
        left = left + sp.csr_matrix((counts * hal_weight(d, window), keys % V, offsets), shape=(V, V))
    return CoocPair(left=left, window=window)


def concat_pair(pair: CoocPair) -> list[tuple[sp.csr_matrix, sp.csr_matrix]]:
    """[left | right] as truncated_svd's column blocks, each beside the CSR of its transpose:
    [(left, right), (right, left)]. Only right = left.T is built; the V x 2V matrix is not."""
    right = pair.right
    return [(pair.left, right), (right, pair.left)]
