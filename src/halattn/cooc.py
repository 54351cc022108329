"""Directional co-occurrence matrices with inverse-distance window weighting.

Each ordered token pair (context at position j, target at position i, j < i,
d = i - j <= window) contributes weight 1/d to left[target][context]. Only
left is accumulated and stored; the right matrix, right[context][target],
is derived as left.T rather than accumulated.
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
    """The left co-occurrence matrix and its window; right is derived as left.T."""

    left: sp.csr_matrix  # (V, V), canonical CSR, every stored value > 0
    window: int

    @property
    def vocab_size(self) -> int:
        return int(self.left.shape[0])

    @property
    def right(self) -> sp.csr_matrix:
        return self.left.T.tocsr()

    def validate(self):
        if self.window < 1:
            raise CoocError("window must be >= 1")
        m = self.left
        if m.shape[0] != m.shape[1]:
            raise CoocError("left must be a square vocab_size x vocab_size matrix")
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


def _merge_distance_counts(
    per_distance: list[tuple[np.ndarray, np.ndarray]], window: int, vocab_size: int
) -> sp.csr_matrix:
    """Combine per-distance integer pair counts into one weighted CSR.

    Counts are exact integers, so the result is independent of document
    order; the 1/d weighting is applied in ascending-distance order.
    """
    all_keys = np.concatenate([k for k, _ in per_distance])
    weighted = np.concatenate(
        [cnt.astype(np.float64) * hal_weight(d + 1, window) for d, (_, cnt) in enumerate(per_distance)]
    )
    unique_keys, inverse = np.unique(all_keys, return_inverse=True)
    totals = np.zeros(unique_keys.shape[0], dtype=np.float64)
    np.add.at(totals, inverse, weighted)
    # Keys are row*V+col in ascending order, so rows and columns come out sorted.
    rows = unique_keys // vocab_size
    offsets = np.searchsorted(rows, np.arange(vocab_size + 1))
    return sp.csr_matrix((totals, unique_keys % vocab_size, offsets), shape=(vocab_size, vocab_size))


def build_cooc(corpus: EncodedSet, vocab_size: int, window: int) -> CoocPair:
    """Accumulate directional co-occurrence counts over encoded documents.

    Windows never cross document boundaries and padded positions contribute
    nothing. Pair counts are gathered per distance as exact integers, so the
    result is bitwise independent of document order.
    """
    if not len(corpus):
        raise CoocError("corpus is empty")
    if window < 1:
        raise CoocError(f"window must be >= 1, got {window}")
    mask = corpus.mask
    bad = np.flatnonzero((mask & ((corpus.ids < 0) | (corpus.ids >= vocab_size))).any(axis=1))
    if bad.size:
        raise CoocError(f"document {bad[0]} contains an id outside [0, {vocab_size})")
    flat = corpus.ids[mask].astype(np.int64)  # each document's real ids, one after another
    starts = np.concatenate(([0], np.cumsum(corpus.lengths)[:-1]))
    start_of = np.repeat(starts, corpus.lengths)
    positions = np.arange(flat.size, dtype=np.int64)

    V = vocab_size
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for d in range(1, window + 1):
        valid = positions - d >= start_of
        targets = flat[valid]
        contexts = flat[positions[valid] - d]
        parts.append(np.unique(targets * V + contexts, return_counts=True))
    return CoocPair(left=_merge_distance_counts(parts, window, V), window=window)


def concat_pair(pair: CoocPair) -> sp.csr_matrix:
    """Materialize the V x 2V CSR concatenation [left | right]."""
    return sp.hstack([pair.left, pair.left.T], format="csr")
