"""Randomized truncated SVD for embedding compression.

The randomized range finder of Halko, Martinsson and Tropp (2011): a seeded
Gaussian test matrix and power iterations, each product re-orthonormalized
by panelled CGS2, then an exact SVD of the small projected matrix by
QR-preconditioned one-sided Jacobi (Drmac and Veselic, 2008) in Brent-Luk
round-robin order, each to a fixed tolerance, `_DROP_TOL` and `_JACOBI_TOL`.
The sparse matrix comes as `CsrMatrix` column blocks, each
flagged as itself or its transpose, so neither the joined matrix nor a transposed
copy is built: products read a block's own arrays, as CSR on row ranges, one per
core, or as its transpose's CSC on one thread, to the joined CSR's bits. Sums and
products run scipy's compiled kernels, loaded without the heavy `scipy.sparse`.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np

_ORTHO_TOL = 1e-8
_DROP_TOL = 1e-12
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 30
_PANEL = 8  # columns _cgs2 projects per matrix product
OVERSAMPLE, POWER_ITERS = 10, 2  # truncated_svd's defaults, and the svd command's
# threads, and row ranges, per sparse product: the cores this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _extension(name: str):
    """scipy's compiled module `name`: the one imported, else its file, found without importing
    scipy, loaded alone and registered, so that a later import of its package shares it."""
    if name not in sys.modules:
        where = os.path.join(util.find_spec("scipy").submodule_search_locations[0],
                             *name.split(".")[1:])
        files = [where + s for s in machinery.EXTENSION_SUFFIXES if os.path.isfile(where + s)]
        if not files:
            raise ImportError(f"no compiled {name} at {where}")
        spec = util.spec_from_file_location(name, files[0])
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


_kernels = _extension("scipy.sparse._sparsetools")  # the sparse kernels, without scipy.sparse


def _index_dtype(*arrays) -> type:
    """int32 where every entry of arrays lies in [0, 2**31), as scipy's CSR type chooses (a
    negative index is kept for the checks to refuse), else int64."""
    fits = all(not np.size(a) or 0 <= np.min(a) and np.max(a) < 2**31 for a in arrays)
    return np.int32 if fits else np.int64


class LinalgError(Exception):
    """Raised for shape mismatches and invalid factorization inputs."""


class ConvergenceError(LinalgError):
    """Raised when an iterative kernel exhausts its sweep budget."""


@dataclass
class SvdResult:
    """Rank-k factorization u @ diag(singular_values) @ vt."""

    u: np.ndarray  # (rows, k), orthonormal columns
    singular_values: np.ndarray  # (k,), non-increasing, >= 0
    vt: np.ndarray  # (k, cols), orthonormal rows

    def validate(self):
        s = self.singular_values
        if np.any(s < 0) or np.any(np.diff(s) > 0):
            raise LinalgError("singular values must be non-negative and non-increasing")
        for mat, name in ((self.u.T @ self.u, "U"), (self.vt @ self.vt.T, "V")):
            resid = np.abs(mat - np.eye(mat.shape[0])).max()
            if resid > _ORTHO_TOL:
                raise LinalgError(f"{name} orthonormality residual {resid:.2e} exceeds {_ORTHO_TOL}")


@dataclass
class CsrMatrix:
    """A rows x cols sparse matrix: row i holds values[row_offsets[i] : row_offsets[i + 1]]
    in the columns of the same range of col_indices. Both index arrays are cast to one
    _index_dtype, as the kernels take them; an original the caller let go is freed."""

    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    rows: int
    cols: int

    def __post_init__(self):
        dtype = _index_dtype(self.row_offsets, self.col_indices, [self.rows, self.cols])
        self.row_offsets = self.row_offsets.astype(dtype, copy=False)
        self.col_indices = self.col_indices.astype(dtype, copy=False)

    @property
    def nnz(self) -> int:
        return self.values.size


def csr_sum(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """a + b, as scipy's CSR sum: the kernel merges each row's columns into buffers of
    nnz(a) + nnz(b) entries, and a result that fills less than half of them is copied out."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise LinalgError(f"cannot add a {b.rows} x {b.cols} matrix to a {a.rows} x {a.cols} one")
    size = a.nnz + b.nnz
    dtype = _index_dtype([size, a.rows, a.cols])
    offsets, columns, values = out = (np.empty(a.rows + 1, dtype), np.empty(size, dtype),
                                      np.empty(size, np.result_type(a.values, b.values)))
    index = [np.asarray(x, dtype) for m in (a, b) for x in (m.row_offsets, m.col_indices)]
    _kernels.csr_plus_csr(a.rows, a.cols, *index[:2], a.values, *index[2:], b.values, *out)
    nnz = offsets[-1]
    columns, values = (x[:nnz].copy() if nnz < size // 2 else x[:nnz] for x in (columns, values))
    return CsrMatrix(offsets, columns, values, a.rows, a.cols)


@dataclass
class EmbeddingTable:
    """Dense word vectors, one row per vocabulary id."""

    vectors: np.ndarray  # (V, k) float32

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def size(self) -> int:
        return int(self.vectors.shape[0])

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Embedding rows for an id array, promoted to float64 for model math."""
        return self.vectors[ids].astype(np.float64)


def _cgs2(basis: np.ndarray) -> np.ndarray:
    """Orthonormalize columns by classical Gram-Schmidt applied twice (CGS2).

    Each panel of _PANEL columns goes through two rounds. A round projects it
    against the earlier panels' basis by one matrix product, then each column
    twice against the panel's kept columns, and normalizes. A column whose norm
    after both rounds is at most _DROP_TOL of its original norm is dropped.
    """
    m, n = basis.shape
    qt, kept = np.empty((n, m), dtype=np.float64), 0  # kept basis vectors as rows
    for start in range(0, n, _PANEL):
        panel = np.array(basis[:, start : start + _PANEL].T, dtype=np.float64)
        first, floors = kept, _DROP_TOL * np.linalg.norm(panel, axis=1)  # in each column's scale
        for _ in range(2):
            panel -= (panel @ qt[:first].T) @ qt[:first]
            kept, survivors = first, []
            for v, floor in zip(panel, floors):
                for _ in range(2):
                    v -= (qt[first:kept] @ v) @ qt[first:kept]
                norm = float(np.linalg.norm(v))
                if not norm <= floor:  # keeps a NaN, drops a zero column (floor 0)
                    qt[kept] = v / norm
                    kept += 1
                    survivors.append(floor / norm)
            panel, floors = qt[first:kept], survivors  # a view: round 2 writes only rows it read
    return qt[:kept].T


def _round_robin(n: int) -> list[np.ndarray]:
    """Brent-Luk ordering for even n: n - 1 rounds of n / 2 disjoint pairs (p, q), p < q."""
    players, rounds = np.arange(n), []
    for _ in range(n - 1):
        rounds.append(np.sort(np.stack([players[: n // 2], players[::-1][: n // 2]], axis=1)))
        players = np.concatenate([players[:1], np.roll(players[1:], 1)])
    return rounds


def _one_sided_jacobi(
    g: np.ndarray, max_sweeps: int = _JACOBI_MAX_SWEEPS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a tall matrix: g = u @ diag(s) @ v.T.

    QR-preconditioned: with g = q @ r by _cgs2, plane rotations act on the
    square r until every column pair is numerically orthogonal relative to
    the column norms. Each round-robin round rotates its disjoint pairs at once.
    """
    g = np.asarray(g, dtype=np.float64)
    m, n = g.shape
    if m < n:
        raise LinalgError("one-sided Jacobi expects a tall matrix")
    q = _cgs2(g)
    size = n + n % 2  # an odd n gets one zero column
    # row j: column j of r (zero where columns were dropped), then column j of v
    cols = np.hstack([np.zeros((size, size)), np.eye(size)])
    cols[:n, : q.shape[1]] = g.T @ q
    del g  # r is all the sweeps need; an argument passed as a temporary is freed here
    rot = np.zeros((size // 2, 2, 2))
    rotated_rows = np.empty((size // 2, 2, 2 * size))  # reused: a fresh one per round page-faults
    rounds, worst = _round_robin(size), float("nan")
    for _ in range(max_sweeps):
        rotated, worst = False, 0.0  # worst |apq|/sqrt(app*aqq) among the rotated pairs
        for pairs in rounds:
            x = cols[pairs]
            gram = x[:, :, :size] @ x[:, :, :size].transpose(0, 2, 1)  # per pair, 2 x 2
            app, aqq, apq = gram[:, 0, 0], gram[:, 1, 1], gram[:, 0, 1]
            denom = np.sqrt(app * aqq)
            act = ~((denom == 0.0) | (np.abs(apq) <= _JACOBI_TOL * denom))  # pairs not skipped
            if not act.any():
                continue
            rotated = True
            worst = float(np.maximum(worst, np.max(np.abs(apq[act]) / denom[act])))
            zeta = (aqq[act] - app[act]) / (2.0 * apq[act])
            # sign(0) must be +1 here or equal-norm columns never rotate
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            # (p, q) <- (c p - s q, s p + c q); a skipped pair gets the identity
            rot[:] = np.eye(2)
            rot[act] = np.array([[c, -c * t], [c * t, c]]).transpose(2, 0, 1)
            cols[pairs] = np.matmul(rot, x, out=rotated_rows)
        if not rotated:
            break
    else:
        raise ConvergenceError(f"Jacobi SVD did not converge within {max_sweeps} sweeps: worst |apq|"
                               f"/sqrt(app*aqq) in the last sweep {worst:.2e} > {_JACOBI_TOL:.0e}")
    s = np.linalg.norm(cols[:n, :size], axis=1)
    u_r = np.zeros((n, q.shape[1]))  # a zero singular value gets a zero u column
    np.divide(cols[:n, : q.shape[1]], s[:, None], out=u_r, where=s[:, None] > 0)
    return q @ u_r.T, s, cols[:n, size : size + n].T


def add_csr_product(indptr, indices, data, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add the CSR matrix (indptr, indices, data) times x into the C-contiguous out, each row
    summed in stored order, as scipy's CSR @ dense product sums it."""
    assert out.flags.c_contiguous, "out.ravel() would copy out, and the kernel write the copy"
    _kernels.csr_matvecs(len(indptr) - 1, *x.shape, indptr, indices, data, x.ravel(), out.ravel())
    return out


def add_csc_product(indptr, indices, data, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add the CSC matrix (indptr, indices, data) times x into the C-contiguous out, column
    after column: each row's terms in ascending column order, as its canonical CSR sums them."""
    assert out.flags.c_contiguous, "out.ravel() would copy out, and the kernel write the copy"
    _kernels.csc_matvecs(len(out), *x.shape, indptr, indices, data, x.ravel(), out.ravel())
    return out


def _times(blocks, x: np.ndarray, out: np.ndarray, pool: ThreadPoolExecutor) -> np.ndarray:
    """Add A @ x into out, block after block: a plain block by CSR, one thread per row range of
    about equal nnz, a transposed one by CSC here. A zeroed out gets the joined CSR's bits."""
    x = np.ascontiguousarray(x)
    offsets = np.cumsum([0] + [b.rows if t else b.cols for b, t in blocks])
    for (block, transposed), lo, hi in zip(blocks, offsets, offsets[1:]):
        if transposed:
            add_csc_product(block.row_offsets, block.col_indices, block.values, x[lo:hi], out)
            continue
        cuts = np.searchsorted(block.row_offsets, np.arange(1, _WORKERS) * (block.nnz / _WORKERS))
        def fill(a, b):
            add_csr_product(block.row_offsets[a : b + 1], block.col_indices, block.values,
                            x[lo:hi], out[a:b])
        bounds = np.unique(np.r_[0, cuts, len(out)])
        list(pool.map(fill, bounds[:-1], bounds[1:]))
    return out


def _times_t(blocks, y: np.ndarray, pool: ThreadPoolExecutor) -> np.ndarray:
    """A.T @ y, each block's rows B_j.T @ y on a thread of their own: by CSC over a plain
    block's arrays, by CSR over a transposed one's, each row summed as in the CSR of A.T."""
    widths = [b.rows if t else b.cols for b, t in blocks]
    y, out = np.ascontiguousarray(y), np.zeros((sum(widths), y.shape[1]))
    def fill(block, rows):
        add = add_csr_product if block[1] else add_csc_product
        add(block[0].row_offsets, block[0].col_indices, block[0].values, y, rows)
    list(pool.map(fill, blocks, np.vsplit(out, np.cumsum(widths)[:-1])))
    return out


def truncated_svd(blocks: list[tuple[CsrMatrix, bool]], k: int,
                  oversample: int = OVERSAMPLE, power_iters: int = POWER_ITERS,
                  seed: int = 0) -> SvdResult:
    """Rank-k randomized SVD of A = [B_1 | ... | B_m], deterministic given the seed. blocks
    holds each column block once, as (M, False) for B_j = M or (M, True) for B_j = M.T."""
    heights = [b.cols if t else b.rows for b, t in blocks]  # M.T's height is M's width
    if len(set(heights)) != 1:
        raise LinalgError(f"blocks must be at least one, all of one height; got {heights}")
    rows, cols = heights[0], sum(b.rows if t else b.cols for b, t in blocks)
    for name, value, least in (("k", k, 1), ("oversample", oversample, 0),
                               ("power_iters", power_iters, 0), ("seed", seed, 0)):
        if value < least:
            raise LinalgError(f"{name} must be >= {least}, got {value}")
    sample = k + oversample
    if sample > min(rows, cols):
        raise LinalgError(f"k + oversample = {sample} exceeds min(rows, cols) = {min(rows, cols)}")
    with ThreadPoolExecutor(_WORKERS) as pool:
        # The Gaussian test matrix is a temporary: only this first product reads it.
        q = _cgs2(_times(blocks, np.random.default_rng(seed).standard_normal((cols, sample)),
                         np.zeros((rows, sample)), pool))
        for _ in range(power_iters):
            q = _cgs2(_times_t(blocks, q, pool))
            q = _cgs2(_times(blocks, q, np.zeros((rows, q.shape[1])), pool))
        if q.shape[1] < k:
            raise LinalgError(f"range finder captured rank {q.shape[1]} < k = {k}")
        u_small, s, v_small = _one_sided_jacobi(_times_t(blocks, q, pool))  # b.T = A.T @ q, freed
    # b = q.T @ A, and b.T = u_small @ diag(s) @ v_small.T, hence b = v_small @ diag(s) @ u_small.T
    order = np.argsort(-s, kind="stable")[:k]
    u_small, s_k, v_small = u_small[:, order], s[order], v_small[:, order]  # frees the rest
    if s_k[-1] == 0.0:
        raise LinalgError(f"matrix rank is below k = {k}")
    result = SvdResult(u=q @ v_small, singular_values=s_k, vt=u_small.T)
    result.validate()
    return result


def embed(svd: SvdResult, normalize: bool = False) -> EmbeddingTable:
    """Latent word vectors u @ diag(singular_values), stored as float32.

    With normalize, each row is scaled to unit L2 norm before storage
    (off by default).
    """
    vectors = svd.u * svd.singular_values
    if normalize:
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        vectors = vectors / norms
    return EmbeddingTable(vectors=vectors.astype(np.float32))
