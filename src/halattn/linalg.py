"""Randomized truncated SVD for embedding compression.

The decomposition follows the randomized range-finder recipe: a seeded
Gaussian test matrix, power iterations with re-orthonormalization, then an
exact SVD of the small projected matrix by one-sided Jacobi rotations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

_ORTHO_TOL = 1e-8
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 30


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


def _mgs(basis: np.ndarray, drop_tol: float = 1e-12) -> np.ndarray:
    """Orthonormalize columns by modified Gram-Schmidt with one re-orthogonalization.

    Columns that collapse below drop_tol of their original norm are dropped,
    so the result can have fewer columns than the input.
    """
    m, n = basis.shape
    q = np.empty((m, n), dtype=np.float64)
    kept = 0
    for j in range(n):
        v = basis[:, j].astype(np.float64, copy=True)
        scale = float(np.linalg.norm(v))
        for _ in range(2):
            for i in range(kept):
                v -= (q[:, i] @ v) * q[:, i]
        norm = float(np.linalg.norm(v))
        if scale == 0.0 or norm <= drop_tol * scale:
            continue
        q[:, kept] = v / norm
        kept += 1
    return q[:, :kept].copy()


def _one_sided_jacobi(
    g: np.ndarray, max_sweeps: int = _JACOBI_MAX_SWEEPS, tol: float = _JACOBI_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a tall matrix: g = u @ diag(s) @ v.T.

    Plane rotations orthogonalize column pairs until every pair is
    numerically orthogonal relative to the column norms.
    """
    g = np.array(g, dtype=np.float64)
    m, n = g.shape
    if m < n:
        raise LinalgError("one-sided Jacobi expects a tall matrix")
    v = np.eye(n)
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q_i in range(p + 1, n):
                gp = g[:, p]
                gq = g[:, q_i]
                app = gp @ gp
                aqq = gq @ gq
                apq = gp @ gq
                denom = np.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= tol * denom:
                    continue
                rotated = True
                zeta = (aqq - app) / (2.0 * apq)
                # sign(0) must be +1 here or equal-norm columns never rotate
                t = np.copysign(1.0, zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s_ = c * t
                g_p = c * gp - s_ * gq
                g_q = s_ * gp + c * gq
                g[:, p] = g_p
                g[:, q_i] = g_q
                v_p = c * v[:, p] - s_ * v[:, q_i]
                v_q = s_ * v[:, p] + c * v[:, q_i]
                v[:, p] = v_p
                v[:, q_i] = v_q
        if not rotated:
            break
    else:
        raise ConvergenceError(f"Jacobi SVD did not converge within {max_sweeps} sweeps")
    s = np.linalg.norm(g, axis=0)
    u = np.zeros_like(g)
    nonzero = s > 0
    u[:, nonzero] = g[:, nonzero] / s[nonzero]
    return u, s, v


def truncated_svd(
    matrix: sp.csr_matrix,
    k: int,
    oversample: int = 10,
    power_iters: int = 2,
    seed: int = 0,
) -> SvdResult:
    """Rank-k randomized SVD of a sparse matrix, deterministic given the seed."""
    rows, cols = matrix.shape
    if k < 1:
        raise LinalgError(f"k must be >= 1, got {k}")
    sample = k + oversample
    if sample > min(rows, cols):
        raise LinalgError(
            f"k + oversample = {sample} exceeds min(rows, cols) = {min(rows, cols)}"
        )
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((cols, sample))
    q = _mgs(np.asarray(matrix @ omega))
    for _ in range(power_iters):
        q = _mgs(np.asarray(matrix.T @ q))
        q = _mgs(np.asarray(matrix @ q))
    if q.shape[1] < k:
        raise LinalgError(f"range finder captured rank {q.shape[1]} < k = {k}")
    b = np.asarray(matrix.T @ q).T  # (sample, cols)
    u_small, s, v_small = _one_sided_jacobi(b.T)
    # b.T = u_small @ diag(s) @ v_small.T, hence b = v_small @ diag(s) @ u_small.T
    order = np.argsort(-s, kind="stable")[:k]
    s_k = s[order]
    if s_k[-1] == 0.0:
        raise LinalgError(f"matrix rank is below k = {k}")
    u = q @ v_small[:, order]
    vt = u_small[:, order].T
    result = SvdResult(u=u, singular_values=s_k, vt=vt)
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
