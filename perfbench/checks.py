"""Output checks. Each returns None when the output is right, else a message.

The checks read what the CLI printed and the artifacts it wrote through the
public `halattn.store` loaders. None of them runs inside a timed region.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from halattn import store

TOP_SINGULAR = 5
# emb.bin holds u * s as float32; a column norm of it recovers s to a few
# float32 ulps (eps32 = 1.2e-7), far inside this tolerance.
SINGULAR_RTOL = 1e-5
# svd prints the leading singular values to 4 significant digits.
PRINTED_RTOL = 5e-4
UNIT_ROW_ATOL = 1e-6
# attend prints each weight rounded to 4 decimals.
ALPHA_ROUNDING = 0.5e-4


def parse_accuracy(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("accuracy "):
            return float(line.split()[1])
    raise ValueError("eval printed no 'accuracy' line")


def parse_singular_values(stdout: str) -> np.ndarray:
    _, _, rest = stdout.partition("leading singular values ")
    if not rest:
        raise ValueError("svd printed no leading singular values")
    return np.array([float(x) for x in rest.partition(")")[0].split(", ")])


def parse_alphas(stdout: str) -> list[float]:
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split() == ["token", "alpha"])
    alphas = []
    for line in lines[start + 1 :]:
        if line.startswith("prediction:"):
            return alphas
        alphas.append(float(line.split()[-1]))
    raise ValueError("attend printed no 'prediction:' line")


def check_attention_weights(alphas: list[float]) -> str | None:
    total = math.fsum(alphas)
    slack = ALPHA_ROUNDING * len(alphas) + 1e-9
    if not alphas or abs(total - 1.0) > slack:
        return f"attention weights over {len(alphas)} real tokens sum to {total!r}"
    return None


def check_accuracies(
    acc: dict[str, float], floor: float | None, ab_margin: float | None
) -> str | None:
    if sorted(acc) != ["attention", "mean"]:
        return f"expected one eval accuracy per pooling, got {acc}"
    low = {p: a for p, a in acc.items() if floor is not None and not a >= floor}
    if low:
        return f"accuracy below {floor}: {low}"
    if ab_margin is not None and not acc["attention"] >= acc["mean"] + ab_margin:
        return f"attention {acc['attention']} does not beat mean {acc['mean']} by {ab_margin}"
    return None


def check_losses(losses: list[float]) -> str | None:
    if not losses or not all(math.isfinite(x) for x in losses):
        return f"train losses not all finite: {losses}"
    return None


def check_singular_values(got: np.ndarray, oracle: np.ndarray, rtol: float) -> str | None:
    if got.shape != oracle.shape or not np.all(np.abs(got - oracle) <= rtol * oracle):
        return f"top singular values {got} differ from oracle {oracle} by more than {rtol}"
    return None


def check_unit_rows(vectors: np.ndarray, empty: np.ndarray) -> str | None:
    """Rows of words with any co-occurrence have unit norm; the rest are zero."""
    norms = np.linalg.norm(vectors.astype(np.float64), axis=1)
    err = np.abs(norms - np.where(empty, 0.0, 1.0)).max()
    if not err <= UNIT_ROW_ATOL:
        return f"normalized embedding rows deviate from unit (or zero) norm by {err:.3g}"
    return None


def _csr(m) -> sp.csr_matrix:
    if sp.issparse(m):
        return sp.csr_matrix(m)
    return sp.csr_matrix((m.values, m.col_indices, m.row_offsets), shape=(m.rows, m.cols))


def column_norms(vectors: np.ndarray) -> np.ndarray:
    """Top column norms: the singular values, when rows hold u * diag(s)."""
    norms = np.linalg.norm(vectors.astype(np.float64), axis=0)
    return np.sort(norms)[::-1][:TOP_SINGULAR]


def check_svd(svd_stdout: str, emb_path, cooc_path, normalized: bool) -> list[str | None]:
    """Two checks against an ARPACK oracle: the values svd printed, and emb.bin.

    Unnormalized, emb.bin's column norms must match the oracle to float32
    precision; with --normalize its rows must have unit norm instead.
    """
    matrix = concatenation(cooc_path)
    oracle = oracle_singular_values(matrix)
    printed = check_singular_values(parse_singular_values(svd_stdout), oracle, PRINTED_RTOL)
    vectors = store.load_embeddings(emb_path)[0].vectors
    if normalized:
        return [printed, check_unit_rows(vectors, matrix.getnnz(axis=1) == 0)]
    return [printed, check_singular_values(column_norms(vectors), oracle, SINGULAR_RTOL)]


def concatenation(cooc_path) -> sp.csr_matrix:
    """[left | right] rebuilt from `left` alone: right is by definition left.T."""
    pair, _ = store.load_cooc(cooc_path)
    left = _csr(pair.left)
    return sp.hstack([left, left.T]).tocsr()


def oracle_singular_values(matrix: sp.csr_matrix) -> np.ndarray:
    s = svds(matrix, k=TOP_SINGULAR, return_singular_vectors=False, random_state=0)
    return np.sort(s)[::-1]


def train_losses(metrics_path) -> list[float]:
    return [r.train_loss for r in store.load_metrics(metrics_path)]
