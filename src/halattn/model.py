"""Pooling and classifier head: one batched forward pass, its hand-derived
backward pass, Adam updates, and the parameter record.

Word embeddings are fixed inputs; gradients flow only into the nine tensors
of `ModelParams`, views into one flat buffer that Adam updates in one pass.
`loss_and_grad` writes them into an `out` record, which training allocates
once, so a step builds no record of its own.
Temperature and dropout come from the training config. Both pooling modes go
through `_pool`: mean pooling is the uniform-weight case of the same weighted
sum as attention pooling, so the two are bitwise identical when all attention
scores coincide (v_a = 0). A mean-pooled row depends on its own document
alone, so rows pooled once per set may be passed in (`pooled=`).

An attention score depends on the token id alone, so a batch is pooled from
the embedding rows of its distinct ids: the scoring network runs once per
distinct token, and the backward pass sums each token's slot gradients
before it reaches w_a, b_a and v_a. The cost grows with the batch's
vocabulary, not with its B x T slots.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .corpus import EncodedSet
from .linalg import EmbeddingTable, add_csr_product

LN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

POOLING_MODES = ("mean", "attention")


class ModelError(Exception):
    """Raised for invalid model inputs."""


class DivergenceError(ModelError):
    """Raised when the loss becomes non-finite.

    When training diverges after a finished epoch, `best` holds the best
    checkpoint so far and `records` the finished epochs; otherwise None and ().
    """

    best = None
    records = ()


@dataclass
class ModelParams:
    """The nine trainable tensors, in checkpoint order.

    The same record holds their gradients and Adam's two moments. The
    tensors are float64 views into one contiguous buffer, `flat`, built
    here, so Adam updates all nine in one pass. Change a tensor in place;
    an assigned array is not part of `flat`.
    """

    w_a: np.ndarray  # (d_a, k)
    b_a: np.ndarray  # (d_a,)
    v_a: np.ndarray  # (d_a,)
    w_c: np.ndarray  # (h, k)
    b_c: np.ndarray  # (h,)
    ln_gain: np.ndarray  # (h,)
    ln_shift: np.ndarray  # (h,)
    w_o: np.ndarray  # (2, h)
    b_o: np.ndarray  # (2,)

    def __post_init__(self):
        tensors = self.tensors()
        flat = np.concatenate([np.ravel(a) for a in tensors.values()], dtype=np.float64)
        parts = np.split(flat, np.cumsum([np.size(a) for a in tensors.values()])[:-1])
        for (name, a), part in zip(tensors.items(), parts):
            setattr(self, name, part.reshape(np.shape(a)))
        self.flat = flat

    def tensors(self) -> dict[str, np.ndarray]:
        """Tensors keyed by name, in checkpoint order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "ModelParams":
        """A new record of fn applied to each tensor, e.g. np.copy or np.zeros_like."""
        return ModelParams(**{name: fn(arr) for name, arr in self.tensors().items()})


@dataclass
class AdamState:
    m: ModelParams
    v: ModelParams
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=params.map(np.zeros_like), v=params.map(np.zeros_like))


def param_shapes(config) -> dict[str, tuple[int, ...]]:
    """Each tensor's shape, from the config's embed_dim, attn_dim and hidden."""
    k, d_a, h = config.embed_dim, config.attn_dim, config.hidden
    return {"w_a": (d_a, k), "b_a": (d_a,), "v_a": (d_a,), "w_c": (h, k), "b_c": (h,),
            "ln_gain": (h,), "ln_shift": (h,), "w_o": (2, h), "b_o": (2,)}


def init_params(config) -> ModelParams:
    """Glorot-uniform weights, zero biases, unit LayerNorm gain, in param_shapes' shapes.

    `config` needs embed_dim, attn_dim, hidden and seed attributes.
    Attention and classifier tensors come from independent child streams of
    the seed, so the classifier initialization is identical whichever
    pooling strategy consumes it.
    """
    attn, clf = (np.random.default_rng([config.seed, i]) for i in (0, 1))
    glorot = {"w_a": attn, "v_a": attn, "w_c": clf, "w_o": clf}  # drawn in param_shapes' order
    tensors = {}
    for name, shape in param_shapes(config).items():
        if name in glorot:  # a (fan_out, fan_in) matrix; v_a counts as (1, d_a)
            fan_out, fan_in = ((1,) + shape)[-2:]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = glorot[name].uniform(-bound, bound, size=shape)
        else:
            tensors[name] = np.full(shape, 1.0 if name == "ln_gain" else 0.0)
    return ModelParams(**tensors)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _pool(
    rows: np.ndarray,
    inv: np.ndarray,
    mask: np.ndarray,
    params: ModelParams,
    pooling: str,
    temperature: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Weighted sum of a (B, T) batch of slots under either pooling mode.

    Slot (b, t) holds row inv[b, t] of the (U, k) `rows`; batches pass one
    row per distinct token. A score depends on the row alone, so the
    attention network runs once per row: g = tanh(w_a x + b_a) is (U, d_a)
    and the slots index its scores v_a . g. Returns (pooled, alphas, g).
    alphas is (B, T) with exact zeros at padding: a temperature softmax of
    the scores for attention, 1/m per real token for mean. g is kept for the
    backward pass (None for mean). Both modes share the final weighted sum,
    which reads the real slots only.
    """
    if pooling not in POOLING_MODES:
        raise ModelError(f"unknown pooling mode {pooling!r}")
    counts = mask.sum(axis=-1)
    if not counts.all():
        raise ModelError("cannot pool a fully masked sequence")
    if pooling == "attention":
        g = np.tanh(rows @ params.w_a.T + params.b_a)
        e = np.where(mask, (g @ params.v_a)[inv], -np.inf)
        peak = e.max(axis=-1, keepdims=True)
        w = np.exp((e - peak) / temperature)  # exp(-inf) is an exact 0 at padding
        alphas = w / w.sum(axis=-1, keepdims=True)
    else:
        g = None
        alphas = mask / counts[:, None]
    # Row b of the (B, U) CSR weights holds alphas[b] at the columns inv[b], real slots only.
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)  # inv's index dtype
    pooled = np.zeros((len(mask), rows.shape[1]))
    return add_csr_product(indptr, inv[mask], alphas[mask], rows, pooled), alphas, g


def pool_sequence(
    x: np.ndarray, mask: np.ndarray, params: ModelParams, pooling: str, *, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pool one (T, k) sequence. Returns (pooled, alphas), the weights used.

    Each row of x counts as its own token, even where two rows are equal.
    """
    x = np.asarray(x, dtype=np.float64)
    pooled, alphas, _ = _pool(
        x, np.arange(x.shape[0], dtype=np.int32)[None], np.asarray(mask, bool)[None],
        params, pooling, temperature,
    )
    return pooled[0], alphas[0]


# ---------------------------------------------------------------------------
# Classifier head
# ---------------------------------------------------------------------------


def _head_forward(
    s: np.ndarray, params: ModelParams, dropout_p: float, noise: np.random.Generator | None
) -> tuple[np.ndarray, tuple]:
    """Forward pass of the (B, k) -> (B, 2) head; returns (logits, cache for backward).

    LayerNorm statistics are np.mean/np.var's own add.reduce and divide.
    dropout_p = 0 is eval mode and draws no noise.
    """
    z = s @ params.w_c.T
    z += params.b_c
    h = z.shape[-1]
    zc = z - np.add.reduce(z, axis=-1, keepdims=True) / h
    inv_std = 1.0 / np.sqrt(np.add.reduce(zc * zc, axis=-1, keepdims=True) / h + LN_EPS)
    xhat = zc * inv_std
    ln = xhat * params.ln_gain
    ln += params.ln_shift
    hidden = np.maximum(ln, 0.0)
    keep = None
    if dropout_p > 0.0:
        if noise is None:
            raise ModelError("training with dropout requires a noise generator")
        keep = noise.random(hidden.shape) >= dropout_p
        hidden = hidden * keep / (1.0 - dropout_p)
    logits = hidden @ params.w_o.T
    logits += params.b_o
    return logits, (s, inv_std, xhat, ln, keep, hidden)


def _head_backward(dlogits: np.ndarray, params: ModelParams, dropout_p: float, cache: tuple,
                   out: ModelParams) -> np.ndarray:
    """Backward through the head: writes its six gradients into `out`, returns dL/ds."""
    s, inv_std, xhat, ln, keep, hidden = cache
    h = xhat.shape[-1]
    np.matmul(dlogits.T, hidden, out=out.w_o)
    np.add.reduce(dlogits, axis=0, out=out.b_o)
    dact = dlogits @ params.w_o
    if keep is not None:
        dact = dact * keep / (1.0 - dropout_p)
    dln = dact * (ln > 0.0)
    np.add.reduce(dln * xhat, axis=0, out=out.ln_gain)
    np.add.reduce(dln, axis=0, out=out.ln_shift)
    dxhat = dln * params.ln_gain
    dz = inv_std * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / h
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / h)
    )
    np.matmul(dz.T, s, out=out.w_c)
    np.add.reduce(dz, axis=0, out=out.b_c)
    return dz @ params.w_c


def _gather_batch(
    batch: EncodedSet, embeddings: EmbeddingTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, inv, mask, labels) of a batch: the embedding rows of the
    distinct ids of its real slots, ascending, and each slot's index into
    them. Padding slots point at row 0; their weight is always zero."""
    if not len(batch):
        raise ModelError("batch is empty")
    ids, mask, labels = batch.ids, batch.mask, batch.labels
    present = np.zeros(embeddings.size, dtype=bool)
    present[ids[mask]] = True
    inv = np.where(mask, np.cumsum(present, dtype=np.int32)[ids] - 1, 0)
    return embeddings.gather(np.flatnonzero(present)), inv, mask, labels


def pool_batch(batch: EncodedSet, embeddings: EmbeddingTable, params: ModelParams,
               pooling: str, *, temperature: float) -> np.ndarray:
    """The (B, k) pooled rows of a batch. A row depends on its own document
    alone, so a set pooled in any batches gives the same rows, bit for bit."""
    rows, inv, mask, _ = _gather_batch(batch, embeddings)
    return _pool(rows, inv, mask, params, pooling, temperature)[0]


def predict_logits(batch: EncodedSet, embeddings: EmbeddingTable, params: ModelParams,
                   pooling: str, *, temperature: float,
                   pooled: np.ndarray | None = None) -> np.ndarray:
    """Eval-mode logits for a batch; no dropout noise. `pooled` as in loss_and_grad."""
    if pooled is None:
        pooled = pool_batch(batch, embeddings, params, pooling, temperature=temperature)
    return _head_forward(pooled, params, 0.0, None)[0]


def loss_and_grad(
    batch: EncodedSet,
    embeddings: EmbeddingTable,
    params: ModelParams,
    pooling: str,
    weight_decay: float,
    noise: np.random.Generator | None,
    *,
    temperature: float,
    dropout_p: float,
    pooled: np.ndarray | None = None,
    out: ModelParams | None = None,
) -> tuple[float, ModelParams, float]:
    """Training loss, gradients, and batch accuracy.

    Mean cross-entropy over the batch plus weight_decay * sum of squared
    weight-matrix entries: w_c and w_o, and w_a and v_a under attention
    pooling (biases and the LayerNorm affine are not decayed). Embeddings are
    fixed inputs and receive no gradient. Mean-pooled rows computed once by
    pool_batch may be passed in. The gradients are written into `out`, a
    record of params' shapes, which is returned; None allocates one.
    """
    if pooled is None:
        rows, inv, mask, labels = _gather_batch(batch, embeddings)
        pooled, alphas, g = _pool(rows, inv, mask, params, pooling, temperature)
    elif pooling == "mean":
        labels, g = batch.labels, None
    else:
        raise ModelError("only mean-pooled rows can be passed in")
    if out is None:
        out = params.map(np.empty_like)
    n = labels.shape[0]
    each = np.arange(n)

    logits, cache = _head_forward(pooled, params, dropout_p, noise)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_norm
    ce = -np.add.reduce(log_probs[each, labels]) / n

    decayed = ("w_c", "w_o", "w_a", "v_a") if pooling == "attention" else ("w_c", "w_o")
    weights = [getattr(params, name) for name in decayed]
    loss = float(ce + weight_decay * sum(float((w * w).sum()) for w in weights))
    if not np.isfinite(loss):
        raise DivergenceError("loss is non-finite")
    accuracy = int(np.count_nonzero(logits.argmax(axis=-1) == labels)) / n

    # Backward: cross entropy -> head -> pooling.
    dlogits = np.exp(log_probs)
    dlogits[each, labels] -= 1.0
    dlogits /= n
    ds = _head_backward(dlogits, params, dropout_p, cache, out)

    if g is None:
        for grad in (out.w_a, out.b_a, out.v_a):
            grad.fill(0.0)
    else:
        dalpha = (ds @ rows.T)[each[:, None], inv]
        de = (alphas / temperature) * (dalpha - (alphas * dalpha).sum(axis=-1, keepdims=True))
        # Each row's score feeds every slot holding it: sum the slot gradients per row.
        c = np.bincount(inv.ravel(), weights=de.ravel(), minlength=rows.shape[0])
        du = (c[:, None] * params.v_a) * (1.0 - g * g)
        np.matmul(du.T, rows, out=out.w_a)
        np.add.reduce(du, axis=0, out=out.b_a)
        np.matmul(c, g, out=out.v_a)

    for name, w in zip(decayed, weights):
        getattr(out, name)[...] += 2.0 * weight_decay * w

    return loss, out, accuracy


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    learning_rate: float,
) -> ModelParams:
    """In-place Adam update with bias-corrected moments, in one pass over the
    flat buffers: Adam is elementwise, so the values equal per-tensor updates."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    grad, m, v = grads.flat, state.m.flat, state.v.flat
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    params.flat -= learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    return params

