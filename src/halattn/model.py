"""Pooling strategies and classifier head: forward passes, hand-derived
backward passes, Adam updates, and parameter containers.

Word embeddings are fixed inputs; gradients flow only into the attention
and classifier parameters. Mean pooling is computed as a uniform-weight
case of the same weighted-sum kernel as attention pooling, so the two are
bitwise identical when all attention scores coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .corpus import EncodedDocument
from .linalg import EmbeddingTable

LN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

POOLING_MODES = ("mean", "attention")


class ModelError(Exception):
    """Raised for invalid model inputs."""


class DivergenceError(ModelError):
    """Raised when the loss becomes non-finite."""


@dataclass
class AttentionParams:
    w_a: np.ndarray  # (d_a, k)
    b_a: np.ndarray  # (d_a,)
    v_a: np.ndarray  # (d_a,)
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ModelError(f"temperature must be > 0, got {self.temperature}")


@dataclass
class ClassifierParams:
    w_c: np.ndarray  # (h, k)
    b_c: np.ndarray  # (h,)
    ln_gain: np.ndarray  # (h,)
    ln_shift: np.ndarray  # (h,)
    w_o: np.ndarray  # (2, h)
    b_o: np.ndarray  # (2,)
    dropout_p: float

    def __post_init__(self):
        if not 0.0 <= self.dropout_p < 1.0:
            raise ModelError(f"dropout probability must be in [0, 1), got {self.dropout_p}")


@dataclass
class ModelParams:
    attention: AttentionParams
    classifier: ClassifierParams

    _TENSOR_FIELDS = (
        ("w_a", "attention"),
        ("b_a", "attention"),
        ("v_a", "attention"),
        ("w_c", "classifier"),
        ("b_c", "classifier"),
        ("ln_gain", "classifier"),
        ("ln_shift", "classifier"),
        ("w_o", "classifier"),
        ("b_o", "classifier"),
    )

    def tensors(self) -> dict[str, np.ndarray]:
        """Trainable tensors keyed by name, in canonical order."""
        out = {}
        for name, owner in self._TENSOR_FIELDS:
            out[name] = getattr(getattr(self, owner), name)
        return out

    def copy(self) -> "ModelParams":
        return ModelParams(
            attention=AttentionParams(
                w_a=self.attention.w_a.copy(),
                b_a=self.attention.b_a.copy(),
                v_a=self.attention.v_a.copy(),
                temperature=self.attention.temperature,
            ),
            classifier=ClassifierParams(
                w_c=self.classifier.w_c.copy(),
                b_c=self.classifier.b_c.copy(),
                ln_gain=self.classifier.ln_gain.copy(),
                ln_shift=self.classifier.ln_shift.copy(),
                w_o=self.classifier.w_o.copy(),
                b_o=self.classifier.b_o.copy(),
                dropout_p=self.classifier.dropout_p,
            ),
        )


@dataclass
class Gradients:
    """Same shapes as the trainable tensors of ModelParams."""

    w_a: np.ndarray
    b_a: np.ndarray
    v_a: np.ndarray
    w_c: np.ndarray
    b_c: np.ndarray
    ln_gain: np.ndarray
    ln_shift: np.ndarray
    w_o: np.ndarray
    b_o: np.ndarray

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "Gradients":
        return cls(**{name: np.zeros_like(arr) for name, arr in params.tensors().items()})

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name, _ in ModelParams._TENSOR_FIELDS}


@dataclass
class PoolResult:
    """Pooled vector plus the per-position weights (zero at padding)."""

    pooled: np.ndarray  # (k,)
    alphas: np.ndarray  # (T,)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        tensors = params.tensors()
        return cls(
            m={name: np.zeros_like(arr) for name, arr in tensors.items()},
            v={name: np.zeros_like(arr) for name, arr in tensors.items()},
            step=0,
        )


def init_params(config, seed: int | None = None) -> ModelParams:
    """Glorot-uniform weights, zero biases, unit LayerNorm gain.

    `config` needs embed_dim, attn_dim, hidden, temperature, dropout_p and
    seed attributes. Attention and classifier tensors come from independent
    child streams of the seed, so the classifier initialization is identical
    whichever pooling strategy consumes it.
    """
    if seed is None:
        seed = config.seed
    k, d_a, h = config.embed_dim, config.attn_dim, config.hidden

    def glorot(rng, fan_in, fan_out, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    rng_attn = np.random.default_rng([seed, 0])
    attention = AttentionParams(
        w_a=glorot(rng_attn, k, d_a, (d_a, k)),
        b_a=np.zeros(d_a),
        v_a=glorot(rng_attn, d_a, 1, (d_a,)),
        temperature=config.temperature,
    )
    rng_clf = np.random.default_rng([seed, 1])
    classifier = ClassifierParams(
        w_c=glorot(rng_clf, k, h, (h, k)),
        b_c=np.zeros(h),
        ln_gain=np.ones(h),
        ln_shift=np.zeros(h),
        w_o=glorot(rng_clf, h, 2, (2, h)),
        b_o=np.zeros(2),
        dropout_p=config.dropout_p,
    )
    return ModelParams(attention=attention, classifier=classifier)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _batch_scores(x: np.ndarray, mask: np.ndarray, attn: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """Additive attention scores for a (B, T, k) batch.

    Returns (e, g) where e is (B, T) with -inf at masked positions and
    g = tanh(w_a x + b_a) is kept for the backward pass.
    """
    u = np.einsum("btk,ak->bta", x, attn.w_a) + attn.b_a
    g = np.tanh(u)
    e = g @ attn.v_a
    return np.where(mask, e, -np.inf), g


def _batch_weights(e: np.ndarray, mask: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax over unmasked positions, exact zeros elsewhere."""
    if temperature <= 0:
        raise ModelError(f"temperature must be > 0, got {temperature}")
    if not mask.any(axis=-1).all():
        raise ModelError("cannot pool a fully masked sequence")
    masked = np.where(mask, e, -np.inf)
    peak = masked.max(axis=-1, keepdims=True)
    w = np.exp((masked - peak) / temperature)  # exp(-inf) is an exact 0 at padding
    return w / w.sum(axis=-1, keepdims=True)


def _uniform_weights(mask: np.ndarray) -> np.ndarray:
    """1/m at each unmasked position; the mean-pooling weight vector."""
    counts = mask.sum(axis=-1, keepdims=True)
    if (counts == 0).any():
        raise ModelError("cannot pool a fully masked sequence")
    return mask.astype(np.float64) / counts


def _batch_pool(x: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    return np.einsum("bt,btk->bk", alphas, x)


def attention_scores(x: np.ndarray, mask: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Scores v_a . tanh(w_a x_t + b_a) for one (T, k) sequence.

    Masked positions carry -inf so they drop out of the softmax.
    """
    e, _ = _batch_scores(np.asarray(x, dtype=np.float64)[None], np.asarray(mask, bool)[None], params)
    return e[0]


def attention_weights(e: np.ndarray, mask: np.ndarray, temperature: float) -> np.ndarray:
    """Normalized attention weights for one score vector."""
    return _batch_weights(np.asarray(e, dtype=np.float64)[None], np.asarray(mask, bool)[None], temperature)[0]


def attention_pool(x: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Weighted sum of token vectors."""
    return _batch_pool(np.asarray(x, dtype=np.float64)[None], np.asarray(alphas, dtype=np.float64)[None])[0]


def mean_pool(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Average over unmasked token vectors (uniform-weight weighted sum)."""
    x = np.asarray(x, dtype=np.float64)[None]
    alphas = _uniform_weights(np.asarray(mask, bool)[None])
    return _batch_pool(x, alphas)[0]


def pool_sequence(
    x: np.ndarray, mask: np.ndarray, params: AttentionParams, pooling: str
) -> PoolResult:
    """Pool one sequence with either strategy, reporting the weights used."""
    x = np.asarray(x, dtype=np.float64)
    mask = np.asarray(mask, bool)
    if pooling == "attention":
        e, _ = _batch_scores(x[None], mask[None], params)
        alphas = _batch_weights(e, mask[None], params.temperature)[0]
    elif pooling == "mean":
        alphas = _uniform_weights(mask[None])[0]
    else:
        raise ModelError(f"unknown pooling mode {pooling!r}")
    return PoolResult(pooled=attention_pool(x, alphas), alphas=alphas)


# ---------------------------------------------------------------------------
# Classifier head
# ---------------------------------------------------------------------------


def _classifier_forward(
    s: np.ndarray, clf: ClassifierParams, train: bool, noise: np.random.Generator | None
) -> tuple[np.ndarray, dict]:
    """Forward pass of the (B, k) -> (B, 2) head, caching for backward."""
    z = s @ clf.w_c.T + clf.b_c
    mu = z.mean(axis=-1, keepdims=True)
    var = z.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (z - mu) * inv_std
    ln = xhat * clf.ln_gain + clf.ln_shift
    act = np.maximum(ln, 0.0)
    if train and clf.dropout_p > 0.0:
        if noise is None:
            raise ModelError("training with dropout requires a noise generator")
        keep = noise.random(act.shape) >= clf.dropout_p
        hidden = act * keep / (1.0 - clf.dropout_p)
    else:
        keep = None
        hidden = act
    logits = hidden @ clf.w_o.T + clf.b_o
    cache = {"s": s, "inv_std": inv_std, "xhat": xhat, "ln": ln, "keep": keep, "hidden": hidden}
    return logits, cache


def _classifier_backward(
    dlogits: np.ndarray, clf: ClassifierParams, cache: dict
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Backward through the head. Returns (per-tensor grads, dL/ds)."""
    hidden = cache["hidden"]
    grads = {
        "w_o": dlogits.T @ hidden,
        "b_o": dlogits.sum(axis=0),
    }
    dhidden = dlogits @ clf.w_o
    if cache["keep"] is not None:
        dact = dhidden * cache["keep"] / (1.0 - clf.dropout_p)
    else:
        dact = dhidden
    dln = dact * (cache["ln"] > 0.0)
    grads["ln_gain"] = (dln * cache["xhat"]).sum(axis=0)
    grads["ln_shift"] = dln.sum(axis=0)
    dxhat = dln * clf.ln_gain
    dz = cache["inv_std"] * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - cache["xhat"] * (dxhat * cache["xhat"]).mean(axis=-1, keepdims=True)
    )
    grads["w_c"] = dz.T @ cache["s"]
    grads["b_c"] = dz.sum(axis=0)
    ds = dz @ clf.w_c
    return grads, ds


def classifier_forward(
    s: np.ndarray,
    params: ClassifierParams,
    mode: str = "eval",
    noise: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """Head forward for one pooled vector. Returns (logits, cache)."""
    if mode not in ("train", "eval"):
        raise ModelError(f"mode must be 'train' or 'eval', got {mode!r}")
    logits, cache = _classifier_forward(
        np.asarray(s, dtype=np.float64)[None], params, mode == "train", noise
    )
    return logits[0], cache


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _stack_batch(batch: list[EncodedDocument]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not batch:
        raise ModelError("batch is empty")
    lengths = {doc.ids.shape[0] for doc in batch}
    if len(lengths) != 1:
        raise ModelError("all documents in a batch must share the same sequence length")
    ids = np.stack([doc.ids for doc in batch])
    mask = np.stack([doc.mask for doc in batch])
    labels = np.array([doc.label for doc in batch], dtype=np.int64)
    return ids, mask, labels


def _l2_tensors(params: ModelParams, pooling: str) -> dict[str, np.ndarray]:
    """Weight matrices subject to L2 decay; biases and LayerNorm affine are not.

    The attention projection only belongs to the model when attention
    pooling is active.
    """
    tensors = {"w_c": params.classifier.w_c, "w_o": params.classifier.w_o}
    if pooling == "attention":
        tensors["w_a"] = params.attention.w_a
        tensors["v_a"] = params.attention.v_a
    return tensors


def predict_logits(
    batch: list[EncodedDocument],
    embeddings: EmbeddingTable,
    params: ModelParams,
    pooling: str,
) -> np.ndarray:
    """Eval-mode logits for a batch; no dropout noise."""
    if pooling not in POOLING_MODES:
        raise ModelError(f"unknown pooling mode {pooling!r}")
    ids, mask, _ = _stack_batch(batch)
    x = embeddings.gather(ids)
    if pooling == "attention":
        e, _ = _batch_scores(x, mask, params.attention)
        alphas = _batch_weights(e, mask, params.attention.temperature)
    else:
        alphas = _uniform_weights(mask)
    pooled = _batch_pool(x, alphas)
    logits, _ = _classifier_forward(pooled, params.classifier, train=False, noise=None)
    return logits


def loss_and_grad(
    batch: list[EncodedDocument],
    embeddings: EmbeddingTable,
    params: ModelParams,
    pooling: str,
    weight_decay: float,
    noise: np.random.Generator | None,
) -> tuple[float, Gradients, float]:
    """Training loss, gradients, and batch accuracy.

    Mean cross-entropy over the batch plus weight_decay * sum of squared
    weight-matrix entries. Embeddings are fixed inputs and receive no
    gradient.
    """
    if pooling not in POOLING_MODES:
        raise ModelError(f"unknown pooling mode {pooling!r}")
    ids, mask, labels = _stack_batch(batch)
    n = len(batch)
    x = embeddings.gather(ids)

    if pooling == "attention":
        e, g = _batch_scores(x, mask, params.attention)
        alphas = _batch_weights(e, mask, params.attention.temperature)
    else:
        g = None
        alphas = _uniform_weights(mask)
    pooled = _batch_pool(x, alphas)

    logits, cache = _classifier_forward(pooled, params.classifier, train=True, noise=noise)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_norm
    ce = -log_probs[np.arange(n), labels].mean()

    decay_tensors = _l2_tensors(params, pooling)
    loss = float(ce + weight_decay * sum(float((w * w).sum()) for w in decay_tensors.values()))
    if not np.isfinite(loss):
        raise DivergenceError("loss is non-finite")
    accuracy = float((logits.argmax(axis=-1) == labels).mean())

    # Backward: cross entropy -> head -> pooling.
    probs = np.exp(log_probs)
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    head_grads, ds = _classifier_backward(dlogits, params.classifier, cache)

    grads = Gradients.zeros_like(params)
    for name, value in head_grads.items():
        getattr(grads, name)[...] = value

    if pooling == "attention":
        tau = params.attention.temperature
        dalpha = np.einsum("bk,btk->bt", ds, x)
        de = (alphas / tau) * (dalpha - (alphas * dalpha).sum(axis=-1, keepdims=True))
        grads.v_a[...] = np.einsum("bt,bta->a", de, g)
        du = (de[..., None] * params.attention.v_a) * (1.0 - g * g)
        grads.w_a[...] = np.einsum("bta,btk->ak", du, x)
        grads.b_a[...] = du.sum(axis=(0, 1))

    for name, w in decay_tensors.items():
        getattr(grads, name)[...] += 2.0 * weight_decay * w

    return loss, grads, accuracy


def adam_step(
    params: ModelParams,
    grads: Gradients,
    state: AdamState,
    learning_rate: float,
) -> ModelParams:
    """In-place Adam update with bias-corrected moments."""
    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    grad_tensors = grads.tensors()
    for name, param in params.tensors().items():
        grad = grad_tensors[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        param -= learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    return params


def iter_batches(order: np.ndarray, batch_size: int) -> Iterator[np.ndarray]:
    """Yield index slices of at most batch_size, preserving order."""
    for start in range(0, order.shape[0], batch_size):
        yield order[start : start + batch_size]
