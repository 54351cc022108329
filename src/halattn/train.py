"""Training protocol: stratified splits, epoch loop with early stopping,
evaluation, and per-token attention inspection."""

from __future__ import annotations

import time
import typing
from dataclasses import dataclass, fields

import numpy as np

from .corpus import EncodedSet, RawDocument, Vocabulary, encode
from .linalg import EmbeddingTable
from .model import (
    AdamState,
    DivergenceError,
    ModelParams,
    POOLING_MODES,
    _head_forward,
    adam_step,
    init_params,
    loss_and_grad,
    param_shapes,
    pool_batch,
    pool_sequence,
    predict_logits,
)

EVAL_BATCH = 512


class TrainError(Exception):
    """Raised for invalid training inputs."""


@dataclass
class TrainConfig:
    """Every pipeline hyperparameter in one validated record."""

    window: int = 5
    embed_dim: int = 300
    seq_len: int = 200
    vocab_cap: int = 10000
    temperature: float = 2.0
    attn_dim: int = 64
    hidden: int = 128
    dropout_p: float = 0.6
    learning_rate: float = 5e-4
    weight_decay: float = 1e-4
    batch_size: int = 64
    patience: int = 5
    max_epochs: int = 50
    val_fraction: float = 0.1
    seed: int = 0
    pooling: str = "attention"

    def __post_init__(self):
        for name in ("window", "embed_dim", "seq_len", "vocab_cap", "attn_dim",
                     "hidden", "batch_size", "patience", "max_epochs"):
            if getattr(self, name) < 1:
                raise TrainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.val_fraction < 1.0:
            raise TrainError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        for name in ("temperature", "learning_rate"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise TrainError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise TrainError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise TrainError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.pooling not in POOLING_MODES:
            raise TrainError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")
        if self.seed < 0:
            raise TrainError(f"seed must be >= 0, got {self.seed}")


_CONFIG_TYPES = typing.get_type_hints(TrainConfig)


def parse_config(text: str, source) -> dict:
    """Values of a flat `key = value` text naming TrainConfig fields; `#` starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TrainError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_TYPES:
            raise TrainError(f"{source}:{lineno}: unknown config key {key!r}")
        kind = _CONFIG_TYPES[key]
        try:
            values[key] = value if kind is str else kind(value)
        except ValueError:
            raise TrainError(f"{source}:{lineno}: cannot parse {value!r} as {kind.__name__}") from None
    return values


def config_text(config: TrainConfig) -> str:
    """One `name = value` line per field; parse_config reads it back exactly."""
    return "".join(f"{f.name} = {getattr(config, f.name)}\n" for f in fields(config))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    test_acc: float | None
    wall_seconds: float


@dataclass
class Checkpoint:
    """Best-epoch parameters with the config that produced them, in its shapes."""

    config: TrainConfig
    params: ModelParams
    best_epoch: int
    best_val_acc: float

    def __post_init__(self):
        for name, shape in param_shapes(self.config).items():
            if (found := getattr(self.params, name).shape) != shape:
                raise TrainError(f"tensor {name!r} has shape {found}, not {shape}")


@dataclass
class AttentionReport:
    """Per-token attention weights with the model's prediction."""

    tokens: list[tuple[str, float]]
    predicted: int
    probs: np.ndarray  # (2,)


def check_embeddings(embeddings: EmbeddingTable, config: TrainConfig) -> None:
    """Refuse a table whose vectors are not the config's embed_dim wide."""
    if embeddings.dim != config.embed_dim:
        raise TrainError(
            f"embedding dim {embeddings.dim} does not match config embed_dim {config.embed_dim}")


def split(corpus: EncodedSet, val_fraction: float, seed: int) -> tuple[EncodedSet, EncodedSet]:
    """Stratified shuffle split preserving class proportions."""
    if not 0.0 < val_fraction < 1.0:
        raise TrainError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(seed)
    train_idx, val_idx = [], []
    for label in (0, 1):
        indices = np.flatnonzero(corpus.labels == label)
        if len(indices) < 2:
            raise TrainError(f"need at least 2 documents of class {label} to split")
        order = rng.permutation(len(indices))
        n_val = int(round(len(indices) * val_fraction))
        if n_val == 0 or n_val == len(indices):
            raise TrainError(
                f"val_fraction {val_fraction} leaves an empty side for class {label}"
            )
        val_idx.append(indices[order[:n_val]])
        train_idx.append(indices[order[n_val:]])
    return corpus[np.concatenate(train_idx)], corpus[np.concatenate(val_idx)]


def _accuracy(docs: EncodedSet, embeddings: EmbeddingTable, params: ModelParams,
              config: TrainConfig, rows: np.ndarray | None = None) -> float:
    """Eval-mode accuracy in EVAL_BATCH chunks; `rows` are the mean-pooled rows, if known."""
    correct = 0
    for start in range(0, len(docs), EVAL_BATCH):
        chunk = slice(start, start + EVAL_BATCH)
        logits = predict_logits(
            docs[chunk], embeddings, params, config.pooling, temperature=config.temperature,
            pooled=None if rows is None else rows[chunk],
        )
        correct += int((logits.argmax(axis=-1) == docs.labels[chunk]).sum())
    return correct / len(docs)


def _mean_pooled(docs: EncodedSet | None, embeddings: EmbeddingTable, params: ModelParams):
    """A set's mean-pooled rows, pooled EVAL_BATCH documents at a time."""
    return None if not docs else np.concatenate([
        pool_batch(docs[start : start + EVAL_BATCH], embeddings, params, "mean", temperature=1.0)
        for start in range(0, len(docs), EVAL_BATCH)])


def fit(
    train_set: EncodedSet,
    val_set: EncodedSet,
    embeddings: EmbeddingTable,
    config: TrainConfig,
    test_set: EncodedSet | None = None,
    log=None,
) -> tuple[Checkpoint, list[EpochRecord]]:
    """Train with per-epoch shuffling and validation-based early stopping.

    Keeps the parameters of the best validation epoch; stops after
    `patience` consecutive epochs without improvement. When a test set is
    given its accuracy is recorded per epoch for convergence reporting but
    never used for model selection. A DivergenceError carries the best
    checkpoint and the records of the epochs finished before it.

    Mean pooling has no trainable parameter, so each set is pooled once and
    every batch and evaluation chunk takes its rows from that, bit for bit
    the rows of per-batch pooling. Attention pools each batch anew.
    """
    if not len(train_set) or not len(val_set):
        raise TrainError("train and validation sets must be non-empty")
    check_embeddings(embeddings, config)
    params = init_params(config)
    adam = AdamState.for_params(params)
    grads = params.map(np.empty_like)  # every step writes all of it
    if config.pooling == "mean":  # no pooling parameter: pool each set once
        train_rows, val_rows, test_rows = (
            _mean_pooled(docs, embeddings, params) for docs in (train_set, val_set, test_set))
    else:
        train_rows = val_rows = test_rows = None
    records: list[EpochRecord] = []
    best: Checkpoint | None = None
    stale = 0
    n = len(train_set)
    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        rng = np.random.default_rng(config.seed + epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        acc_sum = 0.0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start : start + config.batch_size]
            try:
                loss, _, acc = loss_and_grad(
                    train_set[batch], embeddings, params, config.pooling, config.weight_decay, rng,
                    temperature=config.temperature, dropout_p=config.dropout_p,
                    pooled=None if train_rows is None else train_rows[batch], out=grads,
                )
            except DivergenceError as exc:
                error = DivergenceError(f"{exc} (epoch {epoch}, batch {batch_idx})")
                error.best, error.records = best, records
                raise error from exc
            adam_step(params, grads, adam, config.learning_rate)
            loss_sum += loss * len(batch)
            acc_sum += acc * len(batch)
        val_acc = _accuracy(val_set, embeddings, params, config, val_rows)
        test_acc = _accuracy(test_set, embeddings, params, config, test_rows) if test_set else None
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / n,
            train_acc=acc_sum / n,
            val_acc=val_acc,
            test_acc=test_acc,
            wall_seconds=time.perf_counter() - started,
        )
        records.append(record)
        if log is not None:
            log(record)
        if best is None or val_acc > best.best_val_acc:
            best = Checkpoint(
                config=config,
                params=params.map(np.copy),
                best_epoch=epoch,
                best_val_acc=val_acc,
            )
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    assert best is not None
    return best, records


def evaluate(checkpoint: Checkpoint, dataset: EncodedSet, embeddings: EmbeddingTable) -> float:
    """Eval-mode accuracy of a checkpoint over a dataset."""
    check_embeddings(embeddings, checkpoint.config)
    if not len(dataset):
        raise TrainError("cannot evaluate an empty dataset")
    return _accuracy(dataset, embeddings, checkpoint.params, checkpoint.config)


def inspect_attention(
    checkpoint: Checkpoint,
    embeddings: EmbeddingTable,
    vocab: Vocabulary,
    text: str,
) -> AttentionReport:
    """Per-token attention weights and prediction for a piece of text."""
    if checkpoint.config.pooling != "attention":
        raise TrainError("attention inspection requires an attention-pooling checkpoint")
    check_embeddings(embeddings, checkpoint.config)
    doc = encode(RawDocument(text=text, label=0), vocab, checkpoint.config.seq_len)
    pooled, alphas = pool_sequence(
        embeddings.gather(doc.ids), doc.mask, checkpoint.params, "attention",
        temperature=checkpoint.config.temperature,
    )
    logits = _head_forward(pooled[None], checkpoint.params, 0.0, None)[0][0]
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    pairs = [
        (vocab.tokens[int(doc.ids[t])], float(alphas[t]))
        for t in range(doc.real_length)
    ]
    return AttentionReport(tokens=pairs, predicted=int(np.argmax(logits)), probs=probs)
