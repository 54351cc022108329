"""Synthetic corpora for desk-scale experiments.

The desk corpus draws two class-conditional keyword distributions over a
shared stop-word noise floor. Half the documents are concise with two
keyword bursts; the rest ramble, burying a single short burst in long noise
runs that an unweighted average struggles to see past.
"""

from __future__ import annotations

import numpy as np

from halattn.corpus import EncodedSet, RawDocument
from halattn.linalg import EmbeddingTable
from halattn.train import TrainConfig

STOP_WORDS = [
    "the", "a", "an", "and", "or", "but", "of", "to", "in", "on", "at", "for",
    "with", "as", "by", "from", "it", "this", "that", "was", "is", "be", "so", "very",
]

POS_WORDS = [f"pos{i:02d}" for i in range(40)]
NEG_WORDS = [f"neg{i:02d}" for i in range(40)]
NEUTRAL_WORDS = [f"w{i:03d}" for i in range(150)]

DESK_CONFIG = TrainConfig(
    window=4,
    embed_dim=32,
    seq_len=128,
    vocab_cap=300,
    temperature=2.0,
    attn_dim=16,
    hidden=32,
    dropout_p=0.2,
    learning_rate=1e-3,
    weight_decay=1e-4,
    batch_size=32,
    patience=6,
    max_epochs=40,
    val_fraction=0.2,
    seed=11,
    pooling="attention",
)


def make_desk_corpus(
    n_docs: int = 2000, seed: int = 7, rambling_frac: float = 0.4
) -> list[RawDocument]:
    """Balanced labeled corpus from two class-conditional token distributions."""
    rng = np.random.default_rng(seed)
    stop_p = 1.0 / np.arange(2, len(STOP_WORDS) + 2)
    stop_p /= stop_p.sum()
    key_p = 1.0 / np.arange(1, len(POS_WORDS) + 1) ** 0.5
    key_p /= key_p.sum()

    def noise(n: int) -> list[str]:
        out = []
        for _ in range(n):
            if rng.random() < 0.8:
                out.append(STOP_WORDS[rng.choice(len(STOP_WORDS), p=stop_p)])
            else:
                out.append(NEUTRAL_WORDS[int(rng.integers(len(NEUTRAL_WORDS)))])
        return out

    docs = []
    for i in range(n_docs):
        label = int(i % 2)
        keywords = POS_WORDS if label == 1 else NEG_WORDS
        if rng.random() < rambling_frac:
            n_runs = int(rng.integers(6, 13))
            run_len = (6, 14)
            n_bursts = 1
            burst_len = (1, 3)
        else:
            n_runs = int(rng.integers(2, 5))
            run_len = (2, 6)
            n_bursts = 2
            burst_len = (2, 5)
        burst_at = set(rng.choice(n_runs, size=min(n_bursts, n_runs), replace=False).tolist())
        words: list[str] = []
        for r in range(n_runs):
            words.extend(noise(int(rng.integers(*run_len))))
            if r in burst_at:
                for _ in range(int(rng.integers(*burst_len))):
                    words.append(keywords[rng.choice(len(keywords), p=key_p)])
        docs.append(RawDocument(text=" ".join(words), label=label))
    return docs


def split_desk_corpus(
    docs: list[RawDocument], n_train: int = 1200, seed: int = 123
) -> tuple[list[RawDocument], list[RawDocument]]:
    """Shuffled train/test partition of a generated corpus."""
    order = np.random.default_rng(seed).permutation(len(docs))
    train = [docs[i] for i in order[:n_train]]
    test = [docs[i] for i in order[n_train:]]
    return train, test


def make_cluster_dataset(
    n_docs: int = 200,
    vocab_size: int = 40,
    dim: int = 8,
    seq_len: int = 12,
    seed: int = 0,
) -> tuple[EncodedSet, EmbeddingTable]:
    """Linearly separable toy data: token vectors form two Gaussian clusters
    and each document samples ids from its class's half of the vocabulary."""
    rng = np.random.default_rng(seed)
    half = vocab_size // 2
    mu0 = rng.standard_normal(dim)
    mu1 = rng.standard_normal(dim)
    vectors = np.empty((vocab_size, dim), dtype=np.float32)
    vectors[:half] = mu0 + 0.3 * rng.standard_normal((half, dim))
    vectors[half:] = mu1 + 0.3 * rng.standard_normal((vocab_size - half, dim))
    id_lists = []
    for i in range(n_docs):
        label = i % 2
        m = int(rng.integers(3, seq_len + 1))
        id_lists.append(rng.integers(0, half, m) + (half if label else 0))
    docs = encoded_set(id_lists, [i % 2 for i in range(n_docs)], seq_len)
    return docs, EmbeddingTable(vectors=vectors)


def encoded_set(id_lists, labels=0, seq_len=None) -> EncodedSet:
    """Documents given by their real ids, right-padded with id 0 to seq_len
    (default: the longest). `labels` is one label for all or one per document."""
    lengths = np.array([len(ids) for ids in id_lists], dtype=np.int64)
    ids = np.zeros((lengths.size, seq_len or int(lengths.max(initial=1))), dtype=np.int32)
    for row, real in zip(ids, id_lists):
        row[: len(real)] = real
    labels = np.broadcast_to(np.asarray(labels, dtype=np.int64), lengths.shape).copy()
    return EncodedSet(ids=ids, lengths=lengths, labels=labels)


def write_labeled_dir(docs: list[RawDocument], root) -> None:
    """Write documents in the pos/ neg/ one-file-per-document layout."""
    (root / "pos").mkdir(parents=True, exist_ok=True)
    (root / "neg").mkdir(parents=True, exist_ok=True)
    counters = {0: 0, 1: 0}
    for doc in docs:
        sub = "pos" if doc.label == 1 else "neg"
        (root / sub / f"{counters[doc.label]:05d}.txt").write_text(
            doc.text, encoding="utf-8"
        )
        counters[doc.label] += 1
