"""Corpus ingestion: tokenization, vocabulary building, fixed-length encoding."""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

# Maximal runs of alphanumeric characters (unicode, underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Minimal <...> spans, e.g. HTML tags like <br />.
_TAG_RE = re.compile(r"<[^>]*>")
# The ASCII characters `_TOKEN_RE` does not match, each mapped to a space.
_ASCII_SEP = {c: " " for c in range(128) if not chr(c).isalnum()}


class CorpusError(Exception):
    """Raised for ingestion and encoding failures."""


@dataclass(frozen=True)
class RawDocument:
    """A labeled text document. Label 0 is negative, 1 is positive."""

    text: str
    label: int

    def __post_init__(self):
        if not self.text.strip():
            raise CorpusError("document text is empty")
        if self.label not in (0, 1):
            raise CorpusError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class Vocabulary:
    """Token <-> id bijection in descending frequency order, ties lexicographic."""

    tokens: list[str]
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        """The vocabulary of distinct, non-empty tokens, id i for tokens[i]."""
        index = dict(zip(tokens, range(len(tokens))))
        if len(index) != len(tokens):
            raise CorpusError("vocabulary contains duplicate tokens")
        if "" in index:
            raise CorpusError("vocabulary contains an empty token")
        return cls(tokens=list(tokens), index=index)

    @property
    def size(self) -> int:
        return len(self.tokens)


@dataclass
class EncodedDocument:
    """One row of an EncodedSet: real_length ids, then padding id 0."""

    ids: np.ndarray  # (T,) int32
    label: int
    real_length: int

    @property
    def mask(self) -> np.ndarray:
        return np.arange(self.ids.shape[0]) < self.real_length


@dataclass
class EncodedSet:
    """Encoded documents as arrays: row i holds lengths[i] real ids, then
    padding id 0. An int index gives one row as an EncodedDocument, as
    iteration does; a slice or an index array gives a subset."""

    ids: np.ndarray  # (N, T) int32
    lengths: np.ndarray  # (N,) int64, each in [1, T]
    labels: np.ndarray  # (N,) int64

    @property
    def mask(self) -> np.ndarray:  # (N, T) bool, True at real tokens
        return np.arange(self.ids.shape[1]) < self.lengths[:, None]

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return EncodedDocument(self.ids[i], int(self.labels[i]), int(self.lengths[i]))
        return EncodedSet(self.ids[i], self.lengths[i], self.labels[i])

    def __iter__(self):
        return map(EncodedDocument, self.ids, self.labels.tolist(), self.lengths.tolist())


def tokenize(text: str) -> list[str]:
    """Lowercase, drop <...> tag spans, split on non-alphanumeric runs.

    The result is `_TOKEN_RE.findall(_TAG_RE.sub(" ", text.lower()))`: the
    maximal runs of `str.isalnum()` characters. Lowercased ASCII text takes
    an exact shortcut, every non-alphanumeric character to a space and then
    `str.split()`, which leaves only runs of [a-z0-9].
    """
    text = text.lower()
    if "<" in text:
        text = _TAG_RE.sub(" ", text)
    if text.isascii():
        return text.translate(_ASCII_SEP).split()
    return _TOKEN_RE.findall(text)


def build_vocab(docs: list[RawDocument], cap: int) -> Vocabulary:
    """Vocabulary of the `cap` most frequent tokens, ties broken lexicographically."""
    if not docs:
        raise CorpusError("cannot build a vocabulary from an empty document list")
    if cap < 1:
        raise CorpusError(f"vocabulary cap must be >= 1, got {cap}")
    counts = Counter(chain.from_iterable(tokenize(doc.text) for doc in docs))
    if not counts:
        raise CorpusError("corpus tokenization produced zero tokens")
    # a stable sort by descending count keeps the lexicographic order of ties
    return Vocabulary.from_tokens(sorted(sorted(counts), key=counts.__getitem__, reverse=True)[:cap])


def encode(doc: RawDocument, vocab: Vocabulary, seq_len: int) -> EncodedDocument:
    """Encode to exactly `seq_len` slots: drop OOV tokens, truncate, right-pad with id 0."""
    return encode_corpus([doc], vocab, seq_len)[0][0]


def encode_corpus(
    docs: list[RawDocument], vocab: Vocabulary, seq_len: int, skip_empty: bool = False
) -> tuple[EncodedSet, int]:
    """Encode a document list as one EncodedSet. Returns (encoded, skipped_count).

    Without skip_empty, a document with no in-vocabulary tokens raises;
    with it, such documents are dropped.
    """
    if vocab.size == 0:
        raise CorpusError("cannot encode with an empty vocabulary")
    if seq_len < 1:
        raise CorpusError(f"sequence length must be >= 1, got {seq_len}")
    lookup = vocab.index.get
    ids = np.zeros((len(docs), seq_len), dtype=np.int32)
    lengths, labels = [], []
    for doc in docs:
        kept = [i for i in map(lookup, tokenize(doc.text)) if i is not None][:seq_len]
        if kept:
            ids[len(lengths), : len(kept)] = kept
            lengths.append(len(kept))
            labels.append(doc.label)
        elif not skip_empty:
            raise CorpusError("document has no in-vocabulary tokens")
    n = len(lengths)
    return EncodedSet(ids[:n], np.array(lengths, dtype=np.int64),
                      np.array(labels, dtype=np.int64)), len(docs) - n


def load_labeled_dir(path: str | Path) -> list[RawDocument]:
    """Load `<path>/pos/*` and `<path>/neg/*` as labeled documents.

    Positive documents come first, each subdirectory read in sorted
    filename order so the result is deterministic. Each file is read as
    bytes and decoded as UTF-8; its text is what text-mode `open()` reads.
    """
    root = Path(path)
    docs: list[RawDocument] = []
    for sub, label in (("pos", 1), ("neg", 0)):
        subdir = root / sub
        if not subdir.is_dir():
            raise CorpusError(f"missing '{sub}' subdirectory under {root}")
        for file in sorted(e.path for e in os.scandir(subdir) if e.is_file()):
            fd = os.open(file, os.O_RDONLY)
            try:
                data = os.read(fd, os.fstat(fd).st_size)
            finally:
                os.close(fd)
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"cannot decode {file} as UTF-8: {exc}") from exc
            if "\r" in text:  # universal newlines, as text-mode open() reads them
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            if not text.strip():
                raise CorpusError(f"empty document file: {file}")
            docs.append(RawDocument(text=text, label=label))
    return docs
