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
        index = {tok: i for i, tok in enumerate(tokens)}
        vocab = cls(tokens=list(tokens), index=index)
        vocab.validate()
        return vocab

    def validate(self):
        if len(self.index) != len(self.tokens):
            raise CorpusError("vocabulary contains duplicate tokens")
        for i, tok in enumerate(self.tokens):
            if not tok:
                raise CorpusError("vocabulary contains an empty token")
            if self.index.get(tok) != i:
                raise CorpusError("vocabulary index is not the inverse of the token list")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class EncodedDocument:
    """Fixed-length id sequence with a left-aligned validity mask."""

    ids: np.ndarray  # (T,) int32, padded with 0
    mask: np.ndarray  # (T,) bool, True at real tokens
    label: int
    real_length: int

    def validate(self, vocab_size: int | None = None):
        T = self.ids.shape[0]
        if self.mask.shape[0] != T:
            raise CorpusError("ids and mask lengths differ")
        if not (1 <= self.real_length <= T):
            raise CorpusError(f"real_length {self.real_length} outside [1, {T}]")
        expected = np.arange(T) < self.real_length
        if not np.array_equal(self.mask, expected):
            raise CorpusError("mask is not left-aligned with real_length")
        if vocab_size is not None:
            real = self.ids[: self.real_length]
            if real.min(initial=0) < 0 or real.max(initial=-1) >= vocab_size:
                raise CorpusError("encoded id out of vocabulary range")


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
    if vocab.size == 0:
        raise CorpusError("cannot encode with an empty vocabulary")
    if seq_len < 1:
        raise CorpusError(f"sequence length must be >= 1, got {seq_len}")
    kept = [i for i in map(vocab.index.get, tokenize(doc.text)) if i is not None]
    if not kept:
        raise CorpusError("document has no in-vocabulary tokens")
    kept = kept[:seq_len]
    ids = np.zeros(seq_len, dtype=np.int32)
    ids[: len(kept)] = kept
    mask = np.zeros(seq_len, dtype=bool)
    mask[: len(kept)] = True
    return EncodedDocument(ids=ids, mask=mask, label=doc.label, real_length=len(kept))


def encode_corpus(
    docs: list[RawDocument], vocab: Vocabulary, seq_len: int, skip_empty: bool = False
) -> tuple[list[EncodedDocument], int]:
    """Encode a document list. Returns (encoded, skipped_count).

    With skip_empty, documents with no in-vocabulary tokens are dropped
    instead of raising.
    """
    encoded = []
    skipped = 0
    for doc in docs:
        try:
            encoded.append(encode(doc, vocab, seq_len))
        except CorpusError:
            if not skip_empty:
                raise
            skipped += 1
    return encoded, skipped


def load_labeled_dir(path: str | Path) -> list[RawDocument]:
    """Load `<path>/pos/*` and `<path>/neg/*` as labeled documents.

    Positive documents come first, each subdirectory read in sorted
    filename order so the result is deterministic.
    """
    root = Path(path)
    docs: list[RawDocument] = []
    for sub, label in (("pos", 1), ("neg", 0)):
        subdir = root / sub
        if not subdir.is_dir():
            raise CorpusError(f"missing '{sub}' subdirectory under {root}")
        for file in sorted(e.path for e in os.scandir(subdir) if e.is_file()):
            try:
                with open(file, encoding="utf-8") as f:
                    text = f.read()
            except UnicodeDecodeError as exc:
                raise CorpusError(f"cannot decode {file} as UTF-8: {exc}") from exc
            if not text.strip():
                raise CorpusError(f"empty document file: {file}")
            docs.append(RawDocument(text=text, label=label))
    return docs
