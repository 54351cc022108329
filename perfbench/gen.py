"""Seeded input generators for the benchmark.

The IMDB-shape corpus is drawn in one vectorized pass: a Zipfian background
over a fixed set of word types, a share of class-signal tokens taken from
two disjoint keyword sets, lognormal document lengths and `<br /><br />`
paragraph tags. The desk corpus comes from `tests/synthetic.py`, the corpus
the acceptance tests use. Every input depends only on the seed.
"""

from __future__ import annotations

import string

import numpy as np

from halattn.corpus import RawDocument
from synthetic import (  # noqa: F401  (re-exported for the workloads)
    DESK_CONFIG,
    make_desk_corpus,
    split_desk_corpus,
    write_labeled_dir,
)

BR_TAG = "<br /><br />"


def word_types(n_types: int) -> list[str]:
    """Distinct lowercase pseudo-words, shorter for lower ranks."""
    letters = string.ascii_lowercase
    names = []
    for i in range(n_types):
        n = i + 26  # two letters at least
        chars = []
        while n:
            n, r = divmod(n, 26)
            chars.append(letters[r])
        names.append("".join(reversed(chars)))
    return names


# Corpus shape. Reviews: lognormal lengths with median 175 and mean about
# 230 tokens; a Zipf(1.05) background over 40k word types; 20% class-signal
# tokens, uniform over 400 mid-frequency keywords per class (at 12%, neither
# pooling passed 0.66 accuracy after 2 epochs on 2k documents); paragraph tags.
N_TYPES = 40000
ZIPF_S = 1.05
SIGNAL = 0.2
KEYWORDS = 400
FIRST_KEYWORD_RANK = 100
MEDIAN_LEN = 175.0
LEN_SIGMA = 0.75
TAG_RATE = 0.004


def make_imdb_corpus(n_docs: int, seed: int) -> list[RawDocument]:
    """Balanced labeled documents with IMDB-like length and frequency shape.

    Each token is, with probability SIGNAL, a keyword of its document's class
    and otherwise a Zipf draw over all types; a share TAG_RATE of tokens
    become paragraph tags, which the tokenizer drops.
    """
    rng = np.random.default_rng(seed)
    labels = np.arange(n_docs) % 2
    lengths = np.clip(
        np.rint(rng.lognormal(np.log(MEDIAN_LEN), LEN_SIGMA, n_docs)), 10, 2500
    ).astype(np.int64)
    total = int(lengths.sum())
    token_label = np.repeat(labels, lengths)

    cdf = np.cumsum(1.0 / np.arange(1, N_TYPES + 1) ** ZIPF_S)
    ids = np.searchsorted(cdf, rng.random(total) * cdf[-1])
    pick = rng.integers(0, KEYWORDS, total) + FIRST_KEYWORD_RANK + token_label * KEYWORDS
    ids = np.where(rng.random(total) < SIGNAL, pick, ids)
    ids = np.where(rng.random(total) < TAG_RATE, N_TYPES, ids)

    tokens = np.array(word_types(N_TYPES) + [BR_TAG], dtype=object)[ids]
    ends = np.cumsum(lengths)
    return [
        RawDocument(text=" ".join(tokens[end - n : end]), label=int(label))
        for end, n, label in zip(ends.tolist(), lengths.tolist(), labels.tolist())
    ]
