"""Distance-weighted co-occurrence embeddings with attention pooling."""

from .cooc import CoocPair, build_cooc, concat_pair, hal_weight
from .corpus import (
    EncodedDocument,
    EncodedSet,
    RawDocument,
    Vocabulary,
    build_vocab,
    encode,
    encode_corpus,
    load_labeled_dir,
    tokenize,
)
from .linalg import EmbeddingTable, SvdResult, embed, truncated_svd
from .model import (
    AdamState,
    ModelParams,
    adam_step,
    init_params,
    loss_and_grad,
    pool_sequence,
)
from .train import (
    AttentionReport,
    Checkpoint,
    EpochRecord,
    TrainConfig,
    evaluate,
    fit,
    inspect_attention,
    split,
)

__version__ = "0.1.0"
