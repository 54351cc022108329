"""Command-line pipeline: vocabulary, co-occurrence, SVD, training, reports.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 numeric
divergence. Every randomized command takes --seed and is reproducible
given it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

from . import store
from .cooc import CoocError, build_cooc, concat_pair
from .corpus import CorpusError, build_vocab, encode_corpus, load_labeled_dir
from .linalg import OVERSAMPLE, POWER_ITERS, ConvergenceError, LinalgError, embed, truncated_svd
from .model import POOLING_MODES, DivergenceError, ModelError
from .train import (_CONFIG_TYPES, TrainConfig, TrainError, check_embeddings, evaluate, fit,
                    inspect_attention, parse_config, split)

_CLASS_NAMES = {0: "negative", 1: "positive"}
# TrainConfig fields that train and compare also take as flags, e.g. --max-epochs
_OVERRIDES = ("seed", "max_epochs", "batch_size", "learning_rate", "patience", "temperature")


def _build_config(args) -> TrainConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    except UnicodeDecodeError as exc:
        raise TrainError(f"cannot decode config file {args.config} as UTF-8: {exc}") from None
    values = parse_config(text, args.config)
    for name in ("pooling", *_OVERRIDES):
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    return TrainConfig(**values)


def _load_split_dir(path: str, seq_len: int, vocab):
    docs = load_labeled_dir(path)
    encoded, skipped = encode_corpus(docs, vocab, seq_len, skip_empty=True)
    if skipped:
        print(f"warning: skipped {skipped} documents with no in-vocabulary tokens",
              file=sys.stderr)
    if not encoded:
        raise CorpusError(f"no encodable documents under {path}")
    return encoded


def _epoch_logger(record):
    test = f"  test_acc {record.test_acc:.4f}" if record.test_acc is not None else ""
    print(
        f"epoch {record.epoch:3d}  train_loss {record.train_loss:.4f}"
        f"  train_acc {record.train_acc:.4f}  val_acc {record.val_acc:.4f}"
        f"{test}  ({record.wall_seconds:.1f}s)"
    )


def _cmd_build_vocab(args) -> int:
    docs = load_labeled_dir(args.data)
    vocab = build_vocab(docs, args.cap)
    store.save_vocab(vocab, args.out)
    print(f"vocabulary of {vocab.size} tokens from {len(docs)} documents -> {args.out}")
    return 0


def _cmd_build_hal(args) -> int:
    vocab = store.load_vocab(args.vocab)
    encoded = _load_split_dir(args.data, args.seq_len, vocab)
    pair = build_cooc(encoded, vocab.size, args.window)
    store.save_cooc(pair, vocab, args.out)
    print(
        f"co-occurrence pair over {len(encoded)} documents, window {args.window}: "
        f"{pair.left.nnz} left entries -> {args.out}"
    )
    return 0


def _cmd_svd(args) -> int:
    pair, vocab = store.load_cooc(args.cooc)
    result = truncated_svd(
        concat_pair(pair), k=args.dim, oversample=args.oversample,
        power_iters=args.power_iters, seed=args.seed,
    )
    table = embed(result, normalize=args.normalize)
    store.save_embeddings(table, vocab, args.out)
    top = ", ".join(f"{s:.4g}" for s in result.singular_values[:5])
    print(f"embeddings {table.size}x{table.dim} (leading singular values {top}) -> {args.out}")
    return 0


def _save_training(ckpt, records, args) -> None:
    store.save_checkpoint(ckpt, args.out)
    if args.metrics:
        store.save_metrics(records, args.metrics)


def _load_training(args, train_dir, test_dir):
    """(table, config, train, validation, test sets) of train and compare; the table is
    checked against the config before any text is read. No test_dir gives no test set."""
    table, vocab = store.load_embeddings(args.embeddings)
    config = _build_config(args)
    check_embeddings(table, config)
    train_set, val_set = split(_load_split_dir(train_dir, config.seq_len, vocab),
                               config.val_fraction, config.seed)
    test_set = _load_split_dir(test_dir, config.seq_len, vocab) if test_dir else None
    return table, config, train_set, val_set, test_set


def _cmd_train(args) -> int:
    table, config, train_set, val_set, test_set = _load_training(args, args.data, args.test_data)
    try:
        ckpt, records = fit(train_set, val_set, table, config, test_set=test_set,
                            log=_epoch_logger)
    except DivergenceError as exc:
        if exc.best is not None:  # keep the best epoch before the divergence
            _save_training(exc.best, exc.records, args)
            print(f"kept best epoch {exc.best.best_epoch} -> {args.out}", file=sys.stderr)
        raise
    _save_training(ckpt, records, args)
    print(
        f"best epoch {ckpt.best_epoch} with validation accuracy "
        f"{ckpt.best_val_acc:.4f} -> {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    ckpt = store.load_checkpoint(args.ckpt)
    table, vocab = store.load_embeddings(args.embeddings)
    encoded = _load_split_dir(args.data, ckpt.config.seq_len, vocab)
    acc = evaluate(ckpt, encoded, table)
    print(f"accuracy {acc:.4f}")
    return 0


def _cmd_attend(args) -> int:
    ckpt = store.load_checkpoint(args.ckpt)
    table, vocab = store.load_embeddings(args.embeddings)
    report = inspect_attention(ckpt, table, vocab, args.text)
    width = max(5, max(len(tok) for tok, _ in report.tokens))
    print(f"{'token':<{width}}  alpha")
    for tok, alpha in report.tokens:
        print(f"{tok:<{width}}  {alpha:.4f}")
    print(
        f"prediction: {_CLASS_NAMES[report.predicted]} "
        f"(p_negative={report.probs[0]:.4f}, p_positive={report.probs[1]:.4f})"
    )
    return 0


def _cmd_compare(args) -> int:
    root = Path(args.data)
    if not (root / "train").is_dir() or not (root / "test").is_dir():
        raise CorpusError(f"{root} must contain train/ and test/ subdirectories")
    table, config, train_set, val_set, test_set = _load_training(args, root / "train",
                                                                 root / "test")

    rows = []
    for pooling in POOLING_MODES:
        variant = dataclasses.replace(config, pooling=pooling)
        print(f"training {pooling} pooling:")
        ckpt, records = fit(train_set, val_set, table, variant, test_set=test_set,
                            log=_epoch_logger)
        first = records[0].test_acc
        peak_idx = max(range(len(records)), key=lambda i: records[i].test_acc)
        rows.append((pooling, first, records[peak_idx].test_acc, peak_idx + 1))

    print(f"\n{'pooling':<11} {'epoch1_test':>11} {'peak_test':>10} {'best_epoch':>11}")
    for pooling, first, peak, best_epoch in rows:
        print(f"{pooling:<11} {first:>11.4f} {peak:>10.4f} {best_epoch:>11d}")
    delta = rows[1][2] - rows[0][2]
    print(f"attention - mean peak delta: {delta:+.4f}")
    return 0


@functools.cache  # parse_args leaves the parser as it was; building one per main() costs ~1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halattn",
        description="Co-occurrence embeddings with attention pooling for text classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("build-vocab", help="build a frequency-capped vocabulary")
    p.add_argument("--data", required=True, help="directory with pos/ and neg/ text files")
    p.add_argument("--cap", type=int, default=TrainConfig.vocab_cap, help="maximum vocabulary size")
    p.add_argument("--out", required=True, help="output vocabulary file")
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("build-hal", help="build directional co-occurrence matrices")
    p.add_argument("--data", required=True, help="directory with pos/ and neg/ text files")
    p.add_argument("--vocab", required=True, help="vocabulary file")
    p.add_argument("--window", type=int, default=TrainConfig.window,
                   help="co-occurrence window size")
    p.add_argument("--seq-len", type=int, default=TrainConfig.seq_len,
                   help="encoded sequence length")
    p.add_argument("--out", required=True, help="output co-occurrence pair file")
    p.set_defaults(func=_cmd_build_hal)

    p = sub.add_parser("svd", help="compress co-occurrence rows into dense embeddings")
    p.add_argument("--cooc", required=True, help="co-occurrence pair file")
    p.add_argument("--dim", type=int, default=TrainConfig.embed_dim, help="embedding dimension")
    p.add_argument("--oversample", type=int, default=OVERSAMPLE, help="range-finder oversampling")
    p.add_argument("--power-iters", type=int, default=POWER_ITERS, help="power iteration rounds")
    p.add_argument("--seed", type=int, default=TrainConfig.seed, help="random seed")
    p.add_argument("--normalize", action="store_true",
                   help="scale embedding rows to unit L2 norm (default off)")
    p.add_argument("--out", required=True, help="output embedding file")
    p.set_defaults(func=_cmd_svd)

    def config_overrides(p):
        p.add_argument("--config", default=None, help="key = value config file")
        for name in _OVERRIDES:
            p.add_argument("--" + name.replace("_", "-"), type=_CONFIG_TYPES[name], default=None,
                           help=f"override config {name}")

    p = sub.add_parser("train", help="train a classifier on fixed embeddings")
    p.add_argument("--data", required=True, help="training directory with pos/ and neg/")
    p.add_argument("--embeddings", required=True, help="embedding file")
    p.add_argument("--pooling", choices=POOLING_MODES, default=None)
    p.add_argument("--out", required=True, help="output checkpoint file")
    p.add_argument("--metrics", default=None, help="output per-epoch metrics CSV")
    p.add_argument("--test-data", default=None,
                   help="optional test directory for per-epoch test accuracy")
    config_overrides(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled directory")
    p.add_argument("--ckpt", required=True, help="checkpoint file")
    p.add_argument("--embeddings", required=True, help="embedding file")
    p.add_argument("--data", required=True, help="directory with pos/ and neg/")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("attend", help="report per-token attention weights for a text")
    p.add_argument("--ckpt", required=True, help="attention-pooling checkpoint file")
    p.add_argument("--embeddings", required=True, help="embedding file")
    p.add_argument("--text", required=True, help="text to inspect")
    p.set_defaults(func=_cmd_attend)

    p = sub.add_parser("compare", help="train both pooling variants and summarize")
    p.add_argument("--data", required=True,
                   help="root with train/ and test/ labeled directories")
    p.add_argument("--embeddings", required=True, help="embedding file")
    config_overrides(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (DivergenceError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (store.StoreError, CorpusError, CoocError, LinalgError, ModelError,
            TrainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())
