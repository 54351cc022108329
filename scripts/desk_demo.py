#!/usr/bin/env python3
"""Desk-scale demo: generate a synthetic labeled corpus, run the whole
pipeline through the CLI, and print the pooling comparison table.

Usage: python3 scripts/desk_demo.py [output_dir]
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

from synthetic import (DESK_CONFIG, make_desk_corpus, split_desk_corpus,  # noqa: E402
                       write_labeled_dir)

from halattn.cli import main  # noqa: E402
from halattn.train import config_text  # noqa: E402


def run(argv):
    code = main(argv)
    if code != 0:
        raise SystemExit(code)


def demo(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    data = out_dir / "data"
    if not data.exists():
        print("generating synthetic corpus ...")
        docs = make_desk_corpus(2000, seed=7)
        train_docs, test_docs = split_desk_corpus(docs, n_train=1200)
        write_labeled_dir(train_docs, data / "train")
        write_labeled_dir(test_docs, data / "test")
    config = out_dir / "desk.cfg"
    cfg = DESK_CONFIG
    config.write_text(config_text(cfg), encoding="utf-8")

    run(["build-vocab", "--data", str(data / "train"), "--cap", str(cfg.vocab_cap),
         "--out", str(out_dir / "vocab.txt")])
    run(["build-hal", "--data", str(data / "train"), "--vocab", str(out_dir / "vocab.txt"),
         "--window", str(cfg.window), "--seq-len", str(cfg.seq_len),
         "--out", str(out_dir / "pair.cooc")])
    run(["svd", "--cooc", str(out_dir / "pair.cooc"), "--dim", str(cfg.embed_dim),
         "--oversample", "10", "--power-iters", "2", "--seed", "5",
         "--out", str(out_dir / "emb.bin")])
    run(["compare", "--data", str(data), "--embeddings", str(out_dir / "emb.bin"),
         "--config", str(config)])

    print("\nattention weights on a mixed synthetic sentence:")
    run(["train", "--data", str(data / "train"), "--embeddings", str(out_dir / "emb.bin"),
         "--pooling", "attention", "--config", str(config),
         "--out", str(out_dir / "attention.ckpt"),
         "--metrics", str(out_dir / "attention.csv")])
    run(["attend", "--ckpt", str(out_dir / "attention.ckpt"),
         "--embeddings", str(out_dir / "emb.bin"),
         "--text", "the pos03 was so very pos01 but it was neg00 and neg02 overall"])


if __name__ == "__main__":
    demo(Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "runs" / "desk")
