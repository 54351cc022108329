"""Workload definitions: generated inputs and the `scripts/run_imdb.sh` sequence.

Every workload runs the same subcommand sequence as `scripts/run_imdb.sh`:
build-vocab, build-hal and svd on the embedding corpus, then train and eval
for each pooling, then attend on a fixed set of texts. Workloads differ only
in shape, so each one stresses a different layer while every end-to-end
metric exists on every workload.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

from halattn.corpus import RawDocument
from halattn.train import TrainConfig

import gen

N_ATTEND_TEXTS = 48
OVERSAMPLE = 10  # scripts/run_imdb.sh
POWER_ITERS = 2
POOLINGS = ("mean", "attention")


@dataclass(frozen=True)
class Workload:
    name: str
    config: TrainConfig  # written to the --config file; window/seq_len/vocab_cap feed build-*
    n_embed: int  # documents in the embedding corpus (data/embed)
    n_train: int  # classifier training documents (data/train); 0 means data/embed
    n_test: int  # classifier test documents (data/test)
    normalize: bool = False  # svd --normalize
    acc_floor: float | None = 0.70  # None: accuracy is reported, not gated
    ab_margin: float | None = None  # attention must beat mean by this much

    def documents(self, seed: int) -> tuple[list[RawDocument], list[RawDocument]]:
        """(labelled docs for every split, attend texts), from the seed alone."""
        n = self.n_embed + self.n_train + self.n_test
        if self.name == "desk":
            docs = gen.make_desk_corpus(n + N_ATTEND_TEXTS, seed=seed)
        else:
            docs = gen.make_imdb_corpus(n + N_ATTEND_TEXTS, seed=seed)
        return docs[:n], docs[n:]

    def splits(self, docs: list[RawDocument]) -> dict[str, list[RawDocument]]:
        if self.name == "desk":
            # The acceptance-test partition: 1200 train (embedding and
            # classifier), the rest test.
            train, test = gen.split_desk_corpus(docs, n_train=self.n_embed)
            return {"embed": train, "test": test}
        cut = self.n_embed + self.n_train
        out = {"embed": docs[: self.n_embed], "test": docs[cut:]}
        if self.n_train:
            out["train"] = docs[self.n_embed : cut]
        return out


def _fixed_epochs(config: TrainConfig, epochs: int) -> TrainConfig:
    # patience == max_epochs: every run trains exactly `epochs` epochs, so
    # the work done does not depend on where validation accuracy peaks.
    return replace(config, max_epochs=epochs, patience=epochs)


# scripts/run_imdb.sh shapes; a higher learning rate than the default so
# that 2 epochs on a few thousand documents leave chance far behind.
IMDB_CONFIG = TrainConfig(window=5, seq_len=200, vocab_cap=10000, learning_rate=2e-3)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="embed-imdb",
            config=_fixed_epochs(replace(IMDB_CONFIG, embed_dim=32), 2),
            n_embed=5000,
            n_train=1500,
            n_test=1500,
            normalize=True,
            # k=32 over V=10k stays at chance in 2 epochs on 1350 training
            # docs; the classifier here is a throughput probe.
            acc_floor=None,
        ),
        Workload(
            name="train-imdb",
            config=_fixed_epochs(replace(IMDB_CONFIG, vocab_cap=2000, embed_dim=64), 2),
            n_embed=1500,
            n_train=0,
            n_test=1500,
            normalize=True,
            acc_floor=0.90,
        ),
        Workload(
            name="desk",
            config=_fixed_epochs(gen.DESK_CONFIG, 12),
            n_embed=1200,
            n_train=0,
            n_test=800,
            ab_margin=0.02,
        ),
    )
}


def config_text(config: TrainConfig) -> str:
    return "".join(f"{f.name} = {getattr(config, f.name)}\n" for f in fields(config))


def write_inputs(workload: Workload, seed: int, root: Path) -> dict:
    """Generate and write one workload's inputs under `root`.

    Returns the document count per class (negative, positive) of each split.
    """
    docs, texts = workload.documents(seed)
    counts = {}
    for split, split_docs in workload.splits(docs).items():
        gen.write_labeled_dir(split_docs, root / split)
        counts[split] = [sum(d.label == c for d in split_docs) for c in (0, 1)]
    (root / "config.cfg").write_text(config_text(workload.config), encoding="utf-8")
    (root / "texts.txt").write_text("\n".join(d.text for d in texts) + "\n", encoding="utf-8")
    return counts


def timed_setup(name: str, seed: int, root: str, reps: int) -> tuple[list[float], dict]:
    """Write the inputs `reps` times, to `<root>/rep<i>`; returns per-rep seconds."""
    workload = WORKLOADS[name]
    times = []
    counts = {}
    for i in range(reps):
        path = Path(root) / f"rep{i}"
        path.mkdir(parents=True)
        started = time.perf_counter()
        counts = write_inputs(workload, seed, path)
        times.append(time.perf_counter() - started)
    return times, counts


@dataclass
class Step:
    stage: str  # build-vocab, build-hal, svd, train, eval, attend
    pooling: str | None
    argv: list[str]
    repeat: bool = True  # attend is sampled over many texts instead


def sequence(workload: Workload, inputs: Path, out: Path) -> list[Step]:
    """The `scripts/run_imdb.sh` subcommands for one pass over the inputs."""
    cfg = workload.config
    corpus = str(inputs / "embed")
    train = str(inputs / ("train" if workload.n_train else "embed"))
    test = str(inputs / "test")
    emb = str(out / "emb.bin")
    steps = [
        Step("build-vocab", None, ["build-vocab", "--data", corpus, "--cap", str(cfg.vocab_cap),
                                   "--out", str(out / "vocab.txt")]),
        Step("build-hal", None, ["build-hal", "--data", corpus, "--vocab", str(out / "vocab.txt"),
                                 "--window", str(cfg.window), "--seq-len", str(cfg.seq_len),
                                 "--out", str(out / "pair.cooc")]),
        Step("svd", None, ["svd", "--cooc", str(out / "pair.cooc"), "--dim", str(cfg.embed_dim),
                           "--oversample", str(OVERSAMPLE),
                           "--power-iters", str(POWER_ITERS), "--seed", "0",
                           "--out", emb] + (["--normalize"] if workload.normalize else [])),
    ]
    for pooling in POOLINGS:
        ckpt = str(out / f"{pooling}.ckpt")
        steps.append(Step("train", pooling, [
            "train", "--data", train, "--test-data", test, "--embeddings", emb,
            "--pooling", pooling, "--config", str(inputs / "config.cfg"),
            "--out", ckpt, "--metrics", str(out / f"{pooling}.csv")]))
        steps.append(Step("eval", pooling, ["eval", "--ckpt", ckpt, "--embeddings", emb,
                                            "--data", test]))
    texts = (inputs / "texts.txt").read_text(encoding="utf-8").splitlines()
    for text in texts:
        steps.append(Step("attend", "attention", [
            "attend", "--ckpt", str(out / "attention.ckpt"), "--embeddings", emb,
            "--text", text], repeat=False))
    return steps


def train_docs(counts: dict, workload: Workload) -> int:
    """Documents `fit` trains on per epoch: the train split minus validation.

    Mirrors the stratified split in `halattn.train.split`.
    """
    per_class = counts["train" if workload.n_train else "embed"]
    vf = workload.config.val_fraction
    return sum(c - int(round(c * vf)) for c in per_class)


if __name__ == "__main__":
    # python3 workloads.py NAME SEED ROOT REPS, with src/ and tests/ on PYTHONPATH
    name, seed, root, reps = sys.argv[1:]
    print(json.dumps(timed_setup(name, int(seed), root, int(reps))))
