"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The three full-scale
criteria need HALATTN_IMDB pointing at an aclImdb directory (train/ and
test/, each with pos/ and neg/) and take a few hours of CPU; everything
else is desk-scale and finishes in well under two minutes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import as_scipy, imdb_root, one_block, requires_imdb
from synthetic import DESK_CONFIG, encoded_set, make_desk_corpus, split_desk_corpus
from test_gradients import max_gradient_error
from test_model import params_with, scored_sequence

from halattn import store
from halattn.cooc import build_cooc, concat_pair
from halattn.corpus import Vocabulary, build_vocab, encode_corpus, load_labeled_dir
from halattn.linalg import EmbeddingTable, embed, truncated_svd
from halattn.model import pool_sequence
from halattn.train import TrainConfig, evaluate, fit, inspect_attention, split


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# Full-scale pipeline (criteria 1, 2, 9), gated on dataset availability
# ---------------------------------------------------------------------------

_FULL_CONFIG = TrainConfig()  # experiment-protocol defaults
_MIXED_SENTENCE = (
    "the cinematography was brilliant but the acting was completely awful "
    "and ruined the experience"
)


@pytest.fixture(scope="module")
def imdb_run():
    root = imdb_root()
    assert root is not None
    from pathlib import Path

    root = Path(root)
    train_docs = load_labeled_dir(root / "train")
    test_docs = load_labeled_dir(root / "test")
    assert len(train_docs) == 25000, "expected the 25k/25k dataset layout"
    assert len(test_docs) == 25000

    vocab = build_vocab(train_docs, _FULL_CONFIG.vocab_cap)
    assert vocab.size == 10000

    enc_train, _ = encode_corpus(train_docs, vocab, _FULL_CONFIG.seq_len, skip_empty=True)
    enc_test, _ = encode_corpus(test_docs, vocab, _FULL_CONFIG.seq_len, skip_empty=True)
    pair = build_cooc(enc_train, vocab.size, _FULL_CONFIG.window)
    svd = truncated_svd(
        concat_pair(pair), _FULL_CONFIG.embed_dim, oversample=10, power_iters=2, seed=0
    )
    table = embed(svd)
    assert table.vectors.shape == (10000, 300)

    train_set, val_set = split(enc_train, _FULL_CONFIG.val_fraction, _FULL_CONFIG.seed)
    results = {}
    for pooling in ("mean", "attention"):
        ckpt, records = fit(
            train_set, val_set, table, replace(_FULL_CONFIG, pooling=pooling),
            test_set=enc_test,
        )
        results[pooling] = {
            "ckpt": ckpt,
            "first_test": records[0].test_acc,
            "peak_test": max(r.test_acc for r in records),
        }
    return {"results": results, "table": table, "vocab": vocab}


@requires_imdb
def test_criterion_1_table_reproduction(imdb_run):
    mean_peak = imdb_run["results"]["mean"]["peak_test"]
    attn_peak = imdb_run["results"]["attention"]["peak_test"]
    ok = (
        0.730 <= mean_peak <= 0.780
        and 0.795 <= attn_peak <= 0.845
        and attn_peak - mean_peak >= 0.040
    )
    report(
        1,
        "full-scale peak accuracy bands and gap",
        ok,
        f"mean={mean_peak:.4f}, attention={attn_peak:.4f}",
    )


@requires_imdb
def test_criterion_2_first_epoch_separation(imdb_run):
    mean_first = imdb_run["results"]["mean"]["first_test"]
    attn_first = imdb_run["results"]["attention"]["first_test"]
    report(
        2,
        "first-epoch test accuracy separation >= 8 points",
        attn_first - mean_first >= 0.08,
        f"mean={mean_first:.4f}, attention={attn_first:.4f}",
    )


@requires_imdb
def test_criterion_9_mixed_sentence_attention(imdb_run):
    ckpt = imdb_run["results"]["attention"]["ckpt"]
    rep = inspect_attention(ckpt, imdb_run["table"], imdb_run["vocab"], _MIXED_SENTENCE)
    content = {"brilliant", "awful", "completely", "ruined"}
    structural = {"the", "was", "and", "but"}
    content_mass = sum(w for tok, w in rep.tokens if tok in content)
    structural_mass = sum(w for tok, w in rep.tokens if tok in structural)
    ok = content_mass > structural_mass and rep.predicted == 0
    report(
        9,
        "mixed-sentence content words outweigh structural words, prediction negative",
        ok,
        f"content={content_mass:.4f}, structural={structural_mass:.4f}, "
        f"predicted={rep.predicted}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: desk-scale A/B through the complete pipeline
# ---------------------------------------------------------------------------


def test_criterion_3_desk_scale_ab():
    started = time.perf_counter()
    docs = make_desk_corpus(2000, seed=7)
    train_docs, test_docs = split_desk_corpus(docs, n_train=1200)
    cfg = DESK_CONFIG
    vocab = build_vocab(train_docs, cfg.vocab_cap)
    enc_train, _ = encode_corpus(train_docs, vocab, cfg.seq_len, skip_empty=True)
    enc_test, _ = encode_corpus(test_docs, vocab, cfg.seq_len, skip_empty=True)
    pair = build_cooc(enc_train, vocab.size, cfg.window)
    table = embed(truncated_svd(concat_pair(pair), cfg.embed_dim,
                                oversample=10, power_iters=2, seed=5))
    train_set, val_set = split(enc_train, cfg.val_fraction, cfg.seed)
    accuracy = {}
    for pooling in ("mean", "attention"):
        ckpt, _ = fit(train_set, val_set, table, replace(cfg, pooling=pooling))
        accuracy[pooling] = evaluate(ckpt, enc_test, table)
    elapsed = time.perf_counter() - started
    ok = (
        accuracy["attention"] >= accuracy["mean"] + 0.020
        and accuracy["mean"] >= 0.70
        and accuracy["attention"] >= 0.70
        and elapsed <= 120.0
    )
    report(
        3,
        "desk-scale attention beats mean by >= 2 points, both >= 70%",
        ok,
        f"mean={accuracy['mean']:.4f}, attention={accuracy['attention']:.4f}, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: gradient oracle
# ---------------------------------------------------------------------------


def test_criterion_4_gradient_oracle():
    worst = 0.0
    for seed in range(20):
        pooling = "attention" if seed % 2 == 0 else "mean"
        worst = max(worst, max_gradient_error(seed, pooling))
    report(
        4,
        "analytic gradients match central differences within 1e-4",
        worst < 1e-4,
        f"max relative error {worst:.2e} over 20 seeds",
    )


# ---------------------------------------------------------------------------
# Criterion 5: temperature limit and zero-projection equality
# ---------------------------------------------------------------------------


def test_criterion_5_temperature_limit():
    rng = np.random.default_rng(17)
    seq_len, k, d_a = 10, 6, 4
    worst = 0.0
    exact = True
    for _ in range(100):
        m = int(rng.integers(1, seq_len + 1))
        mask = np.arange(seq_len) < m
        x = rng.uniform(-1.0, 1.0, (seq_len, k))
        params = params_with(
            k, d_a,
            w_a=rng.uniform(-0.5, 0.5, (d_a, k)),
            b_a=rng.uniform(-0.5, 0.5, d_a),
            v_a=rng.uniform(-0.05, 0.05, d_a),
        )
        s_mean, _ = pool_sequence(x, mask, params, "mean", temperature=1e6)
        s_attn, _ = pool_sequence(x, mask, params, "attention", temperature=1e6)
        worst = max(worst, float(np.abs(s_attn - s_mean).max()))
        params.v_a[...] = np.zeros(d_a)
        s_zero, _ = pool_sequence(x, mask, params, "attention", temperature=1e6)
        exact = exact and np.array_equal(s_zero, s_mean)
    report(
        5,
        "tau -> infinity recovers mean pooling; v_a = 0 is exactly mean pooling",
        worst < 1e-6 and exact,
        f"max deviation {worst:.2e} at tau=1e6, exact={exact}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: randomized SVD against a dense full-SVD oracle
# ---------------------------------------------------------------------------


def test_criterion_6_svd_oracle():
    rng = np.random.default_rng(42)
    worst_sigma = 0.0
    worst_frob = 0.0
    worst_ortho = 0.0
    for trial in range(20):
        m = int(rng.integers(30, 101))
        n = int(rng.integers(30, 101))
        k = int(rng.integers(2, 16))
        r = min(m, n)
        u, _ = np.linalg.qr(rng.standard_normal((m, r)))
        v, _ = np.linalg.qr(rng.standard_normal((n, r)))
        spectrum = 10.0 * 0.7 ** np.arange(r) + 1e-3  # decaying, full rank
        dense = (u * spectrum) @ v.T
        oversample = min(10, r - k)
        result = truncated_svd(
            one_block(sp.csr_matrix(dense)), k,
            oversample=oversample, power_iters=2, seed=trial,
        )
        oracle = np.linalg.svd(dense, compute_uv=False)
        rel = np.abs(result.singular_values - oracle[:k]) / oracle[:k]
        worst_sigma = max(worst_sigma, float(rel.max()))
        recon = (result.u * result.singular_values) @ result.vt
        optimal = float(np.sqrt((oracle[k:] ** 2).sum()))
        worst_frob = max(worst_frob, float(np.linalg.norm(dense - recon)) / optimal)
        for gram in (result.u.T @ result.u, result.vt @ result.vt.T):
            worst_ortho = max(
                worst_ortho, float(np.abs(gram - np.eye(k)).max())
            )
    ok = worst_sigma < 1e-6 and worst_frob <= 1.05 and worst_ortho < 1e-8
    report(
        6,
        "randomized SVD matches dense oracle on 20 matrices",
        ok,
        f"sigma err {worst_sigma:.2e}, frobenius ratio {worst_frob:.4f}, "
        f"orthonormality {worst_ortho:.2e}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: co-occurrence correctness
# ---------------------------------------------------------------------------


def _random_corpus(rng):
    id_lists, seq_len = [], 1
    for _ in range(int(rng.integers(1, 10))):
        m = int(rng.integers(1, 25))
        seq_len = max(seq_len, m + int(rng.integers(0, 4)))
        id_lists.append(rng.integers(0, 10, m))
    return encoded_set(id_lists, seq_len=seq_len)


def test_criterion_7_hal_correctness():
    pair = build_cooc(encoded_set([[0, 1, 2]]), 3, 2)
    expected_left = np.zeros((3, 3))
    expected_left[1, 0] = 1.0
    expected_left[2, 1] = 1.0
    expected_left[2, 0] = 0.5
    toy_ok = np.array_equal(as_scipy(pair.left).toarray(), expected_left) and np.array_equal(
        as_scipy(pair.left).T.toarray(), expected_left.T
    )

    rng = np.random.default_rng(9)
    transpose_ok = True
    for _ in range(50):
        window = int(rng.integers(1, 7))
        random_pair = build_cooc(_random_corpus(rng), 10, window)
        transpose_ok = transpose_ok and np.array_equal(
            as_scipy(random_pair.left).T.toarray(), as_scipy(random_pair.left).toarray().T
        )
    report(
        7,
        "toy corpus matches hand enumeration; R = L^T bitwise on 50 corpora",
        toy_ok and transpose_ok,
    )


# ---------------------------------------------------------------------------
# Criterion 8: attention weight normalization
# ---------------------------------------------------------------------------


def test_criterion_8_attention_normalization():
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        x, params = scored_sequence(rng.standard_normal(n) * 4.0)  # scores exactly these
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[int(rng.integers(n))] = True
        argmaxes = set()
        for tau in (0.5, 1.0, 2.0, 10.0):
            _, alphas = pool_sequence(x, mask, params, "attention", temperature=tau)
            ok = ok and abs(alphas.sum() - 1.0) < 1e-6
            ok = ok and np.all(alphas[~mask] == 0.0)
            argmaxes.add(int(np.argmax(alphas)))
        ok = ok and len(argmaxes) == 1
    report(
        8,
        "weights normalize, padding stays at exactly zero, argmax is tau-invariant",
        ok,
    )


# ---------------------------------------------------------------------------
# Criterion 10: persistence round trips and corruption detection
# ---------------------------------------------------------------------------


def test_criterion_10_persistence(tmp_path):
    from synthetic import make_cluster_dataset
    from halattn.train import EpochRecord

    rng = np.random.default_rng(3)
    vocab = Vocabulary.from_tokens(["alpha", "beta", "gamma", "delta"])
    table = EmbeddingTable(vectors=rng.standard_normal((4, 3)).astype(np.float32))
    docs = encoded_set([rng.integers(0, 4, rng.integers(2, 7)) for _ in range(5)], seq_len=8)
    pair = build_cooc(docs, 4, 3)

    cluster_docs, cluster_table = make_cluster_dataset(n_docs=40, seed=2)
    cfg = TrainConfig(
        window=2, embed_dim=8, seq_len=12, vocab_cap=40, temperature=2.0,
        attn_dim=4, hidden=6, dropout_p=0.25, learning_rate=3e-3, weight_decay=1e-4,
        batch_size=8, patience=2, max_epochs=2, val_fraction=0.25, seed=4,
        pooling="attention",
    )
    tr, va = split(cluster_docs, cfg.val_fraction, cfg.seed)
    ckpt, _ = fit(tr, va, cluster_table, cfg)
    records = [EpochRecord(1, 0.69, 0.51, 0.5, None, 0.4),
               EpochRecord(2, 0.42, 0.83, 0.81, 0.795, 0.41)]

    vocab_path = tmp_path / "vocab.txt"
    cooc_path = tmp_path / "pair.cooc"
    emb_path = tmp_path / "emb.bin"
    ckpt_path = tmp_path / "model.ckpt"
    metrics_path = tmp_path / "metrics.csv"
    store.save_vocab(vocab, vocab_path)
    store.save_cooc(pair, vocab, cooc_path)
    store.save_embeddings(table, vocab, emb_path)
    store.save_checkpoint(ckpt, ckpt_path)
    store.save_metrics(records, metrics_path)

    ok = store.load_vocab(vocab_path).tokens == vocab.tokens
    loaded_pair, _ = store.load_cooc(cooc_path)
    ok = ok and np.array_equal(loaded_pair.left.values, pair.left.values)
    ok = ok and np.array_equal(as_scipy(loaded_pair.left).T.tocsr().indices,
                               as_scipy(pair.left).T.tocsr().indices)
    loaded_table, loaded_vocab = store.load_embeddings(emb_path)
    ok = ok and np.array_equal(loaded_table.vectors, table.vectors)
    ok = ok and loaded_vocab.tokens == vocab.tokens
    loaded_ckpt = store.load_checkpoint(ckpt_path)
    for name, arr in ckpt.params.tensors().items():
        ok = ok and np.array_equal(loaded_ckpt.params.tensors()[name], arr)
    ok = ok and store.load_metrics(metrics_path) == records

    loaders = {
        vocab_path: store.load_vocab,
        cooc_path: store.load_cooc,
        emb_path: store.load_embeddings,
        ckpt_path: store.load_checkpoint,
        metrics_path: store.load_metrics,
    }
    detected = True
    for path, loader in loaders.items():
        original = path.read_bytes()
        for pos in range(len(original)):
            corrupted = bytearray(original)
            corrupted[pos] ^= 0x01
            path.write_bytes(bytes(corrupted))
            try:
                loader(path)
                detected = False
                break
            except store.StoreError:
                pass
        path.write_bytes(original)
        if not detected:
            break
    report(
        10,
        "five artifact kinds round-trip bit-exact; every single-byte flip detected",
        ok and detected,
    )
