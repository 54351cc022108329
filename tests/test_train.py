from dataclasses import replace

import numpy as np
import pytest

import halattn.train
from synthetic import encoded_set, make_cluster_dataset
from halattn.corpus import Vocabulary
from halattn.linalg import EmbeddingTable
from halattn.model import DivergenceError, ModelParams, init_params
from halattn.train import (
    Checkpoint,
    TrainConfig,
    TrainError,
    config_text,
    evaluate,
    fit,
    inspect_attention,
    parse_config,
    split,
)


def tiny_set(labels, ids, seq_len=4):
    """One document per label, each holding `ids`."""
    return encoded_set([ids] * len(labels), labels, seq_len)


def diverge_in_epoch_two():
    """A loss_and_grad that raises DivergenceError from the second epoch on.

    `fit` draws each epoch's dropout noise from a fresh generator, so a new
    generator marks a new epoch.
    """
    real = halattn.train.loss_and_grad
    seen = []

    def wrapped(batch, embeddings, params, pooling, weight_decay, noise, **hyper):
        if not seen:
            seen.append(noise)
        if noise is not seen[0]:
            raise DivergenceError("loss is non-finite")
        return real(batch, embeddings, params, pooling, weight_decay, noise, **hyper)

    return wrapped


def cluster_config(**overrides):
    base = dict(
        window=2, embed_dim=8, seq_len=12, vocab_cap=40, temperature=2.0,
        attn_dim=8, hidden=16, dropout_p=0.1, learning_rate=3e-3, weight_decay=1e-4,
        batch_size=16, patience=5, max_epochs=20, val_fraction=0.2, seed=3,
        pooling="mean",
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_are_experiment_protocol(self):
        cfg = TrainConfig()
        assert (cfg.window, cfg.embed_dim, cfg.seq_len, cfg.vocab_cap) == (5, 300, 200, 10000)
        assert (cfg.temperature, cfg.dropout_p) == (2.0, 0.6)
        assert (cfg.learning_rate, cfg.weight_decay) == (5e-4, 1e-4)
        assert (cfg.batch_size, cfg.patience) == (64, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"val_fraction": 0.0},
            {"val_fraction": 1.0},
            {"temperature": 0.0},
            {"dropout_p": 1.0},
            {"pooling": "max"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(TrainError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [("learning_rate", -1.0), ("learning_rate", 0.0), ("learning_rate", float("inf")),
         ("learning_rate", float("nan")), ("weight_decay", -5.0), ("weight_decay", float("inf")),
         ("weight_decay", float("nan")), ("temperature", float("nan")),
         ("temperature", float("inf")), ("temperature", -2.0)],
    )
    def test_non_finite_or_out_of_range_step_sizes_rejected(self, name, value):
        with pytest.raises(TrainError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    def test_zero_weight_decay_accepted(self):
        assert TrainConfig(weight_decay=0.0).weight_decay == 0.0


class TestConfigText:
    @pytest.mark.parametrize("cfg", [TrainConfig(), cluster_config(learning_rate=0.1 + 0.2)])
    def test_round_trip_is_exact(self, cfg):
        assert TrainConfig(**parse_config(config_text(cfg), "cfg")) == cfg

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nseed = 4  # trailing\npooling = mean\n"
        assert parse_config(text, "cfg") == {"seed": 4, "pooling": "mean"}

    @pytest.mark.parametrize(
        "text, message",
        [("seed 4", r"cfg:1: expected 'key = value'"),
         ("\nwarp = 9", r"cfg:2: unknown config key 'warp'"),
         ("seed = 4.5", r"cfg:1: cannot parse '4.5' as int")],
        ids=["no-equals", "unknown-key", "bad-int"],
    )
    def test_errors_name_source_and_line(self, text, message):
        with pytest.raises(TrainError, match=message):
            parse_config(text, "cfg")


class TestSplit:
    def _balanced(self, n):
        return tiny_set([i % 2 for i in range(n)], [0])

    def test_stratified_counts(self):
        train, val = split(self._balanced(10), 0.2, seed=0)
        assert len(train) == 8 and len(val) == 2
        assert sorted(d.label for d in val) == [0, 1]
        assert sorted(d.label for d in train) == [0] * 4 + [1] * 4

    def test_deterministic(self):
        docs = self._balanced(20)
        first = split(docs, 0.25, seed=9)
        second = split(docs, 0.25, seed=9)
        for a, b in zip(first, second):
            assert np.array_equal(a.ids, b.ids) and np.array_equal(a.labels, b.labels)

    def test_large_arithmetic(self):
        train, val = split(self._balanced(25000), 0.1, seed=1)
        assert len(train) == 22500 and len(val) == 2500

    def test_empty_side_rejected(self):
        with pytest.raises(TrainError):
            split(self._balanced(4), 0.1, seed=0)  # rounds to zero per class

    def test_too_few_per_class_rejected(self):
        docs = tiny_set([0, 0, 1], [0])
        with pytest.raises(TrainError):
            split(docs, 0.5, seed=0)


class TestFit:
    def test_separable_clusters_reach_perfect_validation(self):
        docs, table = make_cluster_dataset(seed=0)
        cfg = cluster_config()
        train, val = split(docs, cfg.val_fraction, cfg.seed)
        ckpt, records = fit(train, val, table, cfg)
        assert ckpt.best_val_acc == 1.0
        assert records[0].epoch == 1
        assert len(records) <= 20

    def test_deterministic_replay(self):
        docs, table = make_cluster_dataset(seed=1)
        cfg = cluster_config(pooling="attention", max_epochs=6, patience=6)
        train, val = split(docs, cfg.val_fraction, cfg.seed)
        first_ckpt, first = fit(train, val, table, cfg)
        second_ckpt, second = fit(train, val, table, cfg)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert (a.epoch, a.train_loss, a.train_acc, a.val_acc) == (
                b.epoch, b.train_loss, b.train_acc, b.val_acc,
            )
        for name, arr in first_ckpt.params.tensors().items():
            assert np.array_equal(arr, second_ckpt.params.tensors()[name])

    def test_early_stopping_soundness(self):
        docs, table = make_cluster_dataset(seed=2)
        cfg = cluster_config(patience=3, max_epochs=30)
        train, val = split(docs, cfg.val_fraction, cfg.seed)
        ckpt, records = fit(train, val, table, cfg)
        assert ckpt.best_val_acc == max(r.val_acc for r in records)
        assert records[ckpt.best_epoch - 1].val_acc == ckpt.best_val_acc
        # strict-improvement bookkeeping: the loop runs exactly patience
        # epochs past the best one unless the cap interferes
        if len(records) < cfg.max_epochs:
            assert len(records) == ckpt.best_epoch + cfg.patience

    def test_divergence_names_epoch_and_batch(self):
        docs, table = make_cluster_dataset(seed=3)
        table.vectors[0, 0] = np.inf
        cfg = cluster_config(max_epochs=2)
        train, val = split(docs, cfg.val_fraction, cfg.seed)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 1"):
            fit(train, val, table, cfg)

    def test_divergence_carries_best_checkpoint(self, monkeypatch):
        docs, table = make_cluster_dataset(seed=3)
        cfg = cluster_config(pooling="attention", max_epochs=3, patience=3)
        train, val = split(docs, cfg.val_fraction, cfg.seed)
        one_epoch, _ = fit(train, val, table, replace(cfg, max_epochs=1))
        monkeypatch.setattr(halattn.train, "loss_and_grad", diverge_in_epoch_two())
        with pytest.raises(DivergenceError, match="epoch 2, batch 0") as caught:
            fit(train, val, table, cfg)
        best, records = caught.value.best, caught.value.records
        assert best.best_epoch == 1 and [r.epoch for r in records] == [1]
        for name, arr in one_epoch.params.tensors().items():
            assert np.array_equal(best.params.tensors()[name], arr), name

    def test_pooling_variants_share_initialization_and_split(self):
        cfg_mean = cluster_config(pooling="mean")
        cfg_attn = cluster_config(pooling="attention")
        a = init_params(cfg_mean)
        b = init_params(cfg_attn)
        for name, arr in a.tensors().items():
            assert np.array_equal(arr, b.tensors()[name])
        docs, _ = make_cluster_dataset(seed=4)
        split_a = split(docs, cfg_mean.val_fraction, cfg_mean.seed)
        split_b = split(docs, cfg_attn.val_fraction, cfg_attn.seed)
        assert np.array_equal(split_a[0].ids, split_b[0].ids)
        assert np.array_equal(split_a[0].labels, split_b[0].labels)

    def test_test_series_recorded_but_not_selected_on(self):
        docs, table = make_cluster_dataset(seed=5)
        cfg = cluster_config(max_epochs=4, patience=4)
        train, val = split(docs, cfg.val_fraction, cfg.seed)
        test = docs[:30]
        ckpt, records = fit(train, val, table, cfg, test_set=test)
        assert all(r.test_acc is not None for r in records)
        no_test_ckpt, no_test_records = fit(train, val, table, cfg)
        assert ckpt.best_epoch == no_test_ckpt.best_epoch
        for a, b in zip(records, no_test_records):
            assert a.val_acc == b.val_acc

    def test_embedding_dim_mismatch_rejected(self):
        docs, table = make_cluster_dataset(seed=6)
        cfg = cluster_config(embed_dim=9)
        train, val = split(docs, cfg.val_fraction, cfg.seed)
        with pytest.raises(TrainError):
            fit(train, val, table, cfg)

    @pytest.mark.parametrize("pooling", ["mean", "attention"])
    def test_sign_flip_of_one_dimension_is_exact(self, pooling, monkeypatch):
        """Negating embedding column j and the matching columns of w_a and w_c at
        init trains to the same model with those columns negated, bit for bit."""
        docs, table = make_cluster_dataset(seed=7)
        cfg = cluster_config(pooling=pooling, dropout_p=0.6, max_epochs=4, patience=4)
        train, val = split(docs, cfg.val_fraction, cfg.seed)
        base, base_records = fit(train, val, table, cfg)

        j = 2
        flipped = table.vectors.copy()
        flipped[:, j] *= -1
        real_init = halattn.train.init_params

        def flipped_init(config):
            params = real_init(config)
            params.w_a[:, j] *= -1
            params.w_c[:, j] *= -1
            return params

        monkeypatch.setattr(halattn.train, "init_params", flipped_init)
        ckpt, records = fit(train, val, EmbeddingTable(vectors=flipped), cfg)
        ckpt.params.w_a[:, j] *= -1
        ckpt.params.w_c[:, j] *= -1
        for name, arr in base.params.tensors().items():
            assert np.array_equal(ckpt.params.tensors()[name], arr), name
        assert [r.train_loss for r in records] == [r.train_loss for r in base_records]


def constant_checkpoint(b_o=(0.0, 0.0), seq_len=4, embed_dim=3, pooling="mean"):
    """Checkpoint whose logits are exactly b_o for every input."""
    cfg = TrainConfig(
        window=2, embed_dim=embed_dim, seq_len=seq_len, vocab_cap=10,
        temperature=2.0, attn_dim=2, hidden=3, dropout_p=0.0,
        learning_rate=1e-3, weight_decay=0.0, batch_size=4, patience=2,
        max_epochs=5, val_fraction=0.25, seed=0, pooling=pooling,
    )
    params = ModelParams(
        w_a=np.zeros((2, embed_dim)), b_a=np.zeros(2), v_a=np.zeros(2),
        w_c=np.zeros((3, embed_dim)), b_c=np.zeros(3), ln_gain=np.ones(3),
        ln_shift=np.zeros(3), w_o=np.zeros((2, 3)), b_o=np.array(b_o),
    )
    return Checkpoint(
        config=cfg, params=params, best_epoch=1, best_val_acc=0.5,
    )


class TestEvaluate:
    def _table(self):
        return EmbeddingTable(vectors=np.ones((10, 3), dtype=np.float32))

    def test_single_correct_document(self):
        ckpt = constant_checkpoint(b_o=(0.0, 1.0))  # always predicts positive
        acc = evaluate(ckpt, tiny_set([1], [2, 3]), self._table())
        assert acc == 1.0

    def test_constant_logits_on_balanced_set(self):
        ckpt = constant_checkpoint()
        docs = tiny_set([i % 2 for i in range(40)], [1])
        assert evaluate(ckpt, docs, self._table()) == 0.5

    def test_purity(self):
        ckpt = constant_checkpoint(b_o=(0.2, 0.1))
        docs = tiny_set([i % 2 for i in range(10)], [1, 2])
        before = {name: arr.copy() for name, arr in ckpt.params.tensors().items()}
        first = evaluate(ckpt, docs, self._table())
        second = evaluate(ckpt, docs, self._table())
        assert first == second
        for name, arr in ckpt.params.tensors().items():
            assert np.array_equal(arr, before[name])

    def test_dimension_mismatch(self):
        ckpt = constant_checkpoint()
        table = EmbeddingTable(vectors=np.ones((10, 7), dtype=np.float32))
        with pytest.raises(TrainError):
            evaluate(ckpt, tiny_set([0], [1]), table)

    def test_empty_dataset(self):
        with pytest.raises(TrainError):
            evaluate(constant_checkpoint(), tiny_set([], [1]), self._table())


class TestInspectAttention:
    def _setup(self, rng):
        vocab = Vocabulary.from_tokens(["alpha", "beta", "gamma"])
        table = EmbeddingTable(vectors=rng.standard_normal((3, 3)).astype(np.float32))
        ckpt = constant_checkpoint(pooling="attention")
        ckpt.params.w_a[...] = rng.standard_normal((2, 3))
        ckpt.params.v_a[...] = rng.standard_normal(2)
        return vocab, table, ckpt

    def test_single_token_gets_full_weight(self, rng):
        vocab, table, ckpt = self._setup(rng)
        report = inspect_attention(ckpt, table, vocab, "alpha")
        assert report.tokens == [("alpha", 1.0)]
        assert report.probs.shape == (2,)
        assert report.predicted in (0, 1)

    def test_zero_projection_gives_uniform_weights(self, rng):
        vocab, table, ckpt = self._setup(rng)
        ckpt.params.v_a[...] = np.zeros(2)
        report = inspect_attention(ckpt, table, vocab, "alpha beta gamma")
        weights = [w for _, w in report.tokens]
        np.testing.assert_allclose(weights, [1.0 / 3.0] * 3, atol=1e-15)

    def test_tokens_in_position_order_with_oov_dropped(self, rng):
        vocab, table, ckpt = self._setup(rng)
        report = inspect_attention(ckpt, table, vocab, "Beta zzz ALPHA?")
        assert [tok for tok, _ in report.tokens] == ["beta", "alpha"]
        assert abs(sum(w for _, w in report.tokens) - 1.0) < 1e-6

    def test_dimension_mismatch(self, rng):
        vocab, _, ckpt = self._setup(rng)
        wide = EmbeddingTable(vectors=rng.standard_normal((3, 4)).astype(np.float32))
        with pytest.raises(TrainError, match="embedding dim 4 does not match config embed_dim 3"):
            inspect_attention(ckpt, wide, vocab, "alpha")

    def test_mean_checkpoint_rejected(self, rng):
        vocab, table, _ = self._setup(rng)
        with pytest.raises(TrainError):
            inspect_attention(constant_checkpoint(pooling="mean"), table, vocab, "alpha")

    def test_no_invocab_tokens_rejected(self, rng):
        vocab, table, ckpt = self._setup(rng)
        from halattn.corpus import CorpusError

        with pytest.raises(CorpusError):
            inspect_attention(ckpt, table, vocab, "zzz qqq")
