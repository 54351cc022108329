import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from halattn.linalg import EmbeddingTable
from halattn.model import (
    AdamState,
    DivergenceError,
    ModelError,
    ModelParams,
    _gather_batch,
    _head_backward,
    _head_forward,
    _pool,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    adam_step,
    init_params,
    loss_and_grad,
    param_shapes,
    pool_batch,
    pool_sequence,
    predict_logits,
)
from halattn.train import TrainConfig, TrainError
from synthetic import encoded_set


class Cfg:
    embed_dim = 4
    attn_dim = 3
    hidden = 5
    seed = 0


def seeded(seed: int, cfg=Cfg):
    """cfg with another seed, the one init_params draws from."""
    return type(cfg.__name__, (cfg,), {"seed": seed})


def params_with(k=4, d_a=3, h=5, **tensors):
    """Zero tensors with unit LayerNorm gain, overridden by `tensors`.

    Its logits are exactly b_o for every input.
    """
    base = dict(
        w_a=np.zeros((d_a, k)), b_a=np.zeros(d_a), v_a=np.zeros(d_a),
        w_c=np.zeros((h, k)), b_c=np.zeros(h), ln_gain=np.ones(h), ln_shift=np.zeros(h),
        w_o=np.zeros((2, h)), b_o=np.zeros(2),
    )
    base.update(tensors)
    return ModelParams(**base)


def random_attention(rng, k=4, d_a=3):
    return params_with(
        k, d_a,
        w_a=rng.standard_normal((d_a, k)),
        b_a=rng.standard_normal(d_a),
        v_a=rng.standard_normal(d_a),
    )


def scored_sequence(scores, shift=0.0, y=None):
    """A sequence and params whose attention scores are exactly scores + shift.

    Token t is [one-hot_t, y_t]. w_a reads only the one-hot part, scaled so
    that tanh rounds to exactly 1.0 (tanh(0) is exactly 0.0), and one
    always-on unit adds `shift`. So e_t = scores[t] + shift, with no other
    rounding.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    x = np.hstack([np.eye(n), np.zeros((n, 0)) if y is None else y])
    w_a = np.zeros((n + 1, x.shape[1]))
    w_a[np.arange(n), np.arange(n)] = 40.0
    b_a = np.zeros(n + 1)
    b_a[n] = 40.0
    params = params_with(x.shape[1], n + 1, w_a=w_a, b_a=b_a, v_a=np.append(scores, shift))
    return x, params


def weights_for(scores, mask, temperature, shift=0.0):
    """Attention weights that pool_sequence gives for these exact scores."""
    x, params = scored_sequence(scores, shift)
    return pool_sequence(x, mask, params, "attention", temperature=temperature)[1]


def mean_pool(x, mask):
    return pool_sequence(x, mask, params_with(x.shape[1]), "mean", temperature=2.0)[0]


def one_token_batch(vector):
    """A one-document batch whose pooled vector is exactly `vector`."""
    table = EmbeddingTable(vectors=np.array([vector], dtype=np.float32))
    return encoded_set([[0]], seq_len=2), table


def loop_scores(x, mask, params):
    """Per-token oracle for the additive scoring network."""
    out = np.full(x.shape[0], -np.inf)
    for t in range(x.shape[0]):
        if mask[t]:
            out[t] = params.v_a @ np.tanh(params.w_a @ x[t] + params.b_a)
    return out


class TestAttentionScores:
    def test_zero_projection(self, rng):
        # v_a = 0 scores every real token 0: weights exactly 1/m, 0 at padding
        params = random_attention(rng)
        params.v_a[...] = np.zeros(3)
        x = rng.standard_normal((5, 4))
        mask = np.array([True] * 4 + [False])
        _, alphas = pool_sequence(x, mask, params, "attention", temperature=2.0)
        assert np.all(alphas[:4] == 0.25)
        assert alphas[4] == 0.0

    def test_scalar_closed_form(self):
        params = params_with(1, 1, w_a=np.array([[1.0]]), v_a=np.ones(1))
        x = np.array([[0.5], [0.0]])  # scores tanh(0.5) and tanh(0) = 0
        _, alphas = pool_sequence(x, np.ones(2, bool), params, "attention", temperature=1.0)
        assert np.log(alphas[0] / alphas[1]) == pytest.approx(np.tanh(0.5), abs=1e-12)
        assert np.log(alphas[0] / alphas[1]) == pytest.approx(0.462117, abs=1e-6)

    def test_matches_loop_oracle(self, rng):
        params = random_attention(rng)
        x = rng.standard_normal((4, 4))
        mask = np.array([True, False, True, True])
        e = loop_scores(x, mask, params)
        expected = np.exp((e - e.max()) / 2.0)
        expected /= expected.sum()
        _, alphas = pool_sequence(x, mask, params, "attention", temperature=2.0)
        np.testing.assert_allclose(alphas, expected, atol=1e-12)


class TestAttentionWeights:
    def test_symmetry(self):
        alphas = weights_for(np.zeros(2), np.ones(2, bool), 2.0)
        assert alphas.tolist() == [0.5, 0.5]

    def test_closed_form_two_to_one(self):
        e = np.array([2.0 * np.log(2.0), 0.0])
        alphas = weights_for(e, np.ones(2, bool), 2.0)
        np.testing.assert_allclose(alphas, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_masked_hand_softmax(self):
        e = np.array([5.0, 1.0, 3.0])
        mask = np.array([True, False, True])
        alphas = weights_for(e, mask, 1.0)
        denom = np.exp(5.0) + np.exp(3.0)
        np.testing.assert_allclose(
            alphas, [np.exp(5.0) / denom, 0.0, np.exp(3.0) / denom], atol=1e-12
        )
        np.testing.assert_allclose(alphas, [0.8808, 0.0, 0.1192], atol=1e-4)
        assert alphas[1] == 0.0

    def test_all_masked_rejected(self, rng):
        x, params = scored_sequence(np.zeros(3))
        batch = encoded_set([[1, 2], []], seq_len=3)  # the second is all padding
        table = EmbeddingTable(vectors=rng.standard_normal((4, 4)).astype(np.float32))
        for pooling in ("attention", "mean"):
            with pytest.raises(ModelError, match="fully masked"):
                pool_sequence(x, np.zeros(3, bool), params, pooling, temperature=1.0)
            with pytest.raises(ModelError, match="fully masked"):
                predict_logits(batch, table, params_with(), pooling, temperature=1.0)

    def test_invalid_temperature(self):
        # the config is the one check on a temperature from outside
        with pytest.raises(TrainError):
            TrainConfig(temperature=0.0)
        with pytest.raises(TrainError):
            TrainConfig(temperature=-1.0)

    @given(
        st.lists(st.floats(-30, 30), min_size=1, max_size=12),
        st.integers(0, 2**30),
        st.sampled_from([0.5, 1.0, 2.0, 10.0]),
    )
    @settings(max_examples=150)
    def test_normalization_properties(self, scores, mask_bits, tau):
        e = np.array(scores)
        mask = np.array([(mask_bits >> i) & 1 == 1 for i in range(len(scores))])
        if not mask.any():
            mask[0] = True
        alphas = weights_for(e, mask, tau)
        assert abs(alphas.sum() - 1.0) < 1e-6
        assert np.all(alphas[~mask] == 0.0)
        assert np.all((alphas >= 0.0) & (alphas <= 1.0))

    @given(
        st.lists(st.integers(-2048, 2048), min_size=2, max_size=10),
        st.integers(-2048, 2048),
    )
    @settings(max_examples=150)
    def test_shift_invariance_bitwise_on_exact_floats(self, score_units, shift_units):
        # dyadic grid (multiples of 1/64) keeps the additions exact, so
        # max-subtraction yields bitwise identical weights
        e = np.array(score_units, dtype=np.float64) / 64.0
        shift = shift_units / 64.0
        mask = np.ones(len(score_units), bool)
        mask[0] = True
        base = weights_for(e, mask, 2.0)
        shifted = weights_for(e, mask, 2.0, shift=shift)
        assert np.array_equal(base, shifted)

    def test_argmax_temperature_invariant(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            e = rng.standard_normal(n) * 5
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[0] = True
            argmaxes = {
                int(np.argmax(weights_for(e, mask, tau)))
                for tau in (0.5, 1.0, 2.0, 10.0)
            }
            assert len(argmaxes) == 1


class TestPooling:
    def test_one_hot_selects(self, rng):
        y = rng.standard_normal((5, 3))
        x, params = scored_sequence([0.0, 0.0, 1000.0, 0.0, 0.0], y=y)
        pooled, alphas = pool_sequence(x, np.ones(5, bool), params, "attention", temperature=1.0)
        assert alphas.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]  # exp(-1000) is an exact 0
        assert np.array_equal(pooled[5:], y[2])

    def test_uniform_reduces_to_mean(self, rng):
        params = random_attention(rng, k=3)
        params.v_a[...] = np.zeros(3)
        x = rng.standard_normal((4, 3))
        mask = np.array([True, True, True, False])
        pooled, alphas = pool_sequence(x, mask, params, "attention", temperature=2.0)
        assert np.array_equal(alphas, mask / 3.0)
        np.testing.assert_allclose(pooled, x[:3].mean(axis=0), atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        params = random_attention(rng)
        x = rng.standard_normal((6, 4))
        pooled, alphas = pool_sequence(x, np.ones(6, bool), params, "attention", temperature=2.0)
        expected = sum(alphas[t] * x[t] for t in range(6))
        np.testing.assert_allclose(pooled, expected, atol=1e-12)

    def test_mean_single_token(self, rng):
        x = rng.standard_normal((4, 3))
        mask = np.array([True, False, False, False])
        assert np.array_equal(mean_pool(x, mask), x[0])

    def test_mean_two_basis_tokens(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(mean_pool(x, np.ones(2, bool)), [0.5, 0.5])

    def test_mean_ignores_padding(self, rng):
        x = rng.standard_normal((6, 4))
        mask = np.array([True, True, True, False, False, False])
        oracle = sum(x[t] for t in range(6) if mask[t]) / 3
        np.testing.assert_allclose(mean_pool(x, mask), oracle, atol=1e-12)
        x2 = x.copy()
        x2[3:] = 1e6  # pad rows must not matter
        np.testing.assert_allclose(mean_pool(x2, mask), mean_pool(x, mask), atol=0)

    def test_mean_empty_mask_rejected(self, rng):
        with pytest.raises(ModelError):
            mean_pool(rng.standard_normal((3, 2)), np.zeros(3, bool))

    def test_pool_sequence_weights_sum_to_one(self, rng):
        params = random_attention(rng)
        x = rng.standard_normal((6, 4))
        mask = np.array([True, True, False, True, False, False])
        for pooling in ("mean", "attention"):
            _, alphas = pool_sequence(x, mask, params, pooling, temperature=2.0)
            assert abs(alphas.sum() - 1.0) < 1e-6
            assert np.all(alphas[~mask] == 0.0)

    def test_temperature_limit_equals_mean(self, rng):
        for _ in range(20):
            params = params_with(
                w_a=rng.uniform(-0.5, 0.5, (3, 4)),
                b_a=rng.uniform(-0.5, 0.5, 3),
                v_a=rng.uniform(-0.05, 0.05, 3),
            )
            m = int(rng.integers(1, 7))
            mask = np.arange(6) < m
            x = rng.uniform(-1, 1, (6, 4))
            s_attn, _ = pool_sequence(x, mask, params, "attention", temperature=1e6)
            assert np.abs(s_attn - mean_pool(x, mask)).max() < 1e-6

    def test_zero_init_equals_mean_exactly(self, rng):
        for _ in range(20):
            params = random_attention(rng)
            params.v_a[...] = np.zeros(3)
            m = int(rng.integers(1, 7))
            mask = np.arange(6) < m
            x = rng.standard_normal((6, 4))
            s_attn, _ = pool_sequence(x, mask, params, "attention", temperature=2.0)
            assert np.array_equal(s_attn, mean_pool(x, mask))


class TestClassifierForward:
    def test_zero_output_weights_give_bias(self, rng):
        table = EmbeddingTable(vectors=rng.standard_normal((6, 3)).astype(np.float32))
        batch = encoded_set([rng.integers(0, 6, m) for m in (1, 3, 4)], seq_len=4)
        params = params_with(k=3, h=4, w_c=rng.standard_normal((4, 3)), b_o=np.array([0.3, -0.7]))
        logits = predict_logits(batch, table, params, "mean", temperature=2.0)
        np.testing.assert_allclose(logits, [[0.3, -0.7]] * 3, atol=0)

    def test_eval_deterministic(self, rng):
        batch, table = one_token_batch(rng.standard_normal(3))
        params = params_with(k=3, h=4, w_c=rng.standard_normal((4, 3)),
                             w_o=rng.standard_normal((2, 4)))
        first = predict_logits(batch, table, params, "mean", temperature=2.0)
        second = predict_logits(batch, table, params, "mean", temperature=2.0)
        assert np.array_equal(first, second)

    def test_two_point_layer_norm(self):
        # z = [1, 3]: mean 2, population variance 1 -> normalized [-1, 1]
        batch, table = one_token_batch([1.0, 3.0])
        params = params_with(k=2, h=2, w_c=np.eye(2), w_o=np.eye(2))
        logits = predict_logits(batch, table, params, "mean", temperature=2.0)
        np.testing.assert_allclose(logits, [[0.0, 1.0]], atol=1e-4)  # after ReLU
        params.ln_shift[...] = np.array([2.0, 2.0])  # lifts xhat clear of the ReLU
        logits = predict_logits(batch, table, params, "mean", temperature=2.0)
        np.testing.assert_allclose(logits - 2.0, [[-1.0, 1.0]], atol=1e-4)

    def test_train_mode_needs_noise(self, rng):
        batch, table = one_token_batch(rng.standard_normal(4))
        with pytest.raises(ModelError, match="noise generator"):
            loss_and_grad(batch, table, params_with(), "mean", 0.0, None,
                          temperature=2.0, dropout_p=0.5)

    def test_dropout_expectation_matches_eval(self, rng):
        h, k = 5, 3
        params = params_with(
            k, h=h,
            w_c=rng.standard_normal((h, k)),
            b_c=rng.standard_normal(h),
            ln_shift=0.3 * rng.standard_normal(h),
        )
        s = rng.standard_normal(k)
        _, eval_cache = _head_forward(s[None], params, 0.0, None)
        eval_hidden = eval_cache[-1][0]  # the cache ends with the hidden activations

        n = 100_000
        tiled = np.tile(s, (n, 1))
        _, cache = _head_forward(tiled, params, 0.6, np.random.default_rng(9))
        sampled = cache[-1].mean(axis=0)
        active = eval_hidden > 1e-3
        assert active.any()
        np.testing.assert_allclose(sampled[active], eval_hidden[active], rtol=0.02)
        np.testing.assert_allclose(sampled[~active], eval_hidden[~active], atol=1e-12)


NO_DROPOUT = dict(temperature=2.0, dropout_p=0.0)


class TestLossAndGrad:
    def _table(self, rng, vocab=8, k=4):
        return EmbeddingTable(vectors=rng.standard_normal((vocab, k)).astype(np.float32))

    def _batch(self, rng, n=3, seq_len=6, vocab=8):
        id_lists, labels = [], []
        for _ in range(n):
            m = int(rng.integers(1, seq_len + 1))
            id_lists.append(rng.integers(0, vocab, m))
            labels.append(int(rng.integers(0, 2)))
        return encoded_set(id_lists, labels, seq_len)

    def test_uniform_logits_loss_is_ln2(self, rng):
        batch = self._batch(rng)
        loss, _, acc = loss_and_grad(
            batch, self._table(rng), params_with(), "attention", 0.0, None, **NO_DROPOUT
        )
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        labels = np.array([d.label for d in batch])
        assert acc == pytest.approx((labels == 0).mean())  # argmax ties pick class 0

    def test_zero_weights_kill_attention_gradient(self, rng):
        batch = self._batch(rng)
        _, grads, _ = loss_and_grad(
            batch, self._table(rng), params_with(), "attention", 0.0, None, **NO_DROPOUT
        )
        assert np.all(grads.v_a == 0.0)
        assert np.all(grads.w_a == 0.0)
        assert np.all(grads.b_a == 0.0)

    def test_l2_term_added_to_loss(self, rng):
        params = init_params(seeded(1))
        batch = self._batch(rng)
        table = self._table(rng)
        base, _, _ = loss_and_grad(batch, table, params, "attention", 0.0, None, **NO_DROPOUT)
        lam = 0.01
        decayed, _, _ = loss_and_grad(batch, table, params, "attention", lam, None, **NO_DROPOUT)
        expected = lam * sum(
            float((w * w).sum()) for w in (params.w_a, params.v_a, params.w_c, params.w_o)
        )
        assert decayed - base == pytest.approx(expected, rel=1e-12)

    def test_mean_pooling_excludes_attention_from_l2(self, rng):
        params = init_params(seeded(1))
        batch = self._batch(rng)
        table = self._table(rng)
        lam = 0.01
        loss, grads, _ = loss_and_grad(batch, table, params, "mean", lam, None, **NO_DROPOUT)
        expected = lam * sum(float((w * w).sum()) for w in (params.w_c, params.w_o))
        base, _, _ = loss_and_grad(batch, table, params, "mean", 0.0, None, **NO_DROPOUT)
        assert loss - base == pytest.approx(expected, rel=1e-12)
        assert np.all(grads.w_a == 0.0) and np.all(grads.v_a == 0.0)

    def test_out_record_equals_fresh_gradients(self, rng):
        # attention first, then mean into the same record: gradients left
        # over from the attention call would show in the mean call's w_a,
        # b_a and v_a; the NaN start shows any entry left unwritten
        batch, table = self._batch(rng, n=5, seq_len=7), self._table(rng)
        params = init_params(seeded(6))
        params.b_a[...] = rng.standard_normal(3)
        record = params.map(lambda a: np.full_like(a, np.nan))
        hyper = dict(temperature=2.0, dropout_p=0.6)
        for pooling in ("attention", "mean"):
            fresh = loss_and_grad(batch, table, params, pooling, 1e-3,
                                  np.random.default_rng(8), **hyper)
            into = loss_and_grad(batch, table, params, pooling, 1e-3,
                                 np.random.default_rng(8), **hyper, out=record)
            assert into[1] is record
            assert into[0] == fresh[0] and into[2] == fresh[2]
            assert np.array_equal(record.flat, fresh[1].flat), pooling
            if pooling == "attention":
                assert np.all(record.v_a != 0.0)

    def test_non_finite_loss_raises(self, rng):
        params = params_with(b_o=np.array([np.inf, 0.0]))
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            loss_and_grad(
                self._batch(rng), self._table(rng), params, "mean", 0.0, None, **NO_DROPOUT
            )

    def test_embeddings_receive_no_gradient(self, rng):
        # the embedding table is immutable through a training step
        table = self._table(rng)
        before = table.vectors.copy()
        params = init_params(seeded(3))
        state = AdamState.for_params(params)
        _, grads, _ = loss_and_grad(
            self._batch(rng), table, params, "attention", 1e-4, np.random.default_rng(1),
            **NO_DROPOUT,
        )
        adam_step(params, grads, state, 1e-3)
        assert np.array_equal(table.vectors, before)

    @pytest.mark.parametrize(
        "zeroed, weight_decay", [(("w_a", "b_a", "v_a"), 1e-3), (("v_a",), 0.0)]
    )
    def test_zero_attention_equals_mean_bitwise_on_a_batch(self, rng, zeroed, weight_decay):
        # v_a = 0 is mean pooling, bit for bit, through the batched training
        # path: padded batch, dropout on. With w_a left nonzero its L2 term
        # would differ, so that case runs without decay.
        batch = self._batch(rng, n=5, seq_len=7)
        table = self._table(rng)
        params = init_params(seeded(4))
        params.b_a[...] = rng.standard_normal(3)
        for name in zeroed:
            getattr(params, name)[...] = 0.0
        assert any(not doc.mask.all() for doc in batch)
        hyper = dict(temperature=2.0, dropout_p=0.5)
        runs = {
            pooling: loss_and_grad(batch, table, params, pooling, weight_decay,
                                   np.random.default_rng(8), **hyper)
            for pooling in ("attention", "mean")
        }
        (attn_loss, attn_grads, attn_acc), (mean_loss, mean_grads, mean_acc) = runs.values()
        assert attn_loss == mean_loss and attn_acc == mean_acc
        for name in ("w_c", "b_c", "ln_gain", "ln_shift", "w_o", "b_o"):
            assert np.array_equal(getattr(attn_grads, name), getattr(mean_grads, name)), name
        attn_logits, mean_logits = (
            predict_logits(batch, table, params, pooling, temperature=2.0)
            for pooling in ("attention", "mean")
        )
        assert np.array_equal(attn_logits, mean_logits)


# The L2-decayed weight matrices per pooling mode, and the head's tensors.
DECAYED = {"attention": ("w_c", "w_o", "w_a", "v_a"), "mean": ("w_c", "w_o")}
HEAD_TENSORS = ("w_c", "b_c", "ln_gain", "ln_shift", "w_o", "b_o")


def reference_pool(x, mask, params, pooling, temperature):
    """Per-slot pooling of a (B, T, k) batch: every slot is scored on its own."""
    if pooling == "attention":
        g = np.tanh(np.einsum("btk,ak->bta", x, params.w_a) + params.b_a)
        e = np.where(mask, g @ params.v_a, -np.inf)
        w = np.exp((e - e.max(axis=-1, keepdims=True)) / temperature)
        alphas = w / w.sum(axis=-1, keepdims=True)
    else:
        g = None
        alphas = mask / mask.sum(axis=-1, keepdims=True)
    return np.einsum("bt,btk->bk", alphas, x), alphas, g


def reference_loss_and_grad(batch, table, params, pooling, weight_decay, noise,
                            temperature, dropout_p):
    """Per-slot forward and backward: the oracle for distinct-token scoring."""
    x = table.gather(np.stack([d.ids for d in batch]))
    mask = np.stack([d.mask for d in batch])
    labels = np.array([d.label for d in batch])
    n = len(batch)
    pooled, alphas, g = reference_pool(x, mask, params, pooling, temperature)
    logits, cache = _head_forward(pooled, params, dropout_p, noise)
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    decay = {name: getattr(params, name) for name in DECAYED[pooling]}
    loss = -np.log(probs[np.arange(n), labels]).mean() + weight_decay * sum(
        float((w * w).sum()) for w in decay.values()
    )
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    head = params.map(np.zeros_like)
    ds = _head_backward(dlogits / n, params, dropout_p, cache, head)
    grads = {name: getattr(head, name) for name in HEAD_TENSORS}
    if g is None:
        grads.update(w_a=np.zeros_like(params.w_a), b_a=np.zeros_like(params.b_a),
                     v_a=np.zeros_like(params.v_a))
    else:
        dalpha = np.einsum("bk,btk->bt", ds, x)
        de = (alphas / temperature) * (dalpha - (alphas * dalpha).sum(axis=-1, keepdims=True))
        du = (de[..., None] * params.v_a) * (1.0 - g * g)
        grads.update(w_a=np.einsum("bta,btk->ak", du, x), b_a=du.sum(axis=(0, 1)),
                     v_a=np.einsum("bt,bta->a", de, g))
    for name, w in decay.items():
        grads[name] = grads[name] + 2.0 * weight_decay * w
    return loss, grads


def assert_close(actual, expected, rel=1e-12):
    """Equal up to rel times the largest magnitude of `expected`."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


class TestDistinctTokenScoring:
    def _setup(self, rng):
        # ids 0-3 of 6, so some table rows go unused; id 0 is both a real
        # token and the padding id; one document has no padding
        table = EmbeddingTable(vectors=rng.standard_normal((6, 4)).astype(np.float32))
        batch = encoded_set(
            [[0, 1, 0, 0, 2], [3, 3, 3], [1, 0, 1, 0, 1, 0, 1, 0], [2], [0, 0, 3, 1, 3, 0]],
            labels=[1, 0, 1, 0, 0], seq_len=8,
        )
        params = random_attention(rng)
        params.w_c[...] = rng.standard_normal((5, 4))
        params.b_c[...] = 0.1 * rng.standard_normal(5)
        params.ln_gain[...] = 1.0 + 0.1 * rng.standard_normal(5)
        params.ln_shift[...] = 0.1 * rng.standard_normal(5)
        params.w_o[...] = rng.standard_normal((2, 5))
        return batch, table, params

    @pytest.mark.parametrize("pooling", ["attention", "mean"])
    def test_matches_per_slot_reference(self, rng, pooling):
        batch, table, params = self._setup(rng)
        loss, grads, _ = loss_and_grad(
            batch, table, params, pooling, 1e-3, np.random.default_rng(5),
            temperature=2.0, dropout_p=0.5,
        )
        ref_loss, ref_grads = reference_loss_and_grad(
            batch, table, params, pooling, 1e-3, np.random.default_rng(5), 2.0, 0.5
        )
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for name, grad in grads.tensors().items():
            if pooling == "mean" and name in ("w_a", "b_a", "v_a"):
                assert np.all(grad == 0.0) and np.all(ref_grads[name] == 0.0), name
            else:
                assert_close(grad, ref_grads[name])
        x = table.gather(np.stack([d.ids for d in batch]))
        mask = np.stack([d.mask for d in batch])
        ref_logits, _ = _head_forward(
            reference_pool(x, mask, params, pooling, 2.0)[0], params, 0.0, None
        )
        assert_close(predict_logits(batch, table, params, pooling, temperature=2.0), ref_logits)

    @pytest.mark.parametrize("pooling", ["attention", "mean"])
    def test_padding_row_never_read(self, rng, pooling):
        # id 0 pads every document here and is no real token: its row may
        # hold anything, even NaN, without changing a loss, gradient or logit
        batch = encoded_set([[1, 2, 1], [3, 1]], labels=[0, 1], seq_len=5)
        _, table, params = self._setup(rng)
        runs = []
        for row in (np.zeros(4), np.full(4, np.nan)):
            table.vectors[0] = row
            loss, grads, _ = loss_and_grad(batch, table, params, pooling, 1e-3, None,
                                           **NO_DROPOUT)
            logits = predict_logits(batch, table, params, pooling, temperature=2.0)
            runs.append((loss, grads, logits))
        (loss_a, grads_a, logits_a), (loss_b, grads_b, logits_b) = runs
        assert loss_a == loss_b and np.array_equal(logits_a, logits_b)
        for name, grad in grads_a.tensors().items():
            assert np.array_equal(grad, grads_b.tensors()[name]), name

    def test_one_token_one_score(self, rng):
        # Two documents hold tokens 3 and 5 in swapped order, and a third
        # repeats them. A sum of two weights does not depend on their order,
        # so equal scores give bitwise-equal weights across documents.
        table = EmbeddingTable(vectors=rng.standard_normal((7, 4)).astype(np.float32))
        batch = encoded_set([[3, 5], [5, 3], [0, 3, 5, 3, 0, 5]], seq_len=6)
        rows, inv, mask, _ = _gather_batch(batch, table)
        assert rows.shape[0] == 3  # ids 0, 3 and 5
        _, alphas, _ = _pool(rows, inv, mask, random_attention(rng), "attention", 2.0)
        assert alphas[0, 0] == alphas[1, 1] and alphas[0, 1] == alphas[1, 0]
        assert alphas[2, 1] == alphas[2, 3] and alphas[2, 2] == alphas[2, 5]
        assert alphas[2, 0] == alphas[2, 4]


    @pytest.mark.parametrize("pooling", ["attention", "mean"])
    def test_weighted_sum_is_scipys_csr_product_bitwise(self, rng, pooling):
        # row magnitudes over 16 decades, so any other summation order moves the bits
        table = EmbeddingTable(vectors=(rng.standard_normal((9, 4))
                                        * 10.0 ** rng.uniform(-8, 8, (9, 1))).astype(np.float32))
        batch = encoded_set([rng.integers(0, 9, rng.integers(1, 12)) for _ in range(7)],
                            labels=[0, 1] * 3 + [0], seq_len=12)
        rows, inv, mask, _ = _gather_batch(batch, table)
        pooled, alphas, _ = _pool(rows, inv, mask, random_attention(rng), pooling, 2.0)
        indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=-1))))
        weights = sp.csr_matrix((alphas[mask], inv[mask], indptr), shape=(len(mask), len(rows)))
        assert np.array_equal(pooled, weights @ rows)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = init_params(Cfg)
        snapshot = {name: arr.copy() for name, arr in params.tensors().items()}
        state = AdamState.for_params(params)
        adam_step(params, params.map(np.zeros_like), state, learning_rate=0.1)
        for name, arr in params.tensors().items():
            assert np.array_equal(arr, snapshot[name])

    def test_first_step_is_signed_learning_rate(self):
        params = init_params(Cfg)
        before = params.w_a.copy()
        grads = params.map(np.zeros_like)
        grads.w_a[...] = np.where(before >= 0, 3.0, -2.0)  # |g| >> eps
        state = AdamState.for_params(params)
        adam_step(params, grads, state, learning_rate=0.01)
        delta = params.w_a - before
        np.testing.assert_allclose(delta, -0.01 * np.sign(grads.w_a), rtol=1e-6)

    def test_quadratic_convergence(self):
        # minimize (x0 - 1)^2 + 5 (x1 + 2)^2 using b_a as the variable
        params = init_params(Cfg)
        params.b_a[...] = np.array([3.0, 1.0, 0.0])
        target = np.array([1.0, -2.0, 0.0])
        scale = np.array([1.0, 5.0, 1.0])
        state = AdamState.for_params(params)
        for _ in range(100):
            grads = params.map(np.zeros_like)
            grads.b_a[...] = 2.0 * scale * (params.b_a - target)
            adam_step(params, grads, state, learning_rate=0.2)
        loss = float((scale * (params.b_a - target) ** 2).sum())
        assert loss < 1e-3


def reference_adam_step(params, grads, m, v, t, learning_rate):
    """Adam one tensor at a time, the oracle for the update over the flat buffer."""
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name, param in params.items():
        grad = grads[name]
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * grad
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * grad * grad
        param -= learning_rate * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + ADAM_EPS)


class TestFlatAdam:
    def test_equals_per_tensor_reference_bitwise(self, rng):
        params = init_params(seeded(1))
        ref = {name: arr.copy() for name, arr in params.tensors().items()}
        ref_m = {name: np.zeros_like(arr) for name, arr in ref.items()}
        ref_v = {name: np.zeros_like(arr) for name, arr in ref.items()}
        state = AdamState.for_params(params)
        for t in range(1, 51):
            grads = params.map(lambda arr: rng.standard_normal(arr.shape) * 10.0 ** rng.integers(-8, 3))
            grads.b_c[...] = 0.0  # one tensor's gradient stays zero throughout
            adam_step(params, grads, state, learning_rate=1e-2)
            reference_adam_step(ref, grads.tensors(), ref_m, ref_v, t, 1e-2)
            for name, arr in params.tensors().items():
                assert np.array_equal(arr, ref[name]), (t, name)
            # the flat moments are the per-tensor ones, concatenated in checkpoint order
            assert np.array_equal(state.m, np.concatenate([a.ravel() for a in ref_m.values()])), t
            assert np.array_equal(state.v, np.concatenate([a.ravel() for a in ref_v.values()])), t
        assert np.array_equal(params.b_c, np.zeros_like(params.b_c))

    def test_tensors_are_views_into_the_flat_buffer(self, rng):
        params = init_params(seeded(2))
        params.w_o[...] = rng.standard_normal((2, 5))
        params.flat[...] = 0.0
        assert all(np.all(arr == 0.0) for arr in params.tensors().values())
        assert params.flat.size == sum(arr.size for arr in params.tensors().values())


class TestPoolOnce:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_set_rows_equal_per_batch_rows_bitwise(self, data):
        # Mean-pooled rows do not depend on which batch a document is in, so
        # fit pools each set once; a batch's loss and gradients from those
        # rows are bitwise those of pooling the batch.
        n, seq_len, vocab = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 9)), 7
        id_lists = [data.draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=seq_len))
                    for _ in range(n)]
        docs = encoded_set(id_lists, data.draw(st.lists(st.integers(0, 1), min_size=n,
                                                         max_size=n)), seq_len)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table = EmbeddingTable(vectors=rng.standard_normal((vocab, 4)).astype(np.float32))
        params = init_params(seeded(3))
        whole = pool_batch(docs, table, params, "mean", temperature=2.0)
        order = np.array(data.draw(st.permutations(range(n))))
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        for part in np.split(order, cuts):
            assert np.array_equal(pool_batch(docs[part], table, params, "mean", temperature=2.0),
                                  whole[part])
            runs = [loss_and_grad(docs[part], table, params, "mean", 1e-3,
                                  np.random.default_rng(4), temperature=2.0, dropout_p=0.5,
                                  pooled=pooled)
                    for pooled in (None, whole[part])]
            (loss_a, grads_a, acc_a), (loss_b, grads_b, acc_b) = runs
            assert loss_a == loss_b and acc_a == acc_b
            assert np.array_equal(grads_a.flat, grads_b.flat)
            assert np.array_equal(
                predict_logits(docs[part], table, params, "mean", temperature=2.0),
                predict_logits(docs[part], table, params, "mean", temperature=2.0,
                               pooled=whole[part]))

    def test_attention_rows_cannot_be_passed_in(self, rng):
        docs = encoded_set([[1, 2], [3]], seq_len=3)
        table = EmbeddingTable(vectors=rng.standard_normal((4, 4)).astype(np.float32))
        params = init_params(Cfg)
        pooled = pool_batch(docs, table, params, "attention", temperature=2.0)
        with pytest.raises(ModelError, match="mean-pooled"):
            loss_and_grad(docs, table, params, "attention", 0.0, None, temperature=2.0,
                          dropout_p=0.0, pooled=pooled)


def per_tensor_init(config, seed):
    """init_params as first written, one hand-shaped draw per tensor: the reference bits."""
    k, d_a, h = config.embed_dim, config.attn_dim, config.hidden
    def glorot(rng, fan_in, fan_out, shape):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)
    rng_attn, rng_clf = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])
    w_a, v_a = glorot(rng_attn, k, d_a, (d_a, k)), glorot(rng_attn, d_a, 1, (d_a,))
    w_c, w_o = glorot(rng_clf, k, h, (h, k)), glorot(rng_clf, h, 2, (2, h))
    return dict(w_a=w_a, b_a=np.zeros(d_a), v_a=v_a, w_c=w_c, b_c=np.zeros(h),
                ln_gain=np.ones(h), ln_shift=np.zeros(h), w_o=w_o, b_o=np.zeros(2))


class TestInitParams:
    @pytest.mark.parametrize("seed", [0, 7, 123456789])
    def test_equals_per_tensor_draws_bitwise(self, seed):
        params = init_params(seeded(seed))
        reference = per_tensor_init(Cfg, seed)
        assert list(params.tensors()) == list(reference) == list(param_shapes(Cfg))
        for name, arr in params.tensors().items():
            assert arr.shape == param_shapes(Cfg)[name]
            assert arr.dtype == np.float64
            assert np.array_equal(arr, reference[name]), name

    def test_seed_defaults_to_config_seed(self):
        reference = per_tensor_init(seeded(9), 9)
        for name, arr in init_params(seeded(9)).tensors().items():
            assert np.array_equal(arr, reference[name]), name

    def test_seed_determinism_bitwise(self):
        a = init_params(seeded(5))
        b = init_params(seeded(5))
        for name, arr in a.tensors().items():
            assert np.array_equal(arr, b.tensors()[name])

    def test_different_seeds_differ(self):
        a = init_params(seeded(5))
        b = init_params(seeded(6))
        assert not np.array_equal(a.w_a, b.w_a)

    def test_glorot_bound(self):
        class Big:
            embed_dim, attn_dim, hidden, seed = 300, 64, 128, 0

        params = init_params(Big)
        bound = np.sqrt(6.0 / (300 + 64))
        assert bound == pytest.approx(0.1284, abs=2e-4)
        assert np.abs(params.w_a).max() <= bound
        assert np.abs(params.w_c).max() <= np.sqrt(6.0 / (300 + 128))
        assert np.abs(params.w_o).max() <= np.sqrt(6.0 / (128 + 2))

    def test_bias_and_affine_defaults(self):
        params = init_params(seeded(2))
        assert np.all(params.b_a == 0.0)
        assert np.all(params.b_c == 0.0)
        assert np.all(params.b_o == 0.0)
        assert np.all(params.ln_shift == 0.0)
        assert np.all(params.ln_gain == 1.0)

    def test_empirical_mean_within_three_sigma(self):
        class Wide:
            embed_dim, attn_dim, hidden, seed = 500, 200, 16, 7

        params = init_params(Wide)
        samples = params.w_a.ravel()  # 100k uniform draws
        bound = np.sqrt(6.0 / (500 + 200))
        sigma_mean = bound / np.sqrt(3.0 * samples.size)
        assert abs(samples.mean()) < 3.0 * sigma_mean
