"""Finite-difference verification of every analytic parameter gradient."""

import numpy as np
import pytest

from halattn.linalg import EmbeddingTable
from halattn.model import init_params, loss_and_grad
from synthetic import encoded_set

SEQ_LEN, EMBED_DIM, ATTN_DIM, HIDDEN = 6, 4, 3, 5
VOCAB = 9
STEP = 1e-5
TOLERANCE = 1e-4


class ToyCfg:
    embed_dim, attn_dim, hidden = EMBED_DIM, ATTN_DIM, HIDDEN
    seed = 0


def toy_batch(rng, n_docs=3, vocab=VOCAB):
    id_lists, labels = [], []
    for _ in range(n_docs):
        m = int(rng.integers(1, SEQ_LEN + 1))
        id_lists.append(rng.integers(0, vocab, m))
        labels.append(int(rng.integers(0, 2)))
    return encoded_set(id_lists, labels, SEQ_LEN)


def toy_params(rng, seed):
    params = init_params(type("ToyCfg", (ToyCfg,), {"seed": seed}))
    # randomize the zero-initialized tensors so their gradients are generic
    params.b_a[...] = 0.1 * rng.standard_normal(ATTN_DIM)
    params.b_c[...] = 0.1 * rng.standard_normal(HIDDEN)
    params.ln_gain[...] = 1.0 + 0.1 * rng.standard_normal(HIDDEN)
    params.ln_shift[...] = 0.1 * rng.standard_normal(HIDDEN)
    params.b_o[...] = 0.1 * rng.standard_normal(2)
    return params


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-5)


def max_gradient_error(seed, pooling, weight_decay=0.003, noise_seed=77, vocab=VOCAB,
                       dropout_p=0.6):
    """Largest relative disagreement between analytic and central differences."""
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(vectors=rng.standard_normal((vocab, EMBED_DIM)).astype(np.float32))
    batch = toy_batch(rng, vocab=vocab)
    params = toy_params(rng, seed + 1000)

    def loss_at():
        # a fresh generator per call keeps the dropout mask identical, so
        # the loss is a deterministic function of the parameters
        return loss_and_grad(
            batch, table, params, pooling, weight_decay, np.random.default_rng(noise_seed),
            temperature=2.0, dropout_p=dropout_p,
        )

    _, grads, _ = loss_at()
    worst = 0.0
    grad_tensors = grads.tensors()
    for name, tensor in params.tensors().items():
        flat = tensor.ravel()
        grad_flat = grad_tensors[name].ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + STEP
            up = loss_at()[0]
            flat[i] = original - STEP
            down = loss_at()[0]
            flat[i] = original
            fd = (up - down) / (2.0 * STEP)
            worst = max(worst, relative_error(grad_flat[i], fd))
    return worst


@pytest.mark.parametrize("pooling", ["attention", "mean"])
def test_gradients_match_finite_differences(pooling):
    for seed in range(5):
        assert max_gradient_error(seed, pooling) < TOLERANCE


@pytest.mark.parametrize("dropout_p", [0.6, 0.0])
@pytest.mark.parametrize("pooling", ["attention", "mean"])
def test_gradients_with_two_token_vocabulary(pooling, dropout_p):
    # every slot holds id 0 or 1, so each attention row gathers the
    # gradients of many slots
    for seed in range(3):
        assert max_gradient_error(seed, pooling, vocab=2, dropout_p=dropout_p) < TOLERANCE


def test_gradients_with_zero_weight_decay():
    assert max_gradient_error(11, "attention", weight_decay=0.0) < TOLERANCE


def test_gradients_without_dropout():
    rng = np.random.default_rng(4)
    table = EmbeddingTable(vectors=rng.standard_normal((VOCAB, EMBED_DIM)).astype(np.float32))
    batch = toy_batch(rng)
    params = toy_params(rng, 21)

    def loss_at():
        return loss_and_grad(batch, table, params, "attention", 1e-3, None,
                             temperature=2.0, dropout_p=0.0)

    _, grads, _ = loss_at()
    worst = 0.0
    for name, tensor in params.tensors().items():
        flat = tensor.ravel()
        grad_flat = grads.tensors()[name].ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + STEP
            up = loss_at()[0]
            flat[i] = original - STEP
            down = loss_at()[0]
            flat[i] = original
            fd = (up - down) / (2.0 * STEP)
            worst = max(worst, relative_error(grad_flat[i], fd))
    assert worst < TOLERANCE
