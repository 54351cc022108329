"""Tests for the benchmark itself: generator determinism, output checks,
tracer hygiene. Run with `python3 -m pytest perfbench -q` from the repo root."""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from halattn import store  # noqa: E402
from halattn.linalg import EmbeddingTable  # noqa: E402

TINY = {
    "desk": dataclasses.replace(workloads.WORKLOADS["desk"], n_embed=240, n_test=160,
                                config=workloads._fixed_epochs(workloads.gen.DESK_CONFIG, 2)),
    "imdb": dataclasses.replace(workloads.WORKLOADS["train-imdb"], n_embed=200, n_test=100,
                                config=dataclasses.replace(
                                    workloads.WORKLOADS["train-imdb"].config,
                                    vocab_cap=300, embed_dim=16)),
}


def tree_bytes(root: Path) -> dict[str, bytes]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_generator_same_seed_same_bytes(tmp_path, kind):
    w = TINY[kind]
    workloads.write_inputs(w, 5, tmp_path / "a")
    workloads.write_inputs(w, 5, tmp_path / "b")
    workloads.write_inputs(w, 6, tmp_path / "c")
    a, b, c = (tree_bytes(tmp_path / x) for x in "abc")
    assert a == b
    assert a != c


def test_imdb_corpus_shape():
    docs = workloads.gen.make_imdb_corpus(2000, seed=1)
    assert [d.label for d in docs[:4]] == [0, 1, 0, 1]
    lengths = [len(d.text.split()) for d in docs]
    assert 200 < np.mean(lengths) < 260
    assert any(workloads.gen.BR_TAG in d.text for d in docs)


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    """One real pass of the tiny IMDB-shape workload, and its inputs' counts."""
    root = tmp_path_factory.mktemp("pass")
    w = TINY["imdb"]
    counts = workloads.write_inputs(w, 3, root / "inputs")
    return w, counts, run.run_pass(w, root / "inputs", root / "out", 0.0)


def test_real_pass_passes_every_check(tiny_pass):
    w, counts, p = tiny_pass
    outcomes = run.check_pass(dataclasses.replace(w, acc_floor=None), p)
    assert outcomes == [None] * len(outcomes)
    assert len(outcomes) == len(p.steps) + 5 + workloads.N_ATTEND_TEXTS
    metrics = run.end_to_end(w, counts, p)
    assert all(v > 0 for v in metrics.values())
    assert metrics["wall_s"] > metrics["embed_s"] + metrics["step.classify_s"]


def test_svd_check_rejects_perturbed_singular_value(tiny_pass, tmp_path):
    w, _, p = tiny_pass
    svd = next(s for s in p.steps if s.stage == "svd")
    oracle = checks.oracle_singular_values(checks.concatenation(p.out / "pair.cooc"))
    printed = checks.parse_singular_values(svd.stdout)
    assert checks.check_singular_values(printed, oracle, checks.PRINTED_RTOL) is None
    bumped = oracle.copy()
    bumped[2] *= 1 + 1e-3
    assert checks.check_singular_values(printed, bumped, checks.PRINTED_RTOL) is not None
    assert checks.check_singular_values(oracle[:4], oracle, checks.PRINTED_RTOL) is not None


def test_svd_check_rejects_corrupted_embeddings(tiny_pass, tmp_path):
    w, _, p = tiny_pass
    svd = next(s for s in p.steps if s.stage == "svd")
    table, vocab = store.load_embeddings(p.out / "emb.bin")
    assert checks.check_svd(svd.stdout, p.out / "emb.bin", p.out / "pair.cooc", True) == [None] * 2
    # Unit rows, one stretched.
    bad = table.vectors.copy()
    bad[7] *= 1.001
    store.save_embeddings(EmbeddingTable(vectors=bad), vocab, tmp_path / "bad.bin")
    assert checks.check_svd(svd.stdout, tmp_path / "bad.bin", p.out / "pair.cooc", True)[1]
    # Unnormalized: column norms must equal the oracle's singular values.
    oracle = checks.oracle_singular_values(checks.concatenation(p.out / "pair.cooc"))
    u = np.linalg.qr(np.random.default_rng(0).standard_normal((table.size, table.dim)))[0]
    s = np.concatenate([oracle, np.linspace(oracle[-1] / 2, 1, table.dim - len(oracle))])
    rtol = checks.SINGULAR_RTOL
    assert checks.check_singular_values(checks.column_norms(u * s), oracle, rtol) is None
    s[1] *= 1 + 1e-4
    assert checks.check_singular_values(checks.column_norms(u * s), oracle, rtol)


def test_accuracy_checks_reject_flips():
    assert checks.check_accuracies({"mean": 0.8, "attention": 0.9}, 0.7, 0.02) is None
    assert checks.check_accuracies({"mean": 0.9, "attention": 0.8}, 0.7, 0.02) is not None
    assert checks.check_accuracies({"mean": 0.6, "attention": 0.9}, 0.7, None) is not None
    assert checks.check_accuracies({"mean": 0.5, "attention": 0.5}, None, None) is None
    assert checks.check_accuracies({"attention": 0.9}, None, None) is not None
    assert checks.check_losses([0.7, 0.6]) is None
    assert checks.check_losses([0.7, float("nan")]) is not None
    assert checks.check_losses([]) is not None


def test_attend_check_rejects_bad_weights(tiny_pass):
    _, _, p = tiny_pass
    attend = next(s for s in p.steps if s.stage == "attend")
    alphas = checks.parse_alphas(attend.stdout)
    assert checks.check_attention_weights(alphas) is None
    alphas[0] += 0.01
    assert checks.check_attention_weights(alphas) is not None
    assert checks.check_attention_weights([]) is not None
    accuracy = next(s for s in p.steps if s.stage == "eval").stdout
    assert 0.0 <= checks.parse_accuracy(accuracy) <= 1.0


def test_failed_step_counts_as_failure(tiny_pass):
    w, _, p = tiny_pass
    broken = dataclasses.replace(p, steps=[dataclasses.replace(p.steps[0], code=2)] + p.steps[1:])
    outcomes = run.check_pass(dataclasses.replace(w, acc_floor=None), broken)
    assert sum(o is not None for o in outcomes) == 1


def current_targets() -> list:
    return [getattr(__import__(m, fromlist=[a]), a) for m, a, _ in tracing.TARGETS]


def test_tracer_restores_every_wrapper(tmp_path):
    w = TINY["desk"]
    workloads.write_inputs(w, 2, tmp_path / "inputs")
    originals = current_targets()
    with tracing.Tracer() as tracer:
        assert all(a is not b for a, b in zip(current_targets(), originals))
        p = run.run_pass(w, tmp_path / "inputs", tmp_path / "out", 0.0)
    assert current_targets() == originals
    assert all(s.code == 0 for s in p.steps)
    m = run.per_layer(tracer.spans, p)
    assert {"linalg.svd_s", "model.batches", "train.fit_s.attention"} <= set(m)
    # Argument parsing and printing sit outside every span; at this tiny
    # shape they are a larger share than at the workloads' (~0.98 there).
    assert m["trace.coverage"] > 0.9
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) <= p.wall

    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert current_targets() == originals


def test_short_steps_repeat_to_min_time(tmp_path):
    w = TINY["desk"]
    workloads.write_inputs(w, 2, tmp_path / "inputs")
    p = run.run_pass(w, tmp_path / "inputs", tmp_path / "out", 0.3)
    for s in p.steps:
        assert s.code == 0
        assert s.calls == 1 if s.stage == "attend" else s.calls * s.seconds >= 0.1
    assert max(s.calls for s in p.steps) > 1


def test_missing_target_is_absent_not_zero(tiny_pass):
    _, _, p = tiny_pass
    targets = tracing.TARGETS + (("halattn.cli", "no_such_function", "cooc"),)
    with tracing.Tracer(targets) as tracer:
        pass
    assert tracer.missing == ["cooc.no_such_function"]
    m = run.per_layer([], p)
    assert "cooc.build_s" not in m and "linalg.svd_s" not in m
    assert "model.batches" not in m


def test_benchmark_definition_matches_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in run.SPEC["end_to_end"])
