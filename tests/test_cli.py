import hashlib

import numpy as np
import pytest

import halattn.train
from synthetic import make_desk_corpus, split_desk_corpus, write_labeled_dir
from test_train import diverge_in_epoch_two
from halattn import cli, linalg, store
from halattn.cli import main
from halattn.linalg import EmbeddingTable


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small end-to-end pipeline rooted at a temporary directory."""
    root = tmp_path_factory.mktemp("pipeline")
    docs = make_desk_corpus(600, seed=7)
    train_docs, test_docs = split_desk_corpus(docs, 360)
    write_labeled_dir(train_docs, root / "data" / "train")
    write_labeled_dir(test_docs, root / "data" / "test")
    config = root / "desk.cfg"
    config.write_text(
        "\n".join(
            [
                "# desk-scale configuration",
                "window = 4",
                "embed_dim = 24",
                "seq_len = 128",
                "vocab_cap = 300",
                "temperature = 2.0",
                "attn_dim = 16",
                "hidden = 32",
                "dropout_p = 0.2",
                "learning_rate = 1e-3",
                "weight_decay = 1e-4",
                "batch_size = 32",
                "patience = 6",
                "max_epochs = 40",
                "val_fraction = 0.2",
                "seed = 11",
                "pooling = attention",
            ]
        ),
        encoding="utf-8",
    )
    assert main([
        "build-vocab", "--data", str(root / "data" / "train"),
        "--cap", "300", "--out", str(root / "vocab.txt"),
    ]) == 0
    assert main([
        "build-hal", "--data", str(root / "data" / "train"),
        "--vocab", str(root / "vocab.txt"), "--window", "4",
        "--seq-len", "128", "--out", str(root / "pair.cooc"),
    ]) == 0
    assert main([
        "svd", "--cooc", str(root / "pair.cooc"), "--dim", "24",
        "--oversample", "8", "--power-iters", "2", "--seed", "5",
        "--out", str(root / "emb.bin"),
    ]) == 0
    return root


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "command" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "cmd", ["build-vocab", "build-hal", "svd", "train", "eval", "attend", "compare"]
    )
    def test_subcommand_help_exits_zero(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_unknown_flag_rejected(self, capsys):
        assert main(["build-vocab", "--data", "x", "--out", "y", "--bogus", "1"]) == 1

    def test_missing_required_flag_rejected(self):
        assert main(["build-vocab", "--data", "x"]) == 1

    def test_unknown_command_rejected(self):
        assert main(["frobnicate"]) == 1


class TestDataErrors:
    def test_missing_data_dir_exits_two(self, tmp_path, capsys):
        code = main([
            "build-vocab", "--data", str(tmp_path / "nope"),
            "--out", str(tmp_path / "v.txt"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_artifact_exits_two(self, workspace, tmp_path, capsys):
        data = bytearray((workspace / "emb.bin").read_bytes())
        data[-3] ^= 0x01
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        code = main([
            "train", "--data", str(workspace / "data" / "train"),
            "--embeddings", str(bad), "--config", str(workspace / "desk.cfg"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2

    def test_unknown_config_key_exits_two(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("embed_dim = 24\nwarp_factor = 9\n", encoding="utf-8")
        code = main([
            "train", "--data", str(workspace / "data" / "train"),
            "--embeddings", str(workspace / "emb.bin"), "--config", str(cfg),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "warp_factor" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["train", "compare", "eval", "attend"])
    def test_embed_dim_mismatch_exits_two(self, workspace, trained, tmp_path, capsys, command):
        # train and compare get a config of embed_dim 32, eval and attend a 12-dim table,
        # against the workspace's 24-dim emb.bin and checkpoint
        cfg = tmp_path / "wide.cfg"
        cfg.write_text((workspace / "desk.cfg").read_text(encoding="utf-8")
                       + "\nembed_dim = 32\n", encoding="utf-8")
        vocab = store.load_vocab(workspace / "vocab.txt")
        narrow = tmp_path / "narrow.bin"
        store.save_embeddings(EmbeddingTable(vectors=np.ones((vocab.size, 12), np.float32)),
                              vocab, narrow)
        emb, ckpt = str(workspace / "emb.bin"), str(trained / "attn.ckpt")
        argv = {"train": ["--embeddings", emb, "--config", str(cfg),
                          "--data", str(workspace / "data" / "train"),
                          "--out", str(tmp_path / "m.ckpt")],
                "compare": ["--embeddings", emb, "--config", str(cfg),
                            "--data", str(workspace / "data")],
                "eval": ["--ckpt", ckpt, "--embeddings", str(narrow),
                         "--data", str(workspace / "data" / "test")],
                "attend": ["--ckpt", ckpt, "--embeddings", str(narrow), "--text", "pos00"]}
        assert main([command, *argv[command]]) == 2
        table_dim, config_dim = (24, 32) if command in ("train", "compare") else (12, 24)
        assert capsys.readouterr().err == (f"error: embedding dim {table_dim} does not match "
                                           f"config embed_dim {config_dim}\n")

    def test_train_checks_the_table_before_reading_text(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("embed_dim = 32\n", encoding="utf-8")
        code = main(["train", "--data", str(tmp_path / "no-such-dir"),
                     "--embeddings", str(workspace / "emb.bin"), "--config", str(cfg),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "embedding dim 24 does not match config embed_dim 32" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--learning-rate", "inf"), ("--learning-rate", "-1"),
                                             ("--temperature", "nan")])
    def test_non_finite_or_negative_step_size_exits_two(self, workspace, tmp_path, capsys,
                                                         flag, value):
        code = main(["train", "--data", str(workspace / "data" / "train"),
                     "--embeddings", str(workspace / "emb.bin"),
                     "--config", str(workspace / "desk.cfg"), flag, value,
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--oversample", "--power-iters", "--seed"])
    def test_negative_svd_parameter_exits_two(self, workspace, tmp_path, capsys, flag):
        code = main(["svd", "--cooc", str(workspace / "pair.cooc"), "--dim", "8", flag, "-3",
                     "--out", str(tmp_path / "emb.bin")])
        assert code == 2
        assert f"{flag[2:].replace('-', '_')} must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "emb.bin").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_train_seed_exits_two(self, workspace, tmp_path, capsys, source):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -1\n", encoding="utf-8")
        seed = {"flag": ["--seed", "-1"], "config": ["--config", str(cfg)]}[source]
        code = main(["train", "--data", str(workspace / "data" / "train"),
                     "--embeddings", str(workspace / "emb.bin"), *seed,
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_non_utf8_config_exits_two(self, workspace, tmp_path, capsys, command):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed = \xff\n")
        args = {"train": ["--data", str(workspace / "data" / "train"),
                          "--out", str(tmp_path / "m.ckpt")],
                "compare": ["--data", str(workspace / "data")]}[command]
        code = main([command, "--embeddings", str(workspace / "emb.bin"),
                     "--config", str(cfg), *args])
        assert code == 2
        assert f"cannot decode config file {cfg}" in capsys.readouterr().err

    def test_previous_format_version_exits_two(self, workspace, tmp_path, capsys):
        data = bytearray((workspace / "emb.bin").read_bytes())
        data[8:16] = (1).to_bytes(8, "little")  # HALEMB v1 laid out its own header
        old = tmp_path / "old.bin"
        old.write_bytes(bytes(data))
        code = main([
            "train", "--data", str(workspace / "data" / "train"),
            "--embeddings", str(old), "--config", str(workspace / "desk.cfg"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "unsupported version 1" in capsys.readouterr().err

class TestPipelineArtifacts:
    def test_vocab_and_embeddings_consistent(self, workspace):
        vocab = store.load_vocab(workspace / "vocab.txt")
        table, emb_vocab = store.load_embeddings(workspace / "emb.bin")
        assert emb_vocab.tokens == vocab.tokens
        assert table.dim == 24
        pair, cooc_vocab = store.load_cooc(workspace / "pair.cooc")
        assert cooc_vocab.tokens == vocab.tokens
        assert pair.window == 4

    def test_cooc_bytes_are_pinned(self, workspace):
        # Integer counts and scalar float adds, no BLAS: the same bytes on every platform.
        digest = hashlib.sha256((workspace / "pair.cooc").read_bytes()).hexdigest()
        assert digest == "fdcf779fff80425c04e1fc3a7473ab92e1f02485e1999d7d1d36337bec93aa0a"

    def test_svd_normalize_flag(self, workspace, tmp_path):
        out = tmp_path / "unit.bin"
        code = main([
            "svd", "--cooc", str(workspace / "pair.cooc"), "--dim", "8",
            "--oversample", "6", "--power-iters", "1", "--seed", "2",
            "--normalize", "--out", str(out),
        ])
        assert code == 0
        table, _ = store.load_embeddings(out)
        norms = np.linalg.norm(table.vectors.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-5)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_svd_bytes_do_not_depend_on_core_count(self, workspace, tmp_path, monkeypatch,
                                                   workers):
        # the same arguments as the workspace's emb.bin, on 1 or 2 threads
        monkeypatch.setattr(linalg, "_WORKERS", workers)
        out = tmp_path / "emb.bin"
        assert main([
            "svd", "--cooc", str(workspace / "pair.cooc"), "--dim", "24",
            "--oversample", "8", "--power-iters", "2", "--seed", "5",
            "--out", str(out),
        ]) == 0
        assert out.read_bytes() == (workspace / "emb.bin").read_bytes()


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main([
        "train", "--data", str(workspace / "data" / "train"),
        "--embeddings", str(workspace / "emb.bin"),
        "--config", str(workspace / "desk.cfg"),
        "--pooling", "attention",
        "--out", str(out / "attn.ckpt"), "--metrics", str(out / "attn.csv"),
    ])
    assert code == 0
    return out


class TestTrainEvalAttend:
    def test_train_writes_artifacts_and_logs(self, trained, workspace, capsys):
        ckpt = store.load_checkpoint(trained / "attn.ckpt")
        assert ckpt.config.pooling == "attention"
        records = store.load_metrics(trained / "attn.csv")
        assert len(records) >= 1
        assert records[0].epoch == 1
        assert ckpt.best_val_acc == max(r.val_acc for r in records)

    def test_eval_prints_four_decimals(self, trained, workspace, capsys):
        code = main([
            "eval", "--ckpt", str(trained / "attn.ckpt"),
            "--embeddings", str(workspace / "emb.bin"),
            "--data", str(workspace / "data" / "test"),
        ])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("accuracy 0.")
        value = out.split()[1]
        assert len(value.split(".")[1]) == 4
        assert float(value) >= 0.7  # desk corpus is easy for attention

    def test_attend_single_word_gets_unit_weight(self, trained, workspace, capsys):
        code = main([
            "attend", "--ckpt", str(trained / "attn.ckpt"),
            "--embeddings", str(workspace / "emb.bin"), "--text", "pos00",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split() == ["token", "alpha"]
        assert lines[1].split() == ["pos00", "1.0000"]
        assert lines[-1].startswith("prediction: ")
        assert "p_negative=" in lines[-1] and "p_positive=" in lines[-1]

    def test_attend_reports_tokens_in_order(self, trained, workspace, capsys):
        code = main([
            "attend", "--ckpt", str(trained / "attn.ckpt"),
            "--embeddings", str(workspace / "emb.bin"),
            "--text", "the pos00 was neg01",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        tokens = [line.split()[0] for line in lines[1:-1]]
        assert tokens == ["the", "pos00", "was", "neg01"]
        weights = [float(line.split()[1]) for line in lines[1:-1]]
        assert abs(sum(weights) - 1.0) < 2e-4  # printed at 4 decimals

    def test_eval_of_misshapen_checkpoint_exits_two(self, trained, workspace, tmp_path, capsys):
        # checksum-valid, but w_a does not fit the config's attn_dim x embed_dim
        records = store._load_records(trained / "attn.ckpt", store.MAGIC_CKPT,
                                      store._CKPT_LAYOUT)
        records["w_a"] = np.zeros((3, 5))
        store._save_records(tmp_path / "bad.ckpt", store.MAGIC_CKPT, records)
        code = main(["eval", "--ckpt", str(tmp_path / "bad.ckpt"),
                     "--embeddings", str(workspace / "emb.bin"),
                     "--data", str(workspace / "data" / "test")])
        assert code == 2
        assert "tensor 'w_a' has shape (3, 5), not (16, 24)" in capsys.readouterr().err

    def test_attend_no_invocab_tokens_exits_two(self, trained, workspace, capsys):
        code = main([
            "attend", "--ckpt", str(trained / "attn.ckpt"),
            "--embeddings", str(workspace / "emb.bin"), "--text", "zzzzzz",
        ])
        assert code == 2

    # each value differs from desk.cfg's and has the TrainConfig field's type
    OVERRIDES = {"pooling": "mean", "seed": 3, "max_epochs": 7, "batch_size": 16,
                 "learning_rate": 0.25, "patience": 2, "temperature": 0.5}

    @pytest.mark.parametrize("name", list(OVERRIDES), ids=lambda name: "--" + name.replace("_", "-"))
    def test_flag_overrides_config(self, workspace, name):
        argv = ["train", "--data", "d", "--embeddings", "e", "--out", "o",
                "--config", str(workspace / "desk.cfg")]
        flag, value = "--" + name.replace("_", "-"), self.OVERRIDES[name]
        config = cli._build_config(cli.build_parser().parse_args([*argv, flag, str(value)]))
        assert getattr(config, name) == value
        assert type(getattr(config, name)) is type(value)
        unset = cli._build_config(cli.build_parser().parse_args(argv))
        file_values = halattn.train.parse_config((workspace / "desk.cfg").read_text(), "desk.cfg")
        assert getattr(unset, name) == file_values[name] != value


class TestCompare:
    def test_table_shaped_summary(self, workspace, capsys):
        code = main([
            "compare", "--data", str(workspace / "data"),
            "--embeddings", str(workspace / "emb.bin"),
            "--config", str(workspace / "desk.cfg"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        header_idx = next(i for i, l in enumerate(lines) if l.startswith("pooling"))
        mean_row = lines[header_idx + 1].split()
        attn_row = lines[header_idx + 2].split()
        assert mean_row[0] == "mean" and attn_row[0] == "attention"
        mean_peak = float(mean_row[2])
        attn_peak = float(attn_row[2])
        assert attn_peak >= mean_peak
        assert "attention - mean peak delta:" in lines[-1]

    def test_requires_train_and_test_layout(self, workspace, capsys):
        code = main([
            "compare", "--data", str(workspace / "data" / "train"),
            "--embeddings", str(workspace / "emb.bin"),
            "--config", str(workspace / "desk.cfg"),
        ])
        assert code == 2


class TestDivergenceExit:
    def test_non_finite_embeddings_exit_three(self, workspace, tmp_path, capsys):
        vocab = store.load_vocab(workspace / "vocab.txt")
        bad_vectors = np.ones((vocab.size, 24), dtype=np.float32)
        bad_vectors[0, 0] = np.inf
        bad = tmp_path / "inf.bin"
        store.save_embeddings(EmbeddingTable(vectors=bad_vectors), vocab, bad)
        with np.errstate(all="ignore"):
            code = main([
                "train", "--data", str(workspace / "data" / "train"),
                "--embeddings", str(bad), "--config", str(workspace / "desk.cfg"),
                "--out", str(tmp_path / "m.ckpt"),
            ])
        assert code == 3

    def test_divergence_keeps_best_checkpoint_and_metrics(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setattr(halattn.train, "loss_and_grad", diverge_in_epoch_two())
        out, metrics = tmp_path / "m.ckpt", tmp_path / "m.csv"
        code = main([
            "train", "--data", str(workspace / "data" / "train"),
            "--embeddings", str(workspace / "emb.bin"), "--config", str(workspace / "desk.cfg"),
            "--out", str(out), "--metrics", str(metrics),
        ])
        assert code == 3
        assert store.load_checkpoint(out).best_epoch == 1
        assert [r.epoch for r in store.load_metrics(metrics)] == [1]
