import dataclasses
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import as_record
from synthetic import encoded_set, make_cluster_dataset
from halattn import cli, store
from halattn.cooc import CoocError, CoocPair, build_cooc
from halattn.corpus import Vocabulary
from halattn.linalg import EmbeddingTable
from halattn.train import Checkpoint, EpochRecord, TrainConfig, TrainError, fit, split


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.from_tokens(["the", "movie", "was", "great", "awful"])


@pytest.fixture
def table(rng, vocab):
    return EmbeddingTable(vectors=rng.standard_normal((vocab.size, 4)).astype(np.float32))


@pytest.fixture
def pair(rng):
    return _pair(rng)


def _pair(rng):
    return build_cooc(encoded_set([rng.integers(0, 5, rng.integers(2, 9)) for _ in range(6)],
                                  seq_len=10), 5, 3)


@pytest.fixture(scope="module")
def checkpoint():
    docs, emb = make_cluster_dataset(n_docs=60, seed=8)
    cfg = TrainConfig(
        window=2, embed_dim=8, seq_len=12, vocab_cap=40, temperature=2.0,
        attn_dim=4, hidden=6, dropout_p=0.25, learning_rate=3e-3, weight_decay=1e-4,
        batch_size=16, patience=2, max_epochs=3, val_fraction=0.2, seed=5,
        pooling="attention",
    )
    train, val = split(docs, cfg.val_fraction, cfg.seed)
    ckpt, _ = fit(train, val, emb, cfg)
    return ckpt


@pytest.fixture(scope="module")
def records():
    return [
        EpochRecord(1, 0.6931471805599453, 0.5, 0.52, None, 1.25),
        EpochRecord(2, 0.401, 0.8125, 0.79, 0.7725, 1.5000000000001),
    ]


class TestVocabRoundTrip:
    def test_identity(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        store.save_vocab(vocab, path)
        loaded = store.load_vocab(path)
        assert loaded.tokens == vocab.tokens
        assert loaded.index == vocab.index

    def test_header_line(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        store.save_vocab(vocab, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"HALVOCAB 1 {vocab.size}"

    def test_line_number_is_id(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        store.save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, tok in enumerate(vocab.tokens):
            assert lines[1 + i] == tok


    @staticmethod
    def _checksummed(tokens):
        """Vocabulary file bytes for any token lines, with a valid checksum."""
        body = "".join(tok + "\n" for tok in tokens).encode("utf-8")
        return (f"HALVOCAB 1 {len(tokens)}\n".encode() + body
                + f"#crc64 {store._checksum(body):016x}\n".encode())

    def test_checksummed_bytes_are_the_written_file(self, vocab):
        assert self._checksummed(vocab.tokens) == store.vocab_to_bytes(vocab)
        assert store.vocab_from_bytes(self._checksummed([])).tokens == []

    @pytest.mark.parametrize("tokens, message", [
        (["a", "b", "a"], "invalid vocabulary: vocabulary contains duplicate tokens"),
        (["a", "", "b"], "invalid vocabulary: vocabulary contains an empty token"),
        (["", ""], "invalid vocabulary: vocabulary contains duplicate tokens"),
    ], ids=["duplicate", "empty", "duplicate-empty"])
    def test_invalid_token_list_is_format_error(self, tokens, message):
        with pytest.raises(store.FormatError, match=message):
            store.vocab_from_bytes(self._checksummed(tokens), "v.txt")


class TestCoocRoundTrip:
    def test_bit_exact(self, pair, vocab, tmp_path):
        path = tmp_path / "pair.cooc"
        store.save_cooc(pair, vocab, path)
        loaded, loaded_vocab = store.load_cooc(path)
        assert loaded.window == pair.window and loaded.vocab_size == pair.vocab_size
        for name in ("row_offsets", "col_indices", "values"):
            ours, theirs = getattr(loaded.left, name), getattr(pair.left, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
        assert loaded_vocab.tokens == vocab.tokens


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedLoading:
    """Binary loaders stream the payload through its checksum, then read each record straight
    into an array of its own: no whole-file bytes and no copy of a record are held."""

    def test_load_cooc_holds_less_than_the_file_and_a_copy_of_it(self, tmp_path):
        # Holding the file's bytes beside a copy of every record traced 2.00x the file's size
        # here; with each record read into its own array, 1.63x while the int64 index records
        # outlived their int32 copies through CoocPair's checks; 1.32x with each dropped as
        # soon as its copy exists, the peak being data, the int64 indices and their copy.
        rng = np.random.default_rng(0)
        vocab_size = 2000
        docs = encoded_set([rng.zipf(1.3, 200) % vocab_size for _ in range(1500)])
        pair = build_cooc(docs, vocab_size, 5)
        path = tmp_path / "pair.cooc"
        store.save_cooc(pair, Vocabulary.from_tokens([f"w{i}" for i in range(vocab_size)]), path)
        peak = traced_peak(store.load_cooc, path)
        assert peak <= 1.4 * path.stat().st_size, peak / path.stat().st_size
        loaded, _ = store.load_cooc(path)
        assert np.array_equal(loaded.left.values, pair.left.values)

    def test_record_claiming_more_than_the_file_holds_refused_before_allocating(self, tmp_path):
        # 2**28 float64 values, 2 GiB, claimed in a file of 70 bytes
        path = tmp_path / "emb.bin"
        path.write_bytes(_wrap("embeddings", struct.pack("<Q", 1)
                               + _record(b"vectors", 0, (2**14, 2**14))))
        tracemalloc.start()
        try:
            with pytest.raises(store.TruncatedFileError, match="unexpected end of file"):
                store.load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_file_cut_after_its_checksum_was_read_refused(self, table, vocab, tmp_path):
        path = tmp_path / "emb.bin"
        store.save_embeddings(table, vocab, path)
        with open(path, "rb") as fh:
            reader = store._Reader(fh, store.MAGIC_EMB, path)  # the checksum holds
            os.truncate(path, 40)  # the record count and one name length are left
            with pytest.raises(store.TruncatedFileError, match="changed while read"):
                for _ in range(reader.u64()):
                    store._tensor_from(reader, path)


class TestEmbeddingsRoundTrip:
    def test_bit_exact(self, table, vocab, tmp_path):
        path = tmp_path / "emb.bin"
        store.save_embeddings(table, vocab, path)
        loaded, loaded_vocab = store.load_embeddings(path)
        assert np.array_equal(loaded.vectors, table.vectors)
        assert loaded.vectors.dtype == np.float32
        assert loaded_vocab.tokens == vocab.tokens

    def test_embedded_vocab_equals_standalone_file(self, table, vocab, tmp_path):
        emb_path = tmp_path / "emb.bin"
        vocab_path = tmp_path / "vocab.txt"
        store.save_embeddings(table, vocab, emb_path)
        store.save_vocab(vocab, vocab_path)
        emb_bytes = emb_path.read_bytes()
        assert emb_bytes.endswith(vocab_path.read_bytes())

    def test_size_mismatch_rejected(self, table, tmp_path):
        small = Vocabulary.from_tokens(["only", "two"])
        with pytest.raises(ValueError):
            store.save_embeddings(table, small, tmp_path / "emb.bin")


class TestCheckpointRoundTrip:
    def test_bit_exact_state(self, checkpoint, tmp_path):
        path = tmp_path / "model.ckpt"
        store.save_checkpoint(checkpoint, path)
        loaded = store.load_checkpoint(path)
        assert loaded.config == checkpoint.config
        assert loaded.best_epoch == checkpoint.best_epoch
        assert loaded.best_val_acc == checkpoint.best_val_acc
        for name, arr in checkpoint.params.tensors().items():
            assert np.array_equal(loaded.params.tensors()[name], arr)

    def test_dropout_and_temperature_restored(self, checkpoint, tmp_path):
        path = tmp_path / "model.ckpt"
        store.save_checkpoint(checkpoint, path)
        loaded = store.load_checkpoint(path)
        # both live in the config block only, and are passed to the model from there
        assert loaded.config.temperature == checkpoint.config.temperature == 2.0
        assert loaded.config.dropout_p == checkpoint.config.dropout_p == 0.25

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.pop("b_o"), "missing tensor 'b_o'"),
            (lambda t: t.update(w_x=np.zeros(2)), r"unexpected tensors \['w_x'\]"),
        ],
        ids=["missing", "unexpected"],
    )
    def test_tensor_set_must_match(self, checkpoint, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        records = _checkpoint_records(checkpoint, path)
        edit(records)
        store._save_records(path, store.MAGIC_CKPT, records)
        with pytest.raises(store.FormatError, match=message):
            store.load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace("seed = 5\n", ""), r"missing fields \['seed'\]"),
            (lambda text: text + "warp = 9\n", "unknown config key 'warp'"),
            (lambda text: text.replace("hidden = 6", "hidden = six"), "cannot parse 'six' as int"),
            (lambda text: text.replace("pooling = attention", "pooling = max"), "pooling must be"),
        ],
        ids=["missing-field", "unknown-field", "bad-value", "invalid-value"],
    )
    def test_config_text_must_be_complete_and_valid(self, checkpoint, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        records = _checkpoint_records(checkpoint, path)
        text = edit(records["config"].tobytes().decode("utf-8"))
        records["config"] = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        store._save_records(path, store.MAGIC_CKPT, records)
        with pytest.raises(store.FormatError, match=message):
            store.load_checkpoint(path)

    def test_config_text_is_one_line_per_field(self, checkpoint, tmp_path):
        path = tmp_path / "model.ckpt"
        text = _checkpoint_records(checkpoint, path)["config"].tobytes().decode("utf-8")
        assert text.splitlines()[:2] == ["window = 2", "embed_dim = 8"]
        assert text.splitlines()[-1] == "pooling = attention"

    @pytest.mark.parametrize(
        "name, value",
        [("best_epoch", np.array(3.0)), ("w_a", np.zeros((4, 8), dtype=np.float32)),
         ("best_val_acc", np.array([0.5])), ("config", np.zeros(3, dtype=np.int64))],
        ids=["float-epoch", "float32-tensor", "1d-scalar", "int64-text"],
    )
    def test_record_dtype_and_ndim_checked(self, checkpoint, tmp_path, name, value):
        path = tmp_path / "model.ckpt"
        records = _checkpoint_records(checkpoint, path)
        records[name] = value
        store._save_records(path, store.MAGIC_CKPT, records)
        with pytest.raises(store.FormatError, match=f"tensor '{name}' is"):
            store.load_checkpoint(path)


def _checkpoint_records(checkpoint, path):
    """The records save_checkpoint writes, read back through the generic loader."""
    store.save_checkpoint(checkpoint, path)
    return store._load_records(path, store.MAGIC_CKPT, store._CKPT_LAYOUT)


class TestMetricsRoundTrip:
    def test_bit_exact(self, records, tmp_path):
        path = tmp_path / "metrics.csv"
        store.save_metrics(records, path)
        loaded = store.load_metrics(path)
        assert loaded == records  # float fields round-trip exactly via repr

    def test_header(self, records, tmp_path):
        path = tmp_path / "metrics.csv"
        store.save_metrics(records, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "epoch,train_loss,train_acc,val_acc,test_acc,wall_seconds"

    def test_empty(self, tmp_path):
        path = tmp_path / "metrics.csv"
        store.save_metrics([], path)
        assert store.load_metrics(path) == []


def _artifact_files(tmp_path, vocab, table, pair, checkpoint, records):
    paths = {}
    paths["vocab"] = (tmp_path / "vocab.txt", store.load_vocab)
    store.save_vocab(vocab, paths["vocab"][0])
    paths["cooc"] = (tmp_path / "pair.cooc", store.load_cooc)
    store.save_cooc(pair, vocab, paths["cooc"][0])
    paths["embeddings"] = (tmp_path / "emb.bin", store.load_embeddings)
    store.save_embeddings(table, vocab, paths["embeddings"][0])
    paths["checkpoint"] = (tmp_path / "model.ckpt", store.load_checkpoint)
    store.save_checkpoint(checkpoint, paths["checkpoint"][0])
    paths["metrics"] = (tmp_path / "metrics.csv", store.load_metrics)
    store.save_metrics(records, paths["metrics"][0])
    return paths


def _digit_flipped(data, crc):
    digit = data[crc + 7 : crc + 8]
    return data[: crc + 7] + (b"1" if digit == b"0" else b"0") + data[crc + 8 :]


# Corruptions of a text artifact and the error each must raise, whichever the
# artifact; `crc` is where the checksum line starts.
SEALED_TEXT_CORRUPTIONS = {
    "cut-mid-body-line": (lambda d, crc: d[: crc - 2], store.TruncatedFileError),
    "cut-mid-checksum-line": (lambda d, crc: d[: crc + 3], store.TruncatedFileError),
    "cut-at-line-boundary": (lambda d, crc: d[:crc], store.TruncatedFileError),
    "cut-to-empty": (lambda d, crc: b"", store.TruncatedFileError),
    "line-after-checksum": (lambda d, crc: d + b"extra\n", store.FormatError),
    "checksum-line-twice": (lambda d, crc: d + d[crc:], store.FormatError),
    "no-crc64-prefix": (lambda d, crc: d[:crc] + b"#crc32 " + d[crc + 7 :], store.FormatError),
    "non-hex-digit": (lambda d, crc: d[: crc + 7] + b"g" + d[crc + 8 :], store.FormatError),
    "digit-flipped": (_digit_flipped, store.ChecksumMismatchError),
    "body-line-inserted": (lambda d, crc: d[:crc] + b"3,0.5,0.5,0.5,,1.0\n" + d[crc:],
                           store.ChecksumMismatchError),
    "non-utf8-body-byte": (lambda d, crc: d[: crc - 2] + b"\xff" + d[crc - 1 :], store.FormatError),
}


def _corrupted(data: bytes, corruption: str) -> bytes:
    return SEALED_TEXT_CORRUPTIONS[corruption][0](data, data.index(b"#crc64 "))


class TestSealedTextCorruption:
    """vocab.txt and metrics.csv end in the same `#crc64` line, so a corruption
    raises the same error class from either loader."""

    @pytest.mark.parametrize("corruption", list(SEALED_TEXT_CORRUPTIONS))
    @pytest.mark.parametrize("kind", ["vocab", "metrics"])
    def test_error_class(self, tmp_path, vocab, records, kind, corruption):
        path = tmp_path / kind
        if kind == "vocab":
            store.save_vocab(vocab, path)
        else:
            store.save_metrics(records, path)
        loader = {"vocab": store.load_vocab, "metrics": store.load_metrics}[kind]
        path.write_bytes(_corrupted(path.read_bytes(), corruption))
        with pytest.raises(SEALED_TEXT_CORRUPTIONS[corruption][1]):
            loader(path)

    def test_upper_case_checksum_digit_is_format_error(self, tmp_path, vocab):
        # flipping bit 5 of a hex letter upper-cases it; int(..., 16) reads the
        # same value, so only a strict digit check sees the changed byte
        path = tmp_path / "vocab.txt"
        data = bytearray(store.vocab_to_bytes(vocab))
        crc = data.index(b"#crc64 ") + 7
        data[next(i for i in range(crc, crc + 16) if data[i] >= ord("a"))] ^= 0x20
        path.write_bytes(bytes(data))
        with pytest.raises(store.FormatError, match="malformed checksum line"):
            store.load_vocab(path)

    @pytest.mark.parametrize("kind", ["cooc", "embeddings"])
    def test_embedded_vocabulary_record_raises_the_same_class(self, pristine, kind):
        # the vocabulary record of pair.cooc and emb.bin holds vocab.txt's bytes
        loader, path, original = pristine[kind]
        magic, layout = BINARY[kind], LAYOUTS[kind]
        for corruption, (_, error) in SEALED_TEXT_CORRUPTIONS.items():
            path.write_bytes(original)
            records = store._load_records(path, magic, layout)
            corrupted = _corrupted(records["vocab"].tobytes(), corruption)
            records["vocab"] = np.frombuffer(corrupted, dtype=np.uint8)
            store._save_records(path, magic, records)
            with pytest.raises(error):
                loader(path)


class TestCorruptionDetection:
    def test_every_single_byte_flip_detected(
        self, tmp_path, vocab, table, pair, checkpoint, records
    ):
        for kind, (path, loader) in _artifact_files(
            tmp_path, vocab, table, pair, checkpoint, records
        ).items():
            original = path.read_bytes()
            loader(path)  # pristine file loads
            for pos in range(len(original)):
                corrupted = bytearray(original)
                corrupted[pos] ^= 0x01
                path.write_bytes(bytes(corrupted))
                with pytest.raises(store.StoreError):
                    loader(path)
            path.write_bytes(original)

    def test_truncation_detected(self, tmp_path, vocab, table, pair, checkpoint, records):
        for kind, (path, loader) in _artifact_files(
            tmp_path, vocab, table, pair, checkpoint, records
        ).items():
            original = path.read_bytes()
            for cut in (1, len(original) // 2, len(original) - 1):
                path.write_bytes(original[:cut])
                with pytest.raises(store.StoreError):
                    loader(path)
            path.write_bytes(original)

    def test_error_kinds_are_distinct(self, tmp_path, table, vocab):
        path = tmp_path / "emb.bin"
        store.save_embeddings(table, vocab, path)
        original = bytearray(path.read_bytes())

        wrong_magic = bytearray(original)
        wrong_magic[0] ^= 0xFF
        path.write_bytes(bytes(wrong_magic))
        with pytest.raises(store.MagicMismatchError):
            store.load_embeddings(path)

        wrong_version = bytearray(original)
        wrong_version[8] ^= 0xFF
        path.write_bytes(bytes(wrong_version))
        with pytest.raises(store.VersionError):
            store.load_embeddings(path)

        wrong_payload = bytearray(original)
        wrong_payload[-1] ^= 0xFF
        path.write_bytes(bytes(wrong_payload))
        with pytest.raises(store.ChecksumMismatchError):
            store.load_embeddings(path)

        path.write_bytes(bytes(original[:10]))
        with pytest.raises(store.TruncatedFileError):
            store.load_embeddings(path)

    def test_errors_name_the_path(self, tmp_path, vocab):
        path = tmp_path / "vocab.txt"
        store.save_vocab(vocab, path)
        data = bytearray(path.read_bytes())
        data[-4] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(store.StoreError, match="vocab.txt"):
            store.load_vocab(path)

    def test_version_one_files_rejected(self, tmp_path, vocab, pair, table, checkpoint):
        # HALCOO v1 stored right beside left; HALCKPT v1 stored Adam moments. HALCOO v2,
        # HALEMB v1 and HALCKPT v2 laid out their own headers instead of named records.
        cases = [
            (tmp_path / "pair.cooc", store.load_cooc, (1, 2)),
            (tmp_path / "emb.bin", store.load_embeddings, (1,)),
            (tmp_path / "model.ckpt", store.load_checkpoint, (1, 2)),
        ]
        store.save_cooc(pair, vocab, cases[0][0])
        store.save_embeddings(table, vocab, cases[1][0])
        store.save_checkpoint(checkpoint, cases[2][0])
        for path, loader, old_versions in cases:
            original = path.read_bytes()
            for version in old_versions:
                data = bytearray(original)
                data[8:16] = struct.pack("<Q", version)
                path.write_bytes(bytes(data))
                with pytest.raises(store.VersionError, match=f"version {version}"):
                    loader(path)


class TestCoocStructuralValidation:
    """Payloads with a valid checksum whose left matrix breaks CSR invariants."""

    # left rows: [_, 1, .5], [2, _, _], [.25, 1.5, 3]; indptr [0, 2, 3, 6]
    DENSE = np.array([[0.0, 1.0, 0.5], [2.0, 0.0, 0.0], [0.25, 1.5, 3.0]])

    def _written(self, tmp_path, edit):
        """A pair.cooc of DENSE whose records `edit` changed, with a valid checksum."""
        path = tmp_path / "pair.cooc"
        vocab = Vocabulary.from_tokens(["a", "b", "c"])
        store.save_cooc(CoocPair(left=as_record(self.DENSE), window=2), vocab, path)
        store.load_cooc(path)  # the pristine matrix loads
        records = store._load_records(path, store.MAGIC_COOC, store._COOC_LAYOUT)
        edit(records)  # save_cooc refuses such a pair, so write the records
        store._save_records(path, store.MAGIC_COOC, records)
        return path

    @pytest.mark.parametrize(
        "array, pos, value",
        [("indptr", 2, 1), ("indices", 0, 3), ("indices", 1, 0), ("indices", 0, 2),
         ("data", 2, 0.0), ("indptr", 3, 5)],
        ids=["decreasing-indptr", "column-out-of-range", "unsorted-columns",
             "duplicate-column", "zero-value", "indptr-ends-early"],
    )
    def test_rejected_with_format_error(self, array, pos, value, tmp_path):
        path = self._written(tmp_path, lambda records: records[array].__setitem__(pos, value))
        with pytest.raises(store.FormatError):
            store.load_cooc(path)

    # the rules scipy's full CSR check enforced beyond the cases above, as records that
    # break them, each with the message of the rule that refuses it: CoocPair's, the
    # vocabulary-size rule's or the record layout's. Each exits 2 through the CLI.
    BROKEN = {
        "indptr-starts-above-0": (lambda r: r["indptr"].__setitem__(0, 1),
                                  "row offsets must start at 0, not at 1"),
        "indptr-too-long": (lambda r: r.update(indptr=np.r_[r["indptr"], r["indptr"][-1]]),
                            "3 vocabulary tokens for 4 matrix rows"),
        "indices-of-another-dtype": (lambda r: r.update(indices=r["indices"].astype(np.uint8)),
                                     "tensor 'indices' is 1-d uint8, expected 1-d int64"),
        "indices-2-d": (lambda r: r.update(indices=r["indices"].reshape(2, 3)),
                        "tensor 'indices' is 2-d int64, expected 1-d int64"),
    }

    @pytest.mark.parametrize("edit, message", BROKEN.values(), ids=BROKEN.keys())
    def test_rejected_by_loader_and_cli(self, edit, message, tmp_path):
        path = self._written(tmp_path, edit)
        with pytest.raises(store.FormatError, match=message):
            store.load_cooc(path)
        argv = ["svd", "--cooc", str(path), "--dim", "1", "--out", str(tmp_path / "emb.bin")]
        assert cli.main(argv) == 2 and not (tmp_path / "emb.bin").exists()


class TestWritersRefuseWhatLoadersRefuse:
    def test_cooc_vocabulary_of_another_size(self, pair, tmp_path):
        path = tmp_path / "pair.cooc"
        with pytest.raises(ValueError, match=r"matrix rows \(5\) and vocabulary size \(2\)"):
            store.save_cooc(pair, Vocabulary.from_tokens(["only", "two"]), path)
        assert not path.exists()

    def test_cooc_non_positive_value(self, vocab, tmp_path):
        left = as_record(np.eye(vocab.size))
        left.values[0] = 0.0
        path = tmp_path / "pair.cooc"
        with pytest.raises(CoocError, match="strictly positive"):
            store.save_cooc(CoocPair(left=left, window=2), vocab, path)
        assert not path.exists()

    def test_checkpoint_shapes_disagree_with_config(self, checkpoint, tmp_path):
        wider = dataclasses.replace(checkpoint.config, hidden=checkpoint.config.hidden + 1)
        path = tmp_path / "model.ckpt"
        with pytest.raises(TrainError, match=r"tensor 'w_c' has shape \(6, 8\), not \(7, 8\)"):
            store.save_checkpoint(Checkpoint(config=wider, params=checkpoint.params,
                                             best_epoch=1, best_val_acc=0.5), path)
        assert not path.exists()


class TestCrossLoading:
    def test_wrong_loader_fails_fast_on_magic(
        self, tmp_path, vocab, table, pair, checkpoint, records
    ):
        files = _artifact_files(tmp_path, vocab, table, pair, checkpoint, records)
        loaders = {kind: loader for kind, (_, loader) in files.items()}
        for kind, (path, _) in files.items():
            for other_kind, loader in loaders.items():
                if other_kind == kind:
                    continue
                with pytest.raises(store.StoreError):
                    loader(path)


class TestAtomicWrite:
    def test_no_temp_file_left(self, tmp_path, vocab):
        path = tmp_path / "vocab.txt"
        store.save_vocab(vocab, path)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "vocab.txt"]
        assert leftovers == []

    def test_overwrite_is_atomic_replace(self, tmp_path, vocab):
        path = tmp_path / "vocab.txt"
        store.save_vocab(vocab, path)
        bigger = Vocabulary.from_tokens(vocab.tokens + ["extra"])
        store.save_vocab(bigger, path)
        assert store.load_vocab(path).tokens == bigger.tokens

    def test_foreign_tmp_file_survives(self, tmp_path, vocab):
        # another writer's staging file under the fixed name `<name>.tmp`
        foreign = tmp_path / "vocab.txt.tmp"
        foreign.write_bytes(b"another writer's half-written bytes")
        store.save_vocab(vocab, tmp_path / "vocab.txt")
        assert foreign.read_bytes() == b"another writer's half-written bytes"
        assert store.load_vocab(tmp_path / "vocab.txt").tokens == vocab.tokens

    def test_failed_write_leaves_nothing_behind(self, tmp_path, vocab, monkeypatch):
        path = tmp_path / "vocab.txt"
        store.save_vocab(vocab, path)
        before = path.read_bytes()

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(store.os, "fsync", fail)
        bigger = Vocabulary.from_tokens(vocab.tokens + ["extra"])
        with pytest.raises(OSError, match="disk full"):
            store.save_vocab(bigger, path)
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]
        assert path.read_bytes() == before

    def test_failed_multi_record_write_leaves_old_file(self, tmp_path, vocab, monkeypatch):
        # save_cooc stages its header and each record in turn; when the fsync after them
        # fails, the old pair.cooc stays whole and no staging file is left behind
        path, expected = tmp_path / "pair.cooc", tmp_path / "expected" / "pair.cooc"
        new = _pair(np.random.default_rng(2))
        expected.parent.mkdir()
        store.save_cooc(new, vocab, expected)
        store.save_cooc(_pair(np.random.default_rng(1)), vocab, path)
        before = path.read_bytes()
        assert before != expected.read_bytes()
        staged = []

        def fail(fd):
            staged.extend(p.read_bytes() for p in tmp_path.glob(".pair.cooc.*.tmp"))
            raise OSError("disk full")

        monkeypatch.setattr(store.os, "fsync", fail)
        with pytest.raises(OSError, match="disk full"):
            store.save_cooc(new, vocab, path)
        assert staged == [expected.read_bytes()]  # every record was written before the fsync
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected", "pair.cooc"]
        assert path.read_bytes() == before

    def test_new_file_mode_follows_umask(self, tmp_path, vocab):
        path = tmp_path / "vocab.txt"
        plain = tmp_path / "plain.txt"
        store.save_vocab(vocab, path)
        plain.write_bytes(b"")
        assert path.stat().st_mode == plain.stat().st_mode


# ---------------------------------------------------------------------------
# Fuzzing: every loader either succeeds or raises a StoreError subclass
# ---------------------------------------------------------------------------

BINARY = {"cooc": store.MAGIC_COOC, "embeddings": store.MAGIC_EMB, "checkpoint": store.MAGIC_CKPT}
LAYOUTS = {"cooc": store._COOC_LAYOUT, "embeddings": store._EMB_LAYOUT,
           "checkpoint": store._CKPT_LAYOUT}
KINDS = ["vocab", "cooc", "embeddings", "checkpoint", "metrics"]
HUGE = [2**32, 2**62, 2**63, 2**64 - 1]
FUZZ = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, vocab, checkpoint, records):
    """Per artifact kind: its loader, the path fuzzed bytes go to, and a pristine file's bytes."""
    rng = np.random.default_rng(0)
    table = EmbeddingTable(vectors=rng.standard_normal((vocab.size, 4)).astype(np.float32))
    root = tmp_path_factory.mktemp("fuzz")
    files = _artifact_files(root, vocab, table, _pair(rng), checkpoint, records)
    return {kind: (loader, path, path.read_bytes()) for kind, (path, loader) in files.items()}


def _loads_or_store_error(pristine, kind, data: bytes):
    loader, path, _ = pristine[kind]
    path.write_bytes(data)
    try:
        loader(path)
    except store.StoreError:
        pass


def _wrap(kind, payload: bytes) -> bytes:
    magic = BINARY[kind]
    return magic + struct.pack("<QQ", store.VERSIONS[magic], store._checksum(payload)) + payload


def _record(name: bytes, code: int, shape, data: bytes = b"") -> bytes:
    head = struct.pack(f"<Q{len(name)}sQQ{len(shape)}Q", len(name), name, code, len(shape), *shape)
    return head + data


@st.composite
def _crafted_payloads(draw, kind):
    """A record count and records with layout or arbitrary names, any dtype code and
    shape; the data has the size the shape asks for when that is small."""
    names = st.sampled_from([name.encode() for name in LAYOUTS[kind]] + [b"\xff\xfe"])
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        code = draw(st.integers(0, 4))
        shape = draw(st.lists(st.integers(0, 4) | st.sampled_from(HUGE), max_size=3))
        itemsize = np.dtype(store._DTYPE_CODES.get(code, np.uint8)).itemsize
        size = math.prod(shape) * itemsize
        data = draw(st.binary(min_size=size, max_size=size) if size <= 64 else st.binary(max_size=64))
        parts.append(_record(draw(names | st.binary(max_size=6)), code, shape, data))
    count = draw(st.just(len(parts)) | st.integers(0, 8) | st.sampled_from(HUGE))
    return struct.pack("<Q", count) + b"".join(parts)


class TestLoaderFuzzing:
    @FUZZ
    @given(kind=st.sampled_from(KINDS), head=st.booleans(), data=st.binary(max_size=512))
    def test_arbitrary_bytes(self, pristine, kind, head, data):
        prefix = pristine[kind][2][:24] if head else b""  # a valid magic and version
        _loads_or_store_error(pristine, kind, prefix + data)

    @FUZZ
    @given(kind=st.sampled_from(KINDS), data=st.data())
    def test_bit_flips(self, pristine, kind, data):
        original = bytearray(pristine[kind][2])
        for bit in data.draw(st.lists(st.integers(0, 8 * len(original) - 1), min_size=1, max_size=3)):
            original[bit // 8] ^= 1 << (bit % 8)
        _loads_or_store_error(pristine, kind, bytes(original))

    @FUZZ
    @given(kind=st.sampled_from(KINDS), data=st.data())
    def test_truncations(self, pristine, kind, data):
        original = pristine[kind][2]
        _loads_or_store_error(pristine, kind, original[: data.draw(st.integers(0, len(original)))])

    @FUZZ
    @given(kind=st.sampled_from(sorted(BINARY)), data=st.data())
    def test_mutated_payload_in_valid_envelope(self, pristine, kind, data):
        payload = bytearray(pristine[kind][2][24:])
        for _ in range(data.draw(st.integers(1, 3))):
            start = data.draw(st.integers(0, len(payload)))
            stop = data.draw(st.integers(start, min(len(payload), start + 16)))
            word = st.sampled_from(HUGE + [0, 1, 2, 65]).map(lambda v: struct.pack("<Q", v))
            payload[start:stop] = data.draw(st.binary(max_size=16) | word)
        _loads_or_store_error(pristine, kind, _wrap(kind, bytes(payload)))

    @FUZZ
    @given(kind=st.sampled_from(sorted(BINARY)), data=st.data())
    def test_crafted_records_in_valid_envelope(self, pristine, kind, data):
        _loads_or_store_error(pristine, kind, _wrap(kind, data.draw(_crafted_payloads(kind))))

    @FUZZ
    @given(
        kind=st.sampled_from(sorted(BINARY)),
        data=st.data(),
        arr=hnp.arrays(
            st.sampled_from([np.float64, np.float32, np.int64, np.uint8]),
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
        ),
    )
    def test_one_record_replaced(self, pristine, kind, data, arr):
        """Valid records but one, which holds any small array of a stored dtype."""
        _, path, original = pristine[kind]
        path.write_bytes(original)
        records = store._load_records(path, BINARY[kind], LAYOUTS[kind])
        records[data.draw(st.sampled_from(sorted(records)))] = arr
        store._save_records(path, BINARY[kind], records)
        _loads_or_store_error(pristine, kind, path.read_bytes())

    @pytest.mark.parametrize(
        "record",
        [_record(b"vectors", 1, (2**32, 2**32)), _record(b"\xff\xfe", 1, (1,), b"\0" * 4),
         _record(b"vectors", 3, (0, 2**63)), _record(b"vectors", 3, (1,) * 65, b"\0")],
        ids=["count-wraps-to-zero", "name-not-utf8", "zero-size-huge-side", "too-many-dims"],
    )
    def test_crafted_record_is_store_error(self, pristine, record):
        _, path, _ = pristine["embeddings"]
        path.write_bytes(_wrap("embeddings", struct.pack("<Q", 1) + record))
        with pytest.raises(store.StoreError):
            store.load_embeddings(path)

    @pytest.mark.parametrize("name", ["w_a", "b_a", "v_a", "w_c", "b_c", "ln_gain", "ln_shift",
                                      "w_o", "b_o"])
    def test_tensor_shape_must_match_config(self, pristine, name):
        # a checksum-valid checkpoint whose tensor does not fit embed_dim,
        # attn_dim and hidden: w_a is (3, 5) against the config's (4, 8)
        _, path, original = pristine["checkpoint"]
        path.write_bytes(original)
        records = store._load_records(path, store.MAGIC_CKPT, store._CKPT_LAYOUT)
        shape = records[name].shape
        records[name] = np.zeros((3, 5) if name == "w_a" else shape[:-1] + (shape[-1] + 1,))
        store._save_records(path, store.MAGIC_CKPT, records)
        with pytest.raises(store.FormatError, match=f"tensor '{name}' has shape"):
            store.load_checkpoint(path)
