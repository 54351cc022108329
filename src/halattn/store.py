"""Versioned on-disk formats with integrity validation.

Binary artifacts share an envelope of 8-byte magic, u64 version, and a u64
payload checksum (truncated SHA-256). Each format has its own version. Text
artifacts (vocabulary, metrics) carry the checksum on a trailing `#crc64`
line instead so their body stays line-oriented. Writers go through a
unique temporary file, fsync and an atomic rename.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .cooc import CoocError, CoocPair
from .corpus import Vocabulary
from .linalg import EmbeddingTable
from .model import ModelParams
from .train import Checkpoint, EpochRecord, TrainConfig

MAGIC_VOCAB = b"HALVOCAB"
MAGIC_COOC = b"HALCOO  "
MAGIC_EMB = b"HALEMB  "
MAGIC_CKPT = b"HALCKPT "
VERSIONS = {MAGIC_VOCAB: 1, MAGIC_COOC: 2, MAGIC_EMB: 1, MAGIC_CKPT: 2}

_CRC_PREFIX = b"#crc64 "
_DTYPE_CODES = {0: np.float64, 1: np.float32}
_DTYPE_OF = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


class StoreError(Exception):
    """Base class for artifact persistence failures."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = str(path)


class MagicMismatchError(StoreError):
    pass


class VersionError(StoreError):
    pass


class ChecksumMismatchError(StoreError):
    pass


class TruncatedFileError(StoreError):
    pass


class FormatError(StoreError):
    pass


def _checksum(payload: bytes) -> int:
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def _write_atomic(path: str | Path, data: bytes):
    """Stage data in a unique temp file beside path, fsync it, rename it over
    path, then fsync the directory so the rename survives a crash."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates 0600; give the artifact the mode a plain open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class _Reader:
    """Bounds-checked cursor over a byte buffer."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(self.path, "unexpected end of file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def array(self, dtype, count: int) -> np.ndarray:
        raw = self.take(count * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()

    def rest(self) -> bytes:
        out = self.data[self.pos :]
        self.pos = len(self.data)
        return out

    def expect_end(self):
        if self.pos != len(self.data):
            raise FormatError(self.path, f"{len(self.data) - self.pos} trailing bytes")


def _envelope(magic: bytes, payload: bytes) -> bytes:
    return magic + struct.pack("<QQ", VERSIONS[magic], _checksum(payload)) + payload


def _open_envelope(data: bytes, magic: bytes, path) -> _Reader:
    if len(data) < 24:
        raise TruncatedFileError(path, "file shorter than header")
    if data[:8] != magic:
        raise MagicMismatchError(path, f"expected magic {magic!r}, found {data[:8]!r}")
    version, checksum = struct.unpack("<QQ", data[8:24])
    if version != VERSIONS[magic]:
        raise VersionError(path, f"unsupported version {version}")
    payload = data[24:]
    if _checksum(payload) != checksum:
        raise ChecksumMismatchError(path, "payload checksum mismatch")
    return _Reader(payload, path)


# ---------------------------------------------------------------------------
# Vocabulary (line-oriented text)
# ---------------------------------------------------------------------------


def vocab_to_bytes(vocab: Vocabulary) -> bytes:
    for tok in vocab.tokens:
        if ("\n" in tok) or ("\r" in tok) or tok.startswith("#") or not tok:
            raise ValueError(f"token {tok!r} cannot be stored in the line format")
    body = "".join(tok + "\n" for tok in vocab.tokens).encode("utf-8")
    header = f"{MAGIC_VOCAB.decode()} {VERSIONS[MAGIC_VOCAB]} {vocab.size}\n".encode("utf-8")
    crc = _CRC_PREFIX + f"{_checksum(body):016x}".encode() + b"\n"
    return header + body + crc


def vocab_from_bytes(data: bytes, path="<bytes>") -> Vocabulary:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(path, f"not valid UTF-8: {exc}") from None
    lines = text.split("\n")
    if len(lines) < 2:
        raise TruncatedFileError(path, "missing vocabulary header")
    head = lines[0].split(" ")
    if len(head) != 3:
        raise FormatError(path, f"malformed header line {lines[0]!r}")
    if head[0] != MAGIC_VOCAB.decode():
        raise MagicMismatchError(path, f"expected magic {MAGIC_VOCAB.decode()}, found {head[0]!r}")
    if head[1] != str(VERSIONS[MAGIC_VOCAB]):
        raise VersionError(path, f"unsupported version {head[1]!r}")
    try:
        count = int(head[2])
    except ValueError:
        raise FormatError(path, f"malformed token count {head[2]!r}") from None
    if count < 0 or len(lines) < count + 3:
        raise TruncatedFileError(path, f"expected {count} token lines")
    tokens = lines[1 : count + 1]
    crc_line = lines[count + 1]
    if lines[count + 2 :] != [""]:
        raise FormatError(path, "trailing content after checksum line")
    if not crc_line.startswith(_CRC_PREFIX.decode()):
        raise FormatError(path, "missing checksum line")
    body = "".join(tok + "\n" for tok in tokens).encode("utf-8")
    try:
        stated = int(crc_line[len(_CRC_PREFIX) :], 16)
    except ValueError:
        raise FormatError(path, "malformed checksum line") from None
    if _checksum(body) != stated:
        raise ChecksumMismatchError(path, "token block checksum mismatch")
    try:
        return Vocabulary.from_tokens(tokens)
    except Exception as exc:
        raise FormatError(path, f"invalid vocabulary: {exc}") from None


def save_vocab(vocab: Vocabulary, path: str | Path):
    _write_atomic(path, vocab_to_bytes(vocab))


def load_vocab(path: str | Path) -> Vocabulary:
    return vocab_from_bytes(_read(path), path)


def _read(path: str | Path) -> bytes:
    return Path(path).read_bytes()


# ---------------------------------------------------------------------------
# Co-occurrence pair (binary)
# ---------------------------------------------------------------------------


def save_cooc(pair: CoocPair, vocab: Vocabulary, path: str | Path):
    """Write window, vocab size and left; right is left.T and is not stored."""
    left = pair.left
    payload = (
        struct.pack("<QQQ", pair.window, pair.vocab_size, left.indices.size)
        + left.indptr.astype("<i8").tobytes()
        + left.indices.astype("<i8").tobytes()
        + left.data.astype("<f8").tobytes()
        + vocab_to_bytes(vocab)
    )
    _write_atomic(path, _envelope(MAGIC_COOC, payload))


def load_cooc(path: str | Path) -> tuple[CoocPair, Vocabulary]:
    reader = _open_envelope(_read(path), MAGIC_COOC, path)
    window, vocab_size, nnz = reader.u64(), reader.u64(), reader.u64()
    indptr = reader.array("<i8", vocab_size + 1)
    indices = reader.array("<i8", nnz)
    data = reader.array("<f8", nnz)
    vocab = vocab_from_bytes(reader.rest(), path)
    if indptr[-1] != nnz:
        raise FormatError(path, f"row offsets end at {indptr[-1]}, expected {nnz} entries")
    try:
        left = sp.csr_matrix((data, indices, indptr), shape=(vocab_size, vocab_size))
        pair = CoocPair(left=left, window=window)
        pair.validate()
    except (ValueError, CoocError) as exc:
        raise FormatError(path, f"invalid co-occurrence pair: {exc}") from None
    if vocab.size != vocab_size:
        raise FormatError(path, "embedded vocabulary size disagrees with matrix size")
    return pair, vocab


# ---------------------------------------------------------------------------
# Embeddings (binary, vocabulary appended for self-containment)
# ---------------------------------------------------------------------------


def save_embeddings(table: EmbeddingTable, vocab: Vocabulary, path: str | Path):
    if table.size != vocab.size:
        raise ValueError(
            f"embedding rows ({table.size}) and vocabulary size ({vocab.size}) differ"
        )
    payload = (
        struct.pack("<QQ", table.size, table.dim)
        + table.vectors.astype("<f4").tobytes()
        + vocab_to_bytes(vocab)
    )
    _write_atomic(path, _envelope(MAGIC_EMB, payload))


def load_embeddings(path: str | Path) -> tuple[EmbeddingTable, Vocabulary]:
    reader = _open_envelope(_read(path), MAGIC_EMB, path)
    size = reader.u64()
    dim = reader.u64()
    vectors = reader.array("<f4", size * dim).reshape(size, dim)
    vocab = vocab_from_bytes(reader.rest(), path)
    if vocab.size != size:
        raise FormatError(path, "embedded vocabulary size disagrees with table rows")
    return EmbeddingTable(vectors=vectors), vocab


# ---------------------------------------------------------------------------
# Checkpoint (binary)
# ---------------------------------------------------------------------------

_POOLING_CODES = {"mean": 0, "attention": 1}
_POOLING_NAMES = {code: name for name, code in _POOLING_CODES.items()}
_INT_CONFIG_FIELDS = {
    "window", "embed_dim", "seq_len", "vocab_cap", "attn_dim", "hidden",
    "batch_size", "patience", "max_epochs", "seed",
}


def _config_bytes(config: TrainConfig) -> bytes:
    parts = []
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        if f.name == "pooling":
            parts.append(struct.pack("<q", _POOLING_CODES[value]))
        elif f.name in _INT_CONFIG_FIELDS:
            parts.append(struct.pack("<q", value))
        else:
            parts.append(struct.pack("<d", value))
    return b"".join(parts)


def _config_from(reader: _Reader, path) -> TrainConfig:
    kwargs = {}
    for f in fields(TrainConfig):
        if f.name == "pooling":
            code = reader.i64()
            if code not in _POOLING_NAMES:
                raise FormatError(path, f"unknown pooling code {code}")
            kwargs[f.name] = _POOLING_NAMES[code]
        elif f.name in _INT_CONFIG_FIELDS:
            kwargs[f.name] = reader.i64()
        else:
            kwargs[f.name] = reader.f64()
    try:
        return TrainConfig(**kwargs)
    except Exception as exc:
        raise FormatError(path, f"invalid config block: {exc}") from None


def _tensor_bytes(name: str, arr: np.ndarray) -> bytes:
    code = _DTYPE_OF[arr.dtype]
    head = struct.pack("<Q", len(name)) + name.encode("utf-8")
    head += struct.pack("<QQ", code, arr.ndim)
    head += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return head + np.ascontiguousarray(arr).tobytes()


def _tensor_from(reader: _Reader, path) -> tuple[str, np.ndarray]:
    name_len = reader.u64()
    name = reader.take(name_len).decode("utf-8")
    code = reader.u64()
    if code not in _DTYPE_CODES:
        raise FormatError(path, f"unknown dtype code {code} for tensor {name!r}")
    ndim = reader.u64()
    shape = tuple(reader.u64() for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    arr = reader.array(np.dtype(_DTYPE_CODES[code]).newbyteorder("<"), count).reshape(shape)
    return name, arr


def save_checkpoint(ckpt: Checkpoint, path: str | Path):
    tensors = ckpt.params.tensors()
    payload = (
        _config_bytes(ckpt.config)
        + struct.pack("<Qd", ckpt.best_epoch, ckpt.best_val_acc)
        + struct.pack("<Q", len(tensors))
        + b"".join(_tensor_bytes(name, arr) for name, arr in tensors.items())
    )
    _write_atomic(path, _envelope(MAGIC_CKPT, payload))


def load_checkpoint(path: str | Path) -> Checkpoint:
    reader = _open_envelope(_read(path), MAGIC_CKPT, path)
    config = _config_from(reader, path)
    best_epoch = reader.u64()
    best_val_acc = reader.f64()
    n_tensors = reader.u64()
    tensors = dict(_tensor_from(reader, path) for _ in range(n_tensors))
    reader.expect_end()
    names = [f.name for f in fields(ModelParams)]
    for name in names:
        if name not in tensors:
            raise FormatError(path, f"missing tensor {name!r}")
    extra = sorted(set(tensors) - set(names))
    if extra:
        raise FormatError(path, f"unexpected tensors {extra}")
    return Checkpoint(config=config, params=ModelParams(**tensors), best_epoch=best_epoch,
                      best_val_acc=best_val_acc)


# ---------------------------------------------------------------------------
# Metrics (CSV)
# ---------------------------------------------------------------------------

_METRICS_HEADER = "epoch,train_loss,train_acc,val_acc,test_acc,wall_seconds"


def save_metrics(records: list[EpochRecord], path: str | Path):
    lines = [_METRICS_HEADER]
    for r in records:
        test = repr(r.test_acc) if r.test_acc is not None else ""
        lines.append(
            f"{r.epoch},{r.train_loss!r},{r.train_acc!r},{r.val_acc!r},{test},{r.wall_seconds!r}"
        )
    body = ("\n".join(lines) + "\n").encode("utf-8")
    crc = _CRC_PREFIX + f"{_checksum(body):016x}".encode() + b"\n"
    _write_atomic(path, body + crc)


def load_metrics(path: str | Path) -> list[EpochRecord]:
    data = _read(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(path, f"not valid UTF-8: {exc}") from None
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        raise TruncatedFileError(path, "missing checksum line")
    crc_line = lines[-2]
    if not crc_line.startswith(_CRC_PREFIX.decode()):
        raise FormatError(path, "missing checksum line")
    body = ("\n".join(lines[:-2]) + "\n").encode("utf-8")
    try:
        stated = int(crc_line[len(_CRC_PREFIX) :], 16)
    except ValueError:
        raise FormatError(path, "malformed checksum line") from None
    if _checksum(body) != stated:
        raise ChecksumMismatchError(path, "metrics checksum mismatch")
    if lines[0] != _METRICS_HEADER:
        raise FormatError(path, f"unexpected header {lines[0]!r}")
    records = []
    for line in lines[1:-2]:
        parts = line.split(",")
        if len(parts) != 6:
            raise FormatError(path, f"malformed row {line!r}")
        try:
            records.append(
                EpochRecord(
                    epoch=int(parts[0]),
                    train_loss=float(parts[1]),
                    train_acc=float(parts[2]),
                    val_acc=float(parts[3]),
                    test_acc=float(parts[4]) if parts[4] else None,
                    wall_seconds=float(parts[5]),
                )
            )
        except ValueError as exc:
            raise FormatError(path, f"malformed row {line!r}: {exc}") from None
    return records
