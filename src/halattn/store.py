"""Versioned on-disk formats with integrity validation.

Binary artifacts share an envelope of 8-byte magic, u64 version, and a u64
payload checksum (truncated SHA-256) around a u64 record count and named,
typed records (name, dtype code, shape, little-endian data). A loader streams
the payload through the checksum, reads each record into its own array and
checks them against its format's layout; each format has its own version.
`load_cooc` frees the int64 index records once `left` holds their int32 copies.
Text artifacts (vocabulary, metrics) stay line-oriented: `_seal` follows their
body with a `#crc64` line, the same checksum in hex, over the body bytes (the
vocabulary's token lines after its header); `_unseal` is that line's one
reader. Writers go through a unique temporary file, fsync and an atomic rename.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .cooc import CoocError, CoocPair
from .corpus import Vocabulary
from .linalg import CsrMatrix, EmbeddingTable
from .model import ModelParams
from .train import Checkpoint, EpochRecord, TrainConfig, TrainError, config_text, parse_config

MAGIC_VOCAB = b"HALVOCAB"
MAGIC_COOC = b"HALCOO  "
MAGIC_EMB = b"HALEMB  "
MAGIC_CKPT = b"HALCKPT "
VERSIONS = {MAGIC_VOCAB: 1, MAGIC_COOC: 3, MAGIC_EMB: 2, MAGIC_CKPT: 3}

_CRC_PREFIX = "#crc64 "
_DTYPE_CODES = {0: np.float64, 1: np.float32, 2: np.int64, 3: np.uint8}
_DTYPE_OF = {np.dtype(dtype): code for code, dtype in _DTYPE_CODES.items()}


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


def _checksum(parts) -> int:
    digest = hashlib.sha256()
    for part in parts:  # an iterator of a file's chunks never holds the file whole
        digest.update(part)
    return int.from_bytes(digest.digest()[:8], "little")


def _write_atomic(path: str | Path, *parts):
    """Stage the bytes-like parts, in order, in a unique temp file beside path, fsync it,
    rename it over path, then fsync the directory so the rename survives a crash."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates 0600; give the artifact the mode a plain open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(parts)
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
    """Bounds-checked reads of a binary artifact's records from its open file, made once the
    header is checked and then the payload's checksum, streamed in fixed-size chunks: corruption
    is reported as such before any structural error."""

    def __init__(self, fh, magic: bytes, path):
        self.fh, self.path, head = fh, path, fh.read(24)
        if len(head) < 24:
            raise TruncatedFileError(path, "file shorter than header")
        if head[:8] != magic:
            raise MagicMismatchError(path, f"expected magic {magic!r}, found {head[:8]!r}")
        version, checksum = struct.unpack("<QQ", head[8:])
        if version != VERSIONS[magic]:
            raise VersionError(path, f"unsupported version {version}")
        if _checksum(iter(lambda: fh.read(1 << 16), b"")) != checksum:
            raise ChecksumMismatchError(path, "payload checksum mismatch")
        self.left = fh.tell() - fh.seek(24)  # the payload's size: the file's end, less the header

    def take(self, n: int, make=bytearray):
        """make(n) filled with the next n bytes; made only once they are known to be there."""
        if n > self.left:
            raise TruncatedFileError(self.path, "unexpected end of file")
        self.left, out = self.left - n, make(n)
        if self.fh.readinto(out) != n:  # the file shrank since its checksum was read
            raise TruncatedFileError(self.path, "file changed while read")
        return out

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def _tensor_from(reader: _Reader, path) -> tuple[str, np.ndarray]:
    try:
        name = str(reader.take(reader.u64()), "utf-8")
    except UnicodeDecodeError:
        raise FormatError(path, "tensor name is not valid UTF-8") from None
    code = reader.u64()
    if code not in _DTYPE_CODES:
        raise FormatError(path, f"unknown dtype code {code} for tensor {name!r}")
    dtype = np.dtype(_DTYPE_CODES[code]).newbyteorder("<")
    shape = tuple(reader.u64() for _ in range(reader.u64()))
    try:  # a fresh array per record, filled straight from the file
        return name, reader.take(math.prod(shape) * dtype.itemsize,
                                 lambda _: np.empty(shape, dtype))
    except ValueError as exc:
        raise FormatError(path, f"tensor {name!r} has unusable shape {shape}: {exc}") from None


def _save_records(path: str | Path, magic: bytes, arrays: dict[str, np.ndarray]):
    """Write the envelope around a record count and one record per array."""
    parts = [struct.pack("<Q", len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        parts += [struct.pack(f"<Q{len(encoded)}sQQ{arr.ndim}Q", len(encoded), encoded,
                              _DTYPE_OF[arr.dtype], arr.ndim, *arr.shape),
                  np.ascontiguousarray(arr)]
    header = magic + struct.pack("<QQ", VERSIONS[magic], _checksum(parts))
    _write_atomic(path, header, *parts)  # record by record: no copy of the whole file


def _load_records(path: str | Path, magic: bytes, layout: dict) -> dict[str, np.ndarray]:
    """Records of a binary artifact, checked against `layout`: exactly its names,
    each `name: (dtype, ndim)` with ndim None where any is accepted."""
    with open(path, "rb") as fh:
        reader, records = _Reader(fh, magic, path), {}
        for _ in range(reader.u64()):
            name, arr = _tensor_from(reader, path)
            if name in records:
                raise FormatError(path, f"duplicate tensor {name!r}")
            records[name] = arr
    if reader.left:
        raise FormatError(path, f"{reader.left} trailing bytes")
    for name, (dtype, ndim) in layout.items():
        if name not in records:
            raise FormatError(path, f"missing tensor {name!r}")
        arr = records[name]
        if arr.dtype != dtype or ndim not in (None, arr.ndim):
            raise FormatError(path, f"tensor {name!r} is {arr.ndim}-d {arr.dtype}, expected "
                                    f"{'' if ndim is None else f'{ndim}-d '}{np.dtype(dtype)}")
    extra = sorted(set(records) - set(layout))
    if extra:
        raise FormatError(path, f"unexpected tensors {extra}")
    return records


def _seal(head: bytes, body: bytes) -> bytes:
    """A text artifact: head, body, then the `#crc64` line over body."""
    return head + body + f"{_CRC_PREFIX}{_checksum([body]):016x}\n".encode()


def _unseal(data: bytes, start: int, path) -> list[str]:
    """The body lines that `_seal` put at data[start:]. The checksum line is the
    first line that starts with "#"; it must be the last line, end in a newline
    and checksum exactly the bytes from start up to it."""
    try:
        text = data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(path, f"not valid UTF-8: {exc}") from None
    end = 0 if text.startswith("#") else text.find("\n#") + 1
    if not text.startswith("#", end):
        raise TruncatedFileError(path, "missing checksum line")
    crc, newline, rest = text[end:].partition("\n")
    if not newline:
        raise TruncatedFileError(path, "checksum line cut short")
    if rest:
        raise FormatError(path, "content after the checksum line")
    digits = crc[len(_CRC_PREFIX) :]
    if not crc.startswith(_CRC_PREFIX) or len(digits) != 16 or digits.strip("0123456789abcdef"):
        raise FormatError(path, f"malformed checksum line {crc!r}")
    if f"{_checksum([data[start : len(data) - len(crc) - 1]]):016x}" != digits:
        raise ChecksumMismatchError(path, "checksum mismatch")
    return text[:end].split("\n")[:-1]


# ---------------------------------------------------------------------------
# Vocabulary (line-oriented text)
# ---------------------------------------------------------------------------


def vocab_to_bytes(vocab: Vocabulary) -> bytes:
    for tok in vocab.tokens:
        if ("\n" in tok) or ("\r" in tok) or tok.startswith("#") or not tok:
            raise ValueError(f"token {tok!r} cannot be stored in the line format")
    header = f"{MAGIC_VOCAB.decode()} {VERSIONS[MAGIC_VOCAB]} {vocab.size}\n".encode("utf-8")
    return _seal(header, "".join(tok + "\n" for tok in vocab.tokens).encode("utf-8"))


def vocab_from_bytes(data: bytes, path="<bytes>") -> Vocabulary:
    start = data.find(b"\n") + 1
    if not start:
        raise TruncatedFileError(path, "missing vocabulary header")
    head = data[: start - 1].split(b" ")
    if len(head) != 3:
        raise FormatError(path, f"malformed header line {data[: start - 1]!r}")
    if head[0] != MAGIC_VOCAB:
        raise MagicMismatchError(path, f"expected magic {MAGIC_VOCAB!r}, found {head[0]!r}")
    if head[1] != b"%d" % VERSIONS[MAGIC_VOCAB]:
        raise VersionError(path, f"unsupported version {head[1]!r}")
    tokens = _unseal(data, start, path)
    if head[2] != b"%d" % len(tokens):
        raise FormatError(path, f"header states {head[2]!r} tokens, the file holds {len(tokens)}")
    try:
        return Vocabulary.from_tokens(tokens)
    except Exception as exc:
        raise FormatError(path, f"invalid vocabulary: {exc}") from None


def save_vocab(vocab: Vocabulary, path: str | Path):
    _write_atomic(path, vocab_to_bytes(vocab))


def load_vocab(path: str | Path) -> Vocabulary:
    return vocab_from_bytes(Path(path).read_bytes(), path)


def _save_indexed(path: str | Path, magic: bytes, arrays: dict, rows: int, vocab: Vocabulary):
    """Write arrays whose `rows` matrix rows are indexed by vocab, then vocab's bytes."""
    if rows != vocab.size:
        raise ValueError(f"matrix rows ({rows}) and vocabulary size ({vocab.size}) differ")
    _save_records(path, magic, {**arrays, "vocab": np.frombuffer(vocab_to_bytes(vocab), np.uint8)})


def _load_indexed(path: str | Path, magic: bytes, layout: dict, rows) -> tuple[dict, Vocabulary]:
    """Records and vocabulary of a `_save_indexed` file, whose vocabulary must index the
    `rows(records)` matrix rows."""
    records = _load_records(path, magic, layout)
    vocab = vocab_from_bytes(records.pop("vocab").tobytes(), path)
    if vocab.size != rows(records):
        raise FormatError(path, f"{vocab.size} vocabulary tokens for {rows(records)} matrix rows")
    return records, vocab


# ---------------------------------------------------------------------------
# Co-occurrence pair (binary)
# ---------------------------------------------------------------------------

_COOC_LAYOUT = {"window": (np.int64, 0), "indptr": (np.int64, 1), "indices": (np.int64, 1),
                "data": (np.float64, 1), "vocab": (np.uint8, 1)}


def save_cooc(pair: CoocPair, vocab: Vocabulary, path: str | Path):
    """Write window, left and its vocabulary; right is left.T and is not stored."""
    left = pair.left
    _save_indexed(path, MAGIC_COOC, {
        "window": np.array(pair.window, dtype=np.int64),
        "indptr": left.row_offsets.astype(np.int64, copy=False),
        "indices": left.col_indices.astype(np.int64, copy=False),
        "data": left.values.astype(np.float64, copy=False),
    }, pair.vocab_size, vocab)


def load_cooc(path: str | Path) -> tuple[CoocPair, Vocabulary]:
    records, vocab = _load_indexed(path, MAGIC_COOC, _COOC_LAYOUT, lambda r: r["indptr"].size - 1)
    left = CsrMatrix(records.pop("indptr"), records.pop("indices"), records.pop("data"),
                     vocab.size, vocab.size)
    try:
        return CoocPair(left=left, window=int(records["window"])), vocab
    except CoocError as exc:
        raise FormatError(path, f"invalid co-occurrence pair: {exc}") from None


# ---------------------------------------------------------------------------
# Embeddings (binary, vocabulary stored alongside for self-containment)
# ---------------------------------------------------------------------------

_EMB_LAYOUT = {"vectors": (np.float32, 2), "vocab": (np.uint8, 1)}


def save_embeddings(table: EmbeddingTable, vocab: Vocabulary, path: str | Path):
    _save_indexed(path, MAGIC_EMB, {"vectors": table.vectors.astype(np.float32, copy=False)},
                  table.size, vocab)


def load_embeddings(path: str | Path) -> tuple[EmbeddingTable, Vocabulary]:
    records, vocab = _load_indexed(path, MAGIC_EMB, _EMB_LAYOUT,
                                   lambda r: r["vectors"].shape[0])
    return EmbeddingTable(vectors=records["vectors"]), vocab


# ---------------------------------------------------------------------------
# Checkpoint (binary; the config is stored as its `key = value` text)
# ---------------------------------------------------------------------------

_CKPT_LAYOUT = {"config": (np.uint8, 1), "best_epoch": (np.int64, 0),
                "best_val_acc": (np.float64, 0),
                **{f.name: (np.float64, None) for f in fields(ModelParams)}}


def save_checkpoint(ckpt: Checkpoint, path: str | Path):
    _save_records(path, MAGIC_CKPT, {
        "config": np.frombuffer(config_text(ckpt.config).encode("utf-8"), dtype=np.uint8),
        "best_epoch": np.array(ckpt.best_epoch, dtype=np.int64),
        "best_val_acc": np.array(ckpt.best_val_acc, dtype=np.float64),
        **ckpt.params.tensors(),
    })


def load_checkpoint(path: str | Path) -> Checkpoint:
    records = _load_records(path, MAGIC_CKPT, _CKPT_LAYOUT)
    try:
        values = parse_config(records.pop("config").tobytes().decode("utf-8"), "config")
        missing = [f.name for f in fields(TrainConfig) if f.name not in values]
        if missing:
            raise TrainError(f"missing fields {missing}")
        return Checkpoint(config=TrainConfig(**values), best_epoch=int(records.pop("best_epoch")),
                          best_val_acc=float(records.pop("best_val_acc")),
                          params=ModelParams(**records))
    except (UnicodeDecodeError, TrainError) as exc:
        raise FormatError(path, f"invalid checkpoint: {exc}") from None


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
    _write_atomic(path, _seal(b"", "".join(line + "\n" for line in lines).encode("utf-8")))


def load_metrics(path: str | Path) -> list[EpochRecord]:
    lines = _unseal(Path(path).read_bytes(), 0, path)
    if lines[:1] != [_METRICS_HEADER]:
        raise FormatError(path, f"unexpected header {''.join(lines[:1])!r}")
    records = []
    for line in lines[1:]:
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
