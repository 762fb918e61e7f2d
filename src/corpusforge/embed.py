"""Deterministic document embeddings as one unit-row matrix per corpus.

The built-in embedder hashes character n-grams into a fixed number of
buckets with signed hashing and L2-normalizes the bucket counts. It is a
dependency-free, reproducible stand-in for an external dense encoder;
real deployments load precomputed vectors with load_external_embeddings.

Each distinct byte n-gram is hashed once per EmbedderConfig, which the
embed stage builds once per call: the config memoizes every n-gram's
signed bucket in two sorted array levels, so the vectors are those of
hashing every occurrence. N-grams longer than 7 bytes do not fit the
memo's packed keys and are hashed per occurrence.

stable_hashes, the one hashing primitive, hashes grams in bulk from one
keyed state per call; stable_hash64 hashes one input.

A vectors file is parsed at most once per run: `corpus`'s run table holds
the Embeddings a load returns, as it holds each shard's Documents, and
lasts one run. save_embeddings puts in what a load of its bytes returns,
through the load's own per-record check. Loads share one read-only matrix.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import PARSE_ERRORS, parse_once, read_jsonl, write_lines


class EmbedError(Exception):
    pass


def stable_hashes(grams, seed: int) -> np.ndarray:
    """Each bytes-like gram's seeded 64-bit hash, stable across platforms:
    8-byte blake2b keyed by the seed mod 2**64, as one uint64 array."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    keyed = hashlib.blake2b(digest_size=8, key=key)
    digests = []
    for gram in grams:
        state = keyed.copy()
        state.update(gram)
        digests.append(state.digest())
    return np.frombuffer(b"".join(digests), "<u8").astype(np.uint64)


def stable_hash64(data: bytes, seed: int) -> int:
    """stable_hashes of one input."""
    return int(stable_hashes([data], seed)[0])


def _gram_bytes(rows: np.ndarray) -> list:
    """Each row of a 2-D uint8 array as one bytes object."""
    return np.ascontiguousarray(rows).view(f"V{rows.shape[1]}")[:, 0].tolist()


def _signed_buckets(grams, cfg: "EmbedderConfig") -> np.ndarray:
    """Gram buckets, each ~bucket (< 0) when its hash's top bit is set."""
    hashes = stable_hashes(grams, cfg.hash_seed)
    buckets = (hashes % np.uint64(cfg.dims)).astype(np.int32)
    return np.where(hashes >> np.uint64(63) != 0, ~buckets, buckets)


# A packed key holds an n-gram of up to 7 bytes, first byte highest, under
# its length n in the top byte.
_PACKED_MAX_N = 7
_EMPTY = (np.empty(0, np.uint64), np.empty(0, np.int32))  # (keys, values)
_MERGE_EVERY = 4096


def _unpacked(keys: np.ndarray) -> list:
    """The n-gram bytes of ascending packed keys (so grouped by n)."""
    rows = keys.astype(">u8").view(np.uint8).reshape(-1, 8)
    ends = np.cumsum(np.bincount(rows[:, 0])).tolist()
    return [gram for n in range(1, len(ends))
            for gram in _gram_bytes(rows[ends[n - 1]:ends[n], 8 - n:])]


def _merged(level: tuple, keys: np.ndarray, values: np.ndarray) -> tuple:
    """The (keys, values) level with the ascending keys, new to it, added."""
    new = np.zeros(len(level[0]) + len(keys), bool)
    new[np.searchsorted(level[0], keys) + np.arange(len(keys))] = True
    merged = tuple(np.empty(len(new), old.dtype) for old in level)
    for out, old, added in zip(merged, level, (keys, values)):
        out[new], out[~new] = added, old
    return merged


class _SignedBucketMemo:
    """Packed n-gram key -> signed bucket for one (dims, hash_seed), in two
    levels of ascending uint64 keys and int32 values. New keys join the
    recent level; merging _MERGE_EVERY keys at a time copies main rarely."""

    main = recent = _EMPTY  # each lookup replaces them, never mutates them

    def lookup(self, keys: np.ndarray, cfg: "EmbedderConfig") -> np.ndarray:
        """Buckets of ascending unique keys; new ones hashed in one call."""
        values, miss = np.empty(len(keys), np.int32), np.arange(len(keys))
        for level_keys, level_values in (self.main, self.recent):
            if len(level_keys) and len(miss):  # [:-1] keeps pos a valid index
                pos = np.searchsorted(level_keys[:-1], keys[miss])
                hit = level_keys[pos] == keys[miss]
                values[miss[hit]] = level_values[pos[hit]]
                miss = miss[~hit]
        if len(miss):
            values[miss] = _signed_buckets(_unpacked(keys[miss]), cfg)
            self.recent = _merged(self.recent, keys[miss], values[miss])
            if len(self.recent[0]) >= _MERGE_EVERY:
                self.main, self.recent = _merged(self.main, *self.recent), _EMPTY
        return values


@dataclass(frozen=True)
class EmbedderConfig:
    """Embedder settings. `memo` caches signed buckets for these settings;
    it lives as long as the config and takes no part in equality."""

    dims: int = 256
    ngram_min: int = 3
    ngram_max: int = 5
    hash_seed: int = 0
    memo: _SignedBucketMemo = field(default_factory=_SignedBucketMemo,
                                    init=False, repr=False, compare=False,
                                    hash=False)

    def __post_init__(self):
        if self.dims < 2:
            raise EmbedError("dims must be >= 2")
        if not (1 <= self.ngram_min <= self.ngram_max):
            raise EmbedError("ngram range must satisfy 1 <= min <= max")


def unit_row(row: np.ndarray, norm=None) -> np.ndarray:
    """The row over its L2 norm (given or computed), zeros if it is 0."""
    norm = np.linalg.norm(row) if norm is None else norm
    return row / norm if norm > 0.0 else np.zeros_like(row)


@dataclass(frozen=True, eq=False)
class Embeddings:
    """The vectors of a set of documents: `ids` unique and ascending, and
    one float64 `matrix` row per id, unit-norm or all zeros (no content).
    Rows are normalized once, by `embed_text` or on load.
    """

    ids: list
    matrix: np.ndarray

    @classmethod
    def from_rows(cls, rows: dict, dims: int) -> "Embeddings":
        """Stack unit-or-zero rows, keyed by id, in ascending id order."""
        ids = sorted(rows)
        matrix = np.array([rows[i] for i in ids], dtype=np.float64)
        return cls(ids, matrix.reshape(len(ids), dims))

    def __len__(self) -> int:
        return len(self.ids)

    def nonzero(self) -> "Embeddings":
        """The rows that are not all zeros."""
        keep = self.matrix.any(axis=1)
        return Embeddings([i for i, k in zip(self.ids, keep) if k],
                          self.matrix[keep])


def _packed_keys(data: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The packed key of every byte n-gram of `data` with lo <= n <= hi,
    hi <= _PACKED_MAX_N; each n extends the (n-1)-gram keys by one byte."""
    parts = []
    grams = np.zeros(len(data) + 1, np.uint64)  # the empty gram at each start
    for n in range(1, hi + 1):
        grams = (grams[:-1] << 8) | data[n - 1:]
        if n >= lo:
            parts.append(grams | np.uint64(n << 56))
    return np.concatenate(parts) if parts else np.empty(0, np.uint64)


def embed_text(text: str, cfg: EmbedderConfig) -> np.ndarray:
    """Signed-hashing character n-gram TF vector, L2-normalized.

    Empty or whitespace-only text has no n-grams and maps to the zero
    vector; downstream retrieval excludes zero vectors instead of erroring.
    """
    data = np.frombuffer(text.encode("utf-8"), np.uint8)
    keys = _packed_keys(data, cfg.ngram_min, min(cfg.ngram_max, _PACKED_MAX_N))
    unique, inverse = np.unique(keys, return_inverse=True)
    signed = cfg.memo.lookup(unique, cfg)[inverse]
    long_n = range(max(cfg.ngram_min, _PACKED_MAX_N + 1),
                   min(cfg.ngram_max, len(data)) + 1)
    long_grams = [gram for n in long_n for gram in _gram_bytes(
        np.lib.stride_tricks.sliding_window_view(data, n))]
    if long_grams:
        signed = np.concatenate([signed, _signed_buckets(long_grams, cfg)])
    # Every count is a small integer, so the order of the adds is exact.
    minus = signed < 0
    counts = np.bincount(np.where(minus, ~signed, signed),
                         weights=np.where(minus, -1.0, 1.0),
                         minlength=cfg.dims)
    return unit_row(counts)


def embed_document(doc, cfg: EmbedderConfig) -> np.ndarray:
    return embed_text(doc.text, cfg)


def load_external_embeddings(path: str) -> Embeddings:
    """Load a JSONL embedding file: {"id": "...", "v": [floats]} per line.

    Dims are inferred from the first record and enforced for the rest;
    each row is unit-normalized on load; parsed once per run (module doc).
    """
    vectors = parse_once(path, "vectors", _parse_embeddings)
    vectors.matrix.flags.writeable = False
    return Embeddings(list(vectors.ids), vectors.matrix)


def _check_record(obj, rows: dict) -> None:
    """Check a decoded {"id", "v"} record against the unit rows before it
    (`rows`, by id), as a load does, and add its row, unit-normalized."""
    doc_id, row = obj["id"], np.asarray(obj["v"], dtype=np.float64)
    if not isinstance(doc_id, str):
        raise EmbedError(f"id must be a string, got {doc_id!r}")
    if doc_id in rows:
        raise EmbedError(f"duplicate id {doc_id!r}")
    if row.ndim != 1 or not np.isfinite(norm := np.linalg.norm(row)):
        raise EmbedError("not a finite vector")
    dims = len(next(iter(rows.values()), row))
    if len(row) != dims:
        raise EmbedError(f"dims {len(row)} != expected {dims}")
    rows[doc_id] = unit_row(row, norm)


def _stacked(rows: dict) -> Embeddings:
    return Embeddings.from_rows(rows, len(next(iter(rows.values()), ())))


def _parse_embeddings(path: str) -> Embeddings:
    rows = {}
    with np.errstate(over="ignore", invalid="ignore"):  # _check_record's norm
        for _ in read_jsonl(path, lambda obj, _: _check_record(obj, rows),
                            EmbedError):
            pass
    return _stacked(rows)


def save_embeddings(vectors: Embeddings, path: str) -> None:
    """Write `vectors` as JSONL, one record per row; in a run, the run table
    gets what a load of those bytes returns, unless a load rejects them.
    json.loads gives back each record as written, so the load's own check
    runs on the records; an id holding a surrogate is not kept, because
    JSON merges an escaped surrogate pair into one code point."""
    def records():
        return ({"id": doc_id, "v": row.tolist()}
                for doc_id, row in zip(vectors.ids, vectors.matrix))

    write_lines(path, map(json.dumps, records()))
    rows = {}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for record in records():
                _check_record(record, rows)
        "".join(rows).encode("utf-8")
    except (EmbedError, *PARSE_ERRORS):  # what a load rejects
        return
    parse_once(path, "vectors", lambda _: _stacked(rows))
