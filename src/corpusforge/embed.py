"""Deterministic document embeddings as one unit-row matrix per corpus.

The built-in embedder hashes character n-grams into a fixed number of
buckets with signed hashing and L2-normalizes the bucket counts. It is a
dependency-free, reproducible stand-in for an external dense encoder;
real deployments load precomputed vectors with load_external_embeddings.

Each distinct byte n-gram is hashed once per EmbedderConfig, which the
embed stage builds once per call: the config memoizes every n-gram's
signed bucket, so the vectors are those of hashing every occurrence.
N-grams longer than 7 bytes do not fit the memo's packed keys and are
hashed per occurrence.

stable_hash64 copies a cached keyed blake2b state per call, so the key
block is compressed once per seed, not once per call.
"""

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import read_jsonl, write_lines


class EmbedError(Exception):
    pass


@functools.lru_cache(maxsize=16)
def _keyed_blake2b(seed: int):  # shared: callers copy it, never update it
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little"))


def stable_hash64(data: bytes, seed: int) -> int:
    """Seeded 64-bit hash, stable across processes and platforms: 8-byte
    blake2b keyed by the seed mod 2**64, from a cached keyed state."""
    state = _keyed_blake2b(seed & 0xFFFFFFFFFFFFFFFF).copy()
    state.update(data)
    return int.from_bytes(state.digest(), "little")


def _signed_bucket(h: int, dims: int) -> int:
    """The bucket of a 64-bit hash, or its complement ~bucket (< 0) when
    the hash's top bit gives the n-gram a minus sign."""
    bucket = h % dims
    return ~bucket if h >> 63 else bucket


# A packed key holds an n-gram of up to 7 bytes, first byte highest, under
# its length n in the top byte.
_PACKED_MAX_N = 7
_BYTES_MASK = (1 << 56) - 1
# Memo entries added since the last merge wait in a dict; merging this
# many at once keeps the sorted arrays' copies rare.
_MERGE_EVERY = 4096


class _SignedBucketMemo:
    """Packed n-gram key -> signed bucket, for one (dims, hash_seed): a
    sorted uint64 key array with its int32 values, plus a dict of the
    entries not yet merged into them."""

    def __init__(self):
        self.keys = np.empty(0, np.uint64)
        self.values = np.empty(0, np.int32)
        self.pending = {}

    def lookup(self, keys: np.ndarray, cfg: "EmbedderConfig") -> np.ndarray:
        """The signed bucket of each of the unique packed keys; only keys
        never seen before are hashed."""
        pos = np.searchsorted(self.keys, keys)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == keys[hit]
        values = np.empty(len(keys), np.int32)
        values[hit] = self.values[pos[hit]]
        miss = np.flatnonzero(~hit)
        values[miss] = [self._hashed(key, cfg) for key in keys[miss].tolist()]
        if len(self.pending) >= _MERGE_EVERY:
            self._merge()
        return values

    def _hashed(self, key: int, cfg: "EmbedderConfig") -> int:
        """The signed bucket of a key missing from the sorted arrays."""
        value = self.pending.get(key)
        if value is None:
            gram = (key & _BYTES_MASK).to_bytes(key >> 56, "big")
            value = _signed_bucket(stable_hash64(gram, cfg.hash_seed), cfg.dims)
            self.pending[key] = value
        return value

    def _merge(self):
        keys = np.fromiter(self.pending, np.uint64, len(self.pending))
        values = np.fromiter(self.pending.values(), np.int32, len(self.pending))
        order = np.argsort(keys)
        pos = np.searchsorted(self.keys, keys[order])
        self.keys = np.insert(self.keys, pos, keys[order])
        self.values = np.insert(self.values, pos, values[order])
        self.pending = {}


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


def unit_row(row: np.ndarray) -> np.ndarray:
    """The row divided by its L2 norm, or all zeros when the norm is 0."""
    norm = np.linalg.norm(row)
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
    data = text.encode("utf-8")
    keys = _packed_keys(np.frombuffer(data, np.uint8), cfg.ngram_min,
                        min(cfg.ngram_max, _PACKED_MAX_N))
    unique, inverse = np.unique(keys, return_inverse=True)
    signed = cfg.memo.lookup(unique, cfg)[inverse]
    long_n = range(max(cfg.ngram_min, _PACKED_MAX_N + 1), cfg.ngram_max + 1)
    long_grams = [
        _signed_bucket(stable_hash64(data[i:i + n], cfg.hash_seed), cfg.dims)
        for n in long_n for i in range(len(data) - n + 1)]
    if long_grams:
        signed = np.concatenate([signed, np.array(long_grams, np.int32)])
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
    each row is unit-normalized on load.
    """
    rows = {}

    def parse(obj, _):
        doc_id, row = obj["id"], np.asarray(obj["v"], dtype=np.float64)
        if not isinstance(doc_id, str):
            raise EmbedError(f"id must be a string, got {doc_id!r}")
        if doc_id in rows:
            raise EmbedError(f"duplicate id {doc_id!r}")
        if row.ndim != 1 or not np.isfinite(np.linalg.norm(row)):
            raise EmbedError("not a finite vector")
        dims = len(next(iter(rows.values()), row))
        if len(row) != dims:
            raise EmbedError(f"dims {len(row)} != expected {dims}")
        return doc_id, unit_row(row)

    for doc_id, row in read_jsonl(path, parse, EmbedError):
        rows[doc_id] = row
    return Embeddings.from_rows(rows, len(next(iter(rows.values()), ())))


def save_embeddings(vectors: Embeddings, path: str) -> None:
    write_lines(path, (json.dumps({"id": doc_id, "v": row.tolist()})
                       for doc_id, row in zip(vectors.ids, vectors.matrix)))
