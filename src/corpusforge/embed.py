"""Deterministic document embeddings as one unit-row matrix per corpus.

The built-in embedder hashes character n-grams into a fixed number of
buckets with signed hashing and L2-normalizes the bucket counts. It is a
dependency-free, reproducible stand-in for an external dense encoder;
real deployments load precomputed vectors with load_external_embeddings.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .corpus import read_jsonl, write_lines


class EmbedError(Exception):
    pass


def stable_hash64(data: bytes, seed: int) -> int:
    """Seeded 64-bit hash, stable across processes and platforms."""
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(data, digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class EmbedderConfig:
    dims: int = 256
    ngram_min: int = 3
    ngram_max: int = 5
    hash_seed: int = 0

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


def embed_text(text: str, cfg: EmbedderConfig) -> np.ndarray:
    """Signed-hashing character n-gram TF vector, L2-normalized.

    Empty or whitespace-only text has no n-grams and maps to the zero
    vector; downstream retrieval excludes zero vectors instead of erroring.
    """
    vec = np.zeros(cfg.dims, dtype=np.float64)
    data = text.encode("utf-8")
    for n in range(cfg.ngram_min, cfg.ngram_max + 1):
        if len(data) < n:
            break
        for i in range(len(data) - n + 1):
            h = stable_hash64(data[i:i + n], cfg.hash_seed)
            bucket = h % cfg.dims
            sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
            vec[bucket] += sign
    return unit_row(vec)


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
