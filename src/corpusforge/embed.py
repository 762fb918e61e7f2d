"""Deterministic document embeddings as one unit-row matrix per corpus.

The built-in embedder hashes character n-grams into a fixed number of
buckets with signed hashing and L2-normalizes the bucket counts. It is a
dependency-free, reproducible stand-in for an external dense encoder;
real deployments load precomputed vectors with load_external_embeddings.

An n-gram's hash chains `mix64`, the SplitMix64 finalizer, byte by byte,
wrapping mod 2**64: h_0 = mix64(hash_seed), and the n-gram that extends
an (n-1)-gram by byte b hashes to h_n = mix64(h_{n-1} + (b + 1) *
0x9E3779B97F4A7C15). So one array pass per n hashes every n-gram of a
text. Each n-gram adds +1, or -1 when bit 63 of its hash is set, at
bucket hash mod dims: one integer bincount over the n-grams of every
length counts the +1s at bin `bucket` and the -1s at bin `dims +
bucket`, and a bucket's value is the difference. Every count is a small
integer, so the float64 row is exactly what adding the ±1s one by one,
in any order, would give.

mix64 is the program's one hash primitive: the classifier hashes its
vocab tokens, word n-grams and row seeds with it too.

A vectors file is parsed at most once per run: `corpus`'s run table holds
the Embeddings a load returns, as it holds each shard's Documents, and
lasts one run. save_embeddings puts in what a load of its bytes returns,
checked as one array. Loads share one read-only matrix.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import parse_once, read_jsonl, write_lines


class EmbedError(Exception):
    pass


_U64 = np.uint64
# The step (b + 1) * 0x9E3779B97F4A7C15 mod 2**64 of each byte b.
_STEPS = np.arange(1, 257, dtype=np.uint64) * _U64(0x9E3779B97F4A7C15)


def mix64(z: np.ndarray, t=None) -> np.ndarray:
    """The SplitMix64 finalizer (Steele, Lea & Flood, OOPSLA 2014) of each
    element of the uint64 array z, in place; `t`, a scratch array of z's
    shape, saves an allocation. uint64 arithmetic wraps, as the mix needs;
    every scalar is np.uint64, since numpy 1.x promotes uint64 mixed with
    int64 to float64."""
    t = np.empty_like(z) if t is None else t
    z ^= np.right_shift(z, _U64(30), out=t)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, _U64(27), out=t)
    z *= _U64(0x94D049BB133111EB)
    z ^= np.right_shift(z, _U64(31), out=t)
    return z


@dataclass(frozen=True)
class EmbedderConfig:
    """Embedder settings: `dims` buckets, n-grams of ngram_min to ngram_max
    bytes, and the seed of the n-gram hash."""

    dims: int = 256
    ngram_min: int = 3
    ngram_max: int = 5
    hash_seed: int = 0

    def __post_init__(self):
        if self.dims < 2:
            raise EmbedError("dims must be >= 2")
        if not (1 <= self.ngram_min <= self.ngram_max):
            raise EmbedError("ngram range must satisfy 1 <= min <= max")

    @cached_property
    def start_hash(self) -> np.uint64:
        """h_0 = mix64(hash_seed mod 2**64), the hash of the empty gram."""
        return mix64(np.array([self.hash_seed % 2**64], np.uint64))[0]


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


def embed_text(text: str, cfg: EmbedderConfig) -> np.ndarray:
    """Signed-hashing byte n-gram TF vector, L2-normalized (module doc).

    Text of fewer than ngram_min bytes has no n-grams and maps to the zero
    vector; downstream retrieval excludes zero vectors instead of erroring.
    """
    data = np.frombuffer(text.encode("utf-8"), np.uint8)
    steps = _STEPS[data]
    size, top = len(data), min(cfg.ngram_max, len(data))
    grams = np.full(size, cfg.start_hash, np.uint64)  # empty gram per start
    scratch = np.empty_like(grams)
    # The hash of every counted n-gram, one block per n.
    hashes = np.empty(
        sum(size - n + 1 for n in range(cfg.ngram_min, top + 1)), np.uint64)
    at = 0
    for n in range(1, top + 1):
        grams = grams[:size - n + 1]  # each extends the (n-1)-gram
        grams += steps[n - 1:]
        mix64(grams, scratch[:len(grams)])
        if n >= cfg.ngram_min:
            hashes[at:at + len(grams)] = grams
            at += len(grams)
    # Bin `bucket` counts the +1s, bin `dims + bucket` the -1s (module doc).
    dims = _U64(cfg.dims)
    bins = hashes % dims + (hashes >> _U64(63)) * dims
    counts = np.bincount(bins.astype(np.intp), minlength=2 * cfg.dims)
    signed = counts[:cfg.dims] - counts[cfg.dims:]
    return unit_row(signed.astype(np.float64))


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
    doc_id, v = obj["id"], obj["v"]
    if not isinstance(doc_id, str):
        raise EmbedError(f"id must be a string, got {doc_id!r}")
    if doc_id in rows:
        raise EmbedError(f"duplicate id {doc_id!r}")
    if not (isinstance(v, list) and set(map(type, v)) <= {int, float}):
        raise EmbedError(f"v must be an array of numbers, got {v!r:.80}")
    row = np.asarray(v, dtype=np.float64)
    if not np.isfinite(norm := np.linalg.norm(row)):
        raise EmbedError("not a finite vector")
    dims = len(next(iter(rows.values()), row))
    if len(row) != dims:
        raise EmbedError(f"dims {len(row)} != expected {dims}")
    rows[doc_id] = unit_row(row, norm)


def _parse_embeddings(path: str) -> Embeddings:
    rows = {}
    with np.errstate(over="ignore", invalid="ignore"):  # _check_record's norm
        for _ in read_jsonl(path, lambda obj, _: _check_record(obj, rows),
                            EmbedError):
            pass
    return Embeddings.from_rows(rows, len(next(iter(rows.values()), ())))


# Rows per block of _vector_lines. Blocks of 256 or 1,024 rows were no
# faster, and their temporaries took more memory.
_SAVE_BLOCK_ROWS = 64
# json's spelling of the floats whose repr is not JSON.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _vector_lines(ids: list, matrix: np.ndarray):
    """json.dumps({"id": id, "v": row.tolist()}) of each row of a C-order
    float64 matrix. A row is integer counts over one norm, so a block of 64
    rows holds a quarter to a third as many distinct floats as entries:
    each is formatted once, told apart by its bits (0.0 is not -0.0)."""
    for start in range(0, len(matrix), _SAVE_BLOCK_ROWS):
        block = matrix[start:start + _SAVE_BLOCK_ROWS]
        bits, at = np.unique(block.view(np.uint64), return_inverse=True)
        text = np.array([_JSON_NONFINITE.get(r, r) for r in map(
            float.__repr__, bits.view(np.float64).tolist())], dtype=object)
        for doc_id, row in zip(ids[start:start + _SAVE_BLOCK_ROWS],
                               text[at.reshape(block.shape)].tolist()):
            yield f'{{"id": {json.dumps(doc_id)}, "v": [{", ".join(row)}]}}'


def save_embeddings(vectors: Embeddings, path: str) -> None:
    """Write `vectors` as JSONL, each row's line as json.dumps({"id": id,
    "v": row.tolist()}) writes it (_vector_lines). In a run, the run table
    gets what a load of those bytes returns, unless a load rejects them:
    the load's checks run on the matrix as one array, each row's norm the
    np.linalg.norm of a contiguous float64 row, as _check_record takes it.
    An id holding a surrogate is not kept, as JSON merges an escaped pair
    into one code point."""
    ids, matrix = vectors.ids, np.ascontiguousarray(vectors.matrix, np.float64)
    write_lines(path, _vector_lines(ids, matrix))
    try:  # a non-string id, or one holding a surrogate
        "".join(ids).encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        return
    with np.errstate(over="ignore", invalid="ignore"):  # as _check_record
        norms = np.array([np.linalg.norm(row) for row in matrix])
    if not (len(set(ids)) == len(ids) == len(matrix)
            and np.isfinite(norms).all()):
        return
    unit = np.divide(matrix, norms[:, None], out=np.zeros_like(matrix),
                     where=norms[:, None] > 0.0)  # unit_row of each row
    if ids != (ranked := sorted(ids)):
        unit = unit[sorted(range(len(ids)), key=ids.__getitem__)]
    parse_once(path, "vectors", lambda _: Embeddings(
        ranked, unit if ids else unit.reshape(0, 0)))
