"""Hashed word-n-gram linear classifier for agent-vs-general filtering.

Architecture: word unigrams (kept when their corpus count reaches
min_count) plus higher-order word n-grams over the kept tokens are hashed
into a fixed bucket space; each bucket owns a dims-vector embedding row;
a document is the mean of its feature rows, classified by a linear
softmax head trained with sequential SGD under a linearly decaying
learning rate. Training is deterministic given (sample order, rng_seed).

Model bytes, epoch_losses and scores rest on one floating-point order:
row sums are np.add.reduce(axis=0) in occurrence order (a running sum at
dims 1); hidden @ output_weights and output_weights @ grad_logits are
BLAS calls; the softmax calls np.exp once on both max-shifted logits;
the weights drop lr * outer(hidden, grad_logits), lr times the product;
a row drops (lr / n) * grad_hidden per occurrence, layer by layer.

Every hash is `embed.mix64`, the SplitMix64 finalizer, wrapping mod
2**64. A model keys each vocab token once, when it is built: the key is
mix64 of the token's index in sorted(vocab) plus mix64(rng_seed). A word
n-gram hashes to mix64 of n plus a weighted sum of its tokens' keys, and
its bucket is that hash mod bucket_count; nothing per gram is kept.

Only buckets that training touches get a stored row: row_ids, ascending
uint64 bucket ids, and embedding_rows, their (n, dims) float64 table. An
initial row is SplitMix64 draws 1..dims from the bucket's seed,
mix64(bucket + mix64(rng_seed ^ 0x5EED)), mapped to [-1/dims, 1/dims).
Scoring regenerates the initial row of each untrained bucket it meets and
keeps none, so the hashes and this initializer are part of the model
format (version 4).
"""

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, asdict, fields

import numpy as np

from .corpus import convert, replacing, unique_keys
from .embed import mix64

LABELS = ("agent", "general")
LABEL_INDEX = {"agent": 0, "general": 1}
_ONE_HOT = np.eye(2)  # row t: the target distribution of label index t

MODEL_MAGIC = b"CFNG"
MODEL_FORMAT_VERSION = 4

_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment, odd


class ClassifierError(Exception):
    pass


@dataclass(frozen=True)
class FilterHyperparams:
    dims: int = 16
    learning_rate: float = 1.0
    word_ngram_max: int = 3
    min_count: int = 3
    epochs: int = 3
    bucket_count: int = 2_000_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.dims < 1 or self.word_ngram_max < 1 or self.min_count < 1:
            raise ClassifierError("dims, word_ngram_max, min_count must be positive")
        if not 0 < self.learning_rate < math.inf:  # false for NaN too
            raise ClassifierError("learning_rate must be finite and positive")
        if self.epochs < 1 or self.bucket_count < 1:
            raise ClassifierError("epochs, bucket_count must be positive")
        if self.bucket_count >= 2**64:
            raise ClassifierError("bucket_count must be below 2**64 (uint64 ids)")


_HYPERPARAM_TYPES = {f.name: f.type for f in fields(FilterHyperparams)}


def tokenize(text: str) -> list:
    return text.split()


def build_vocab(texts, min_count: int) -> dict:
    """Unigram counts, keeping only tokens seen at least min_count times.

    min_count applies to unigrams only; higher-order n-grams are always
    hashed (they have no stored vocabulary).
    """
    counts = Counter(tok for text in texts for tok in tokenize(text))
    return {tok: c for tok, c in counts.items() if c >= min_count}


_SEED_BLOCK_ROWS = 64  # rows per block of uint64 draws: 128 kB at dims 256


def _seed_rows(seeds, dims: int):
    """SplitMix64 draws 1..dims from each seed (`embed.mix64` of the seed
    plus k * 0x9E3779B97F4A7C15), as doubles in [0, 1) mapped to
    [-1/dims, 1/dims): one row per seed, in one (n, dims) array."""
    u64 = np.uint64
    seeds = np.asarray(seeds, dtype=u64).reshape(-1, 1)
    steps = np.arange(1, dims + 1, dtype=u64) * u64(_GOLDEN)
    table = np.empty((len(seeds), dims), dtype=np.float64)
    # uniform(low, high)'s low + (high - low) * draw, the draw's 2**-53 folded
    # into the scale: scalings by powers of two are exact, so rounding is unchanged.
    bound = 1.0 / dims
    scale = 2.0 ** -53 * (2 * bound)
    z = np.empty((min(len(seeds), _SEED_BLOCK_ROWS), dims), dtype=u64)
    t = np.empty_like(z)
    for start in range(0, len(seeds), _SEED_BLOCK_ROWS):
        block = seeds[start:start + _SEED_BLOCK_ROWS]
        z, t = z[:len(block)], t[:len(block)]  # only the last block is short
        mix64(np.add(block, steps, out=z), t)
        z >>= u64(11)
        rows = np.multiply(z, scale, out=table[start:start + len(block)])
        rows += -bound
    return table


def _unique_slots(occurrences):
    """np.unique(occurrences, return_inverse=True) with fewer temporaries
    alive at once; np.unique raised peak RSS by 4 MB on zipf_filter."""
    order = occurrences.argsort()
    occurrences = occurrences[order]
    first = np.ones(len(order), bool)
    np.not_equal(occurrences[1:], occurrences[:-1], out=first[1:])
    slots = np.empty(len(order), np.intp)
    slots[order] = np.cumsum(first) - 1
    return occurrences[first], slots


def _occurrence_layers(slots):
    """A document's distinct slots, most repeated first, and its layer
    sizes: layer k, the first sizes[k] slots, holds those seen more than k
    times, so updating layer by layer updates a slot once per occurrence."""
    distinct, counts = np.unique(slots, return_counts=True)
    sizes = len(distinct) - np.cumsum(np.bincount(counts)[:-1])
    return distinct[np.argsort(-counts, kind="stable")], sizes.tolist()


def _softmax2(logits):
    """Softmax of two logits as floats: shifted by their max, one np.exp."""
    a, b = logits.tolist()
    ea, eb = np.exp(np.array((a - max(a, b), b - max(a, b)))).tolist()
    return ea / (ea + eb), eb / (ea + eb)


def _mean_row(rows):
    """Mean of the rows, summed one row after another; zeros for none.

    np.add.reduce along axis 0 adds whole rows in turn, but it sums the
    one column of 1-wide rows pairwise, so those take a running sum.
    """
    if not len(rows):
        return np.zeros(rows.shape[1], dtype=np.float64)
    if rows.shape[1] == 1:
        return np.add.accumulate(rows, axis=0)[-1] / len(rows)
    return np.add.reduce(rows, axis=0) / len(rows)


class NgramLinearClassifier:
    def __init__(self, hyperparams: FilterHyperparams, vocab: dict):
        self.hyperparams = hyperparams
        self.vocab = vocab
        self.row_ids = np.zeros(0, dtype=np.uint64)  # trained, ascending
        self.embedding_rows = np.zeros((0, hyperparams.dims))  # their rows
        seed = hyperparams.rng_seed
        key_base, self._row_base = mix64(np.array(
            [seed % 2**64, (seed ^ 0x5EED) % 2**64], np.uint64))
        keys = mix64(np.arange(len(vocab), dtype=np.uint64) + key_base)
        self._keys = dict(zip(sorted(vocab), keys.tolist()))  # token -> key
        self.output_weights = np.zeros((hyperparams.dims, 2), dtype=np.float64)
        self.epoch_losses = []

    def _init_rows(self, buckets):
        """The initial rows of the buckets, as one (n, dims) array: each
        from the seed mix64(bucket + mix64(rng_seed ^ 0x5EED))."""
        seeds = mix64(np.asarray(buckets, np.uint64) + self._row_base)
        return _seed_rows(seeds, self.hyperparams.dims)

    def _feature_rows(self, text: str) -> np.ndarray:
        """Bucket ids, as uint64, of the word n-grams of the text's vocab
        tokens, n = 1 to word_ngram_max, each n in text order. The n-gram
        at kept token i hashes to mix64(n + sum over j < n of key[i + j] *
        (2j + 1) * 0x9E3779B97F4A7C15), wrapping mod 2**64: one mix64
        pass over every n-gram of the text."""
        hp = self.hyperparams
        kept = np.array([k for k in map(self._keys.get, tokenize(text))
                         if k is not None], np.uint64)
        n_max = min(hp.word_ngram_max, len(kept))
        sums = np.zeros(len(kept), np.uint64)  # each n-gram's sum at token i
        grams = np.empty(n_max * len(kept) - n_max * (n_max - 1) // 2,
                         np.uint64)
        end = 0
        for n in range(1, n_max + 1):
            sums = sums[:len(kept) - n + 1]  # each extends the (n-1)-gram
            sums += kept[n - 1:] * np.uint64((2 * n - 1) * _GOLDEN % 2**64)
            end += len(sums)
            np.add(sums, np.uint64(n), out=grams[end - len(sums):end])
        return mix64(grams) % np.uint64(hp.bucket_count)

    def _rows(self, buckets):
        """The buckets' rows as one (len(buckets), dims) array; an untrained
        bucket gets its initial row, regenerated on every call."""
        # Ids meet ids only as uint64: numpy 1.x compares uint64 with
        # int64 as float64, which merges distinct ids above 2**53.
        ids = np.asarray(buckets, dtype=np.uint64)
        if not len(self.row_ids):
            return self._init_rows(ids)
        pos = np.searchsorted(self.row_ids, ids)
        np.minimum(pos, len(self.row_ids) - 1, out=pos)
        rows = self.embedding_rows.take(pos, axis=0)
        miss = np.flatnonzero(self.row_ids.take(pos) != ids)
        if len(miss):
            rows[miss] = self._init_rows(ids[miss])
        return rows

    def predict_proba(self, text: str):
        """(p_agent, p_general) floats; featureless text gets the 0.5 prior."""
        rows = self._rows(self._feature_rows(text))
        return _softmax2(_mean_row(rows) @ self.output_weights)

    def predict_score(self, text: str) -> float:
        """Probability the text is agent-relevant."""
        return self.predict_proba(text)[0]


def train_filter(samples, hp: FilterHyperparams) -> NgramLinearClassifier:
    """Train on (text, label) pairs with label in {"agent", "general"}.

    Sequential SGD over the samples in given order, learning rate decaying
    linearly from hp.learning_rate to 0 across all epochs.
    """
    samples = list(samples)
    if not samples:
        raise ClassifierError("no training samples")
    labels = {label for _, label in samples}
    bad = labels - set(LABELS)
    if bad:
        raise ClassifierError(f"unknown labels: {sorted(bad)}")
    if len(labels) < 2:
        raise ClassifierError("training data must contain both classes")

    vocab = build_vocab((text for text, _ in samples), hp.min_count)
    if not vocab:
        raise ClassifierError(f"empty vocabulary after min_count={hp.min_count}")

    model = NgramLinearClassifier(hp, vocab)
    featurized = [model._feature_rows(text) for text, _ in samples]
    ends = np.cumsum([len(rows) for rows in featurized])[:-1]
    row_ids, slots = _unique_slots(np.concatenate(featurized))
    del featurized
    docs = [(s, *_occurrence_layers(s), LABEL_INDEX[label])
            for s, (_, label) in zip(np.split(slots, ends), samples)]
    table = model._init_rows(row_ids)

    weights = model.output_weights
    total_updates = hp.epochs * len(docs)
    step = 0
    for _ in range(hp.epochs):
        epoch_loss = 0.0
        for slots, distinct, sizes, target in docs:
            lr = hp.learning_rate * (1.0 - step / total_updates)
            step += 1
            hidden = _mean_row(table.take(slots, axis=0))
            probs = _softmax2(hidden @ weights)
            epoch_loss += -np.log(max(probs[target], 1e-300))

            grad_logits = np.subtract(probs, _ONE_HOT[target])
            grad_hidden = weights @ grad_logits
            # lr * outer(hidden, grad_logits) built as its transpose: numpy
            # loops over 2 rows of dims faster than over dims rows of 2.
            np.subtract(weights.T, lr * np.multiply.outer(grad_logits, hidden),
                        out=weights.T)
            delta = (lr / max(len(slots), 1)) * grad_hidden
            rows = table.take(distinct, axis=0)
            for size in sizes:
                rows[:size] -= delta
            table[distinct] = rows
        model.epoch_losses.append(float(epoch_loss) / len(docs))
    model.row_ids, model.embedding_rows = row_ids, table
    return model


def save_model(model: NgramLinearClassifier, path: str) -> None:
    """Versioned binary container, byte-identical for identical models.

    Layout: magic, newline-terminated JSON header {format_version,
    hyperparams, rows, vocab}, rows being the count of stored rows, then
    their bucket ids as little-endian uint64, the embedding rows row-major
    as little-endian float64 and the dims-by-2 output weights row-major.
    Written like every output (`corpus.replacing`): a failed write keeps
    the previous file.
    """
    header = json.dumps({"format_version": MODEL_FORMAT_VERSION,
                         "hyperparams": asdict(model.hyperparams),
                         "rows": len(model.row_ids), "vocab": model.vocab},
                        sort_keys=True, separators=(",", ":"))
    with replacing([path]), open(path + ".tmp", "wb") as fh:
        fh.write(MODEL_MAGIC + header.encode() + b"\n")
        fh.write(np.ascontiguousarray(model.row_ids, "<u8"))
        fh.write(np.ascontiguousarray(model.embedding_rows, "<f8"))
        fh.write(np.ascontiguousarray(model.output_weights, "<f8"))


def load_model(path: str) -> NgramLinearClassifier:
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ClassifierError(f"{path}: not a classifier model file")
        try:
            header = json.loads(fh.readline(), object_pairs_hook=unique_keys)
            version = header["format_version"]
            if version != MODEL_FORMAT_VERSION:
                raise ValueError(f"unsupported format version {version}")
            hp = FilterHyperparams(**{
                name: convert(_HYPERPARAM_TYPES[name], value)
                for name, value in convert(dict, header["hyperparams"]).items()})
            vocab = {token: convert(int, count)
                     for token, count in convert(dict, header["vocab"]).items()}
            n = header["rows"]
            if type(n) is not int or n < 0:
                raise ValueError(f"rows must be a non-negative integer, got {n!r}")
        except (ClassifierError, KeyError, TypeError, ValueError) as exc:
            raise ClassifierError(f"{path}: bad header: {exc!r}") from exc
        # Check the body size before allocating anything the header sizes.
        # The body is n ids, n rows and the output weights: as many 8-byte
        # values as n rows of dims + 1 and two rows of dims.
        needed = 8 * (n * (hp.dims + 1) + 2 * hp.dims)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if needed > left:
            raise ClassifierError(f"{path}: truncated body: the header needs "
                                  f"{needed} bytes, the file has {left}")
        body = np.empty(needed // 8, dtype="<f8")
        if fh.readinto(body.view(np.uint8)) != needed:
            raise ClassifierError(f"{path}: truncated body")
        if fh.read(1):
            raise ClassifierError(f"{path}: trailing bytes after output weights")
    # Ids meet ids only as uint64 (see _rows).
    ids = body[:n].view("<u8")
    if (ids >= np.uint64(hp.bucket_count)).any() or (ids[1:] <= ids[:-1]).any():
        raise ClassifierError(f"{path}: row ids must be strictly ascending "
                              f"bucket ids below {hp.bucket_count}")
    model = NgramLinearClassifier(hp, vocab)
    model.row_ids = ids
    model.embedding_rows = body[n:n * (hp.dims + 1)].reshape(n, hp.dims)
    model.output_weights = body[n * (hp.dims + 1):].reshape(hp.dims, 2)
    return model
