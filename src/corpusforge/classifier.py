"""Hashed word-n-gram linear classifier for agent-vs-general filtering.

Architecture: word unigrams (kept when their corpus count reaches
min_count) plus higher-order word n-grams over the kept tokens are hashed
into a fixed bucket space; each bucket owns a dims-vector embedding row;
a document is the mean of its feature rows, classified by a linear
softmax head trained with sequential SGD under a linearly decaying
learning rate. Training is deterministic given (sample order, rng_seed).

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
format (version 3).
"""

import json
import os
from collections import Counter
from dataclasses import dataclass, asdict, fields

import numpy as np

from .corpus import convert, replacing
from .embed import mix64

LABELS = ("agent", "general")
LABEL_INDEX = {"agent": 0, "general": 1}

MODEL_MAGIC = b"CFNG"
MODEL_FORMAT_VERSION = 3

_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment, odd


class ClassifierError(Exception):
    pass


@dataclass(frozen=True)
class FilterHyperparams:
    dims: int = 256
    learning_rate: float = 0.1
    word_ngram_max: int = 3
    min_count: int = 3
    epochs: int = 3
    bucket_count: int = 2_000_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.dims < 1 or self.word_ngram_max < 1 or self.min_count < 1:
            raise ClassifierError("dims, word_ngram_max, min_count must be positive")
        if self.learning_rate <= 0 or self.epochs < 1 or self.bucket_count < 1:
            raise ClassifierError("learning_rate, epochs, bucket_count must be positive")
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


def _occurrence_layers(slots):
    """Split slots into layers of distinct slots, the k-th layer holding
    each slot's k-th occurrence, so that updating one layer at a time
    updates a repeated slot once per occurrence, in order."""
    layers = []
    while len(slots):
        layer, first = np.unique(slots, return_index=True)
        layers.append(layer)
        slots = np.delete(slots, first)
    return layers


def _softmax2(logits):
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


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
        kept = np.array([self._keys[t] for t in tokenize(text)
                         if t in self._keys], np.uint64)
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
        pos = np.searchsorted(self.row_ids, ids).clip(max=len(self.row_ids) - 1)
        rows, miss = self.embedding_rows[pos], self.row_ids[pos] != ids
        if miss.any():
            rows[miss] = self._init_rows(ids[miss])
        return rows

    def predict_proba(self, text: str):
        """(p_agent, p_general); featureless text sits at the 0.5 prior."""
        rows = self._rows(self._feature_rows(text))
        return _softmax2(_mean_row(rows) @ self.output_weights)

    def predict_score(self, text: str) -> float:
        """Probability the text is agent-relevant."""
        return float(self.predict_proba(text)[0])


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
    featurized = [(model._feature_rows(text), LABEL_INDEX[label])
                  for text, label in samples]
    # Each occurrence's slot in the table of distinct buckets, ascending.
    occurrences = np.concatenate([rows for rows, _ in featurized])
    row_ids = np.unique(occurrences)
    table = model._init_rows(row_ids)
    ends = np.cumsum([len(rows) for rows, _ in featurized])[:-1]
    slots = np.split(np.searchsorted(row_ids, occurrences), ends)
    docs = [(s, _occurrence_layers(s), t) for s, (_, t) in zip(slots, featurized)]

    total_updates = hp.epochs * len(docs)
    step = 0
    for _ in range(hp.epochs):
        epoch_loss = 0.0
        for slots, layers, target in docs:
            lr = hp.learning_rate * (1.0 - step / total_updates)
            step += 1
            hidden = _mean_row(table[slots])
            probs = _softmax2(hidden @ model.output_weights)
            epoch_loss += -np.log(max(probs[target], 1e-300))

            grad_logits = probs.copy()
            grad_logits[target] -= 1.0
            grad_hidden = model.output_weights @ grad_logits
            model.output_weights -= lr * np.outer(hidden, grad_logits)
            delta = (lr / max(len(slots), 1)) * grad_hidden
            for layer in layers:
                table[layer] -= delta
        model.epoch_losses.append(float(epoch_loss) / len(docs))
    model.row_ids, model.embedding_rows = row_ids, table
    return model


def save_model(model: NgramLinearClassifier, path: str) -> None:
    """Versioned binary container, byte-identical for identical models.

    Layout: magic, newline-terminated JSON header {format_version,
    hyperparams, vocab, rows}, then the listed embedding rows row-major as
    little-endian float64, then the dims-by-2 output weights row-major.
    Written like every output (`corpus.replacing`): a failed write keeps
    the previous file.
    """
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "hyperparams": asdict(model.hyperparams),
        "vocab": model.vocab,
        "rows": model.row_ids.tolist(),
    }
    with replacing([path]), open(path + ".tmp", "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(model.embedding_rows, "<f8"))
        fh.write(np.ascontiguousarray(model.output_weights, "<f8"))


def _check_rows(rows, bucket_count: int) -> None:
    """Header rows are what save_model writes: strictly ascending integer
    bucket ids in [0, bucket_count)."""
    if not isinstance(rows, list) or not all(
            type(r) is int and 0 <= r < bucket_count for r in rows):
        raise ValueError(f"rows must be bucket ids in [0, {bucket_count})")
    if any(a >= b for a, b in zip(rows, rows[1:])):
        raise ValueError("rows must be strictly ascending")


def load_model(path: str) -> NgramLinearClassifier:
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ClassifierError(f"{path}: not a classifier model file")
        try:
            header = json.loads(fh.readline())
            version = header["format_version"]
            if version != MODEL_FORMAT_VERSION:
                raise ValueError(f"unsupported format version {version}")
            hp = FilterHyperparams(**{
                name: convert(_HYPERPARAM_TYPES[name], value)
                for name, value in convert(dict, header["hyperparams"]).items()})
            vocab = {token: convert(int, count)
                     for token, count in convert(dict, header["vocab"]).items()}
            rows = header["rows"]
            _check_rows(rows, hp.bucket_count)
        except (ClassifierError, KeyError, TypeError, ValueError) as exc:
            raise ClassifierError(f"{path}: bad header: {exc!r}") from exc
        # Check the body size before allocating anything the header sizes.
        needed = 8 * hp.dims * (len(rows) + 2)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if needed > left:
            raise ClassifierError(f"{path}: truncated body: the header needs "
                                  f"{needed} bytes, the file has {left}")
        # The rows, then the output weights: as many floats as two rows.
        body = np.empty((len(rows) + 2, hp.dims), dtype="<f8")
        if fh.readinto(body.reshape(-1).view(np.uint8)) != body.nbytes:
            raise ClassifierError(f"{path}: truncated body")
        if fh.read(1):
            raise ClassifierError(f"{path}: trailing bytes after output weights")
    model = NgramLinearClassifier(hp, vocab)
    model.row_ids = np.array(rows, dtype=np.uint64)
    model.embedding_rows = body[:len(rows)]
    model.output_weights = body[len(rows):].reshape(hp.dims, 2)
    return model
