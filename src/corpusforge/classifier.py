"""Hashed word-n-gram linear classifier for agent-vs-general filtering.

Architecture: word unigrams (kept when their corpus count reaches
min_count) plus higher-order word n-grams over the kept tokens are hashed
into a fixed bucket space; each bucket owns a dims-vector embedding row;
a document is the mean of its feature rows, classified by a linear
softmax head trained with sequential SGD under a linearly decaying
learning rate. Training is deterministic given (sample order, rng_seed).

The embedding table is stored sparsely: only buckets ever touched get a
materialized row, and untouched rows are regenerated on demand from a
per-row seed, so large bucket counts cost nothing at desk scale.
"""

import json
from dataclasses import dataclass, asdict

import numpy as np

from .embed import stable_hash64

LABELS = ("agent", "general")
LABEL_INDEX = {"agent": 0, "general": 1}

MODEL_MAGIC = b"CFNG"
MODEL_FORMAT_VERSION = 1

_NGRAM_SEP = b"\x1f"


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


def tokenize(text: str) -> list:
    return text.split()


def build_vocab(texts, min_count: int) -> dict:
    """Unigram counts, keeping only tokens seen at least min_count times.

    min_count applies to unigrams only; higher-order n-grams are always
    hashed (they have no stored vocabulary).
    """
    counts = {}
    for text in texts:
        for tok in tokenize(text):
            counts[tok] = counts.get(tok, 0) + 1
    return {tok: c for tok, c in counts.items() if c >= min_count}


def _feature_rows(tokens, vocab, hp: FilterHyperparams) -> list:
    """Hashed bucket ids for kept unigrams and their n-grams, in text order."""
    kept = [t for t in tokens if t in vocab]
    rows = []
    for tok in kept:
        rows.append(stable_hash64(tok.encode("utf-8"), hp.rng_seed) % hp.bucket_count)
    for n in range(2, hp.word_ngram_max + 1):
        for i in range(len(kept) - n + 1):
            gram = _NGRAM_SEP.join(t.encode("utf-8") for t in kept[i:i + n])
            rows.append(stable_hash64(gram, hp.rng_seed) % hp.bucket_count)
    return rows


def _softmax2(logits):
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


class NgramLinearClassifier:
    def __init__(self, hyperparams: FilterHyperparams, vocab: dict):
        self.hyperparams = hyperparams
        self.vocab = vocab
        self.embedding_rows = {}  # bucket id -> dims float64 row
        self.output_weights = np.zeros((hyperparams.dims, 2), dtype=np.float64)
        self.epoch_losses = []

    def _row(self, bucket: int):
        row = self.embedding_rows.get(bucket)
        if row is None:
            seed = stable_hash64(bucket.to_bytes(8, "little"),
                                 self.hyperparams.rng_seed ^ 0x5EED)
            bound = 1.0 / self.hyperparams.dims
            row = np.random.default_rng(seed).uniform(-bound, bound,
                                                      self.hyperparams.dims)
            self.embedding_rows[bucket] = row
        return row

    def _hidden(self, rows):
        if not rows:
            return np.zeros(self.hyperparams.dims, dtype=np.float64)
        acc = np.zeros(self.hyperparams.dims, dtype=np.float64)
        for r in rows:
            acc += self._row(r)
        return acc / len(rows)

    def predict_proba(self, text: str):
        """(p_agent, p_general); featureless text sits at the 0.5 prior."""
        rows = _feature_rows(tokenize(text), self.vocab, self.hyperparams)
        hidden = self._hidden(rows)
        return _softmax2(hidden @ self.output_weights)

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
    featurized = [(_feature_rows(tokenize(text), vocab, hp), LABEL_INDEX[label])
                  for text, label in samples]

    total_updates = hp.epochs * len(featurized)
    step = 0
    for _ in range(hp.epochs):
        epoch_loss = 0.0
        for rows, target in featurized:
            lr = hp.learning_rate * (1.0 - step / total_updates)
            step += 1
            hidden = model._hidden(rows)
            probs = _softmax2(hidden @ model.output_weights)
            epoch_loss += -np.log(max(probs[target], 1e-300))

            grad_logits = probs.copy()
            grad_logits[target] -= 1.0
            grad_hidden = model.output_weights @ grad_logits
            model.output_weights -= lr * np.outer(hidden, grad_logits)
            if rows:
                delta = (lr / len(rows)) * grad_hidden
                for r in rows:
                    model.embedding_rows[r] = model._row(r) - delta
        model.epoch_losses.append(float(epoch_loss) / len(featurized))
    return model


def save_model(model: NgramLinearClassifier, path: str) -> None:
    """Versioned binary container, byte-identical for identical models.

    Layout: magic, newline-terminated JSON header {format_version,
    hyperparams, vocab, rows}, then the listed embedding rows row-major as
    little-endian float64, then the dims-by-2 output weights row-major.
    """
    rows = sorted(model.embedding_rows)
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "hyperparams": asdict(model.hyperparams),
        "vocab": model.vocab,
        "rows": rows,
    }
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for r in rows:
            fh.write(model.embedding_rows[r].astype("<f8").tobytes())
        fh.write(model.output_weights.astype("<f8").tobytes())


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
            hp = FilterHyperparams(**header["hyperparams"])
            model = NgramLinearClassifier(hp, header["vocab"])
            rows = header["rows"]
            _check_rows(rows, hp.bucket_count)
        except (ClassifierError, KeyError, TypeError, ValueError) as exc:
            raise ClassifierError(f"{path}: bad header: {exc!r}") from exc

        def read_floats(count, what):
            data = fh.read(8 * count)
            if len(data) != 8 * count:
                raise ClassifierError(f"{path}: truncated {what}")
            return np.frombuffer(data, dtype="<f8").copy()

        for r in rows:
            model.embedding_rows[r] = read_floats(hp.dims, f"embedding row {r}")
        model.output_weights = read_floats(
            hp.dims * 2, "output weights").reshape(hp.dims, 2)
        if fh.read(1):
            raise ClassifierError(f"{path}: trailing bytes after output weights")
    return model
