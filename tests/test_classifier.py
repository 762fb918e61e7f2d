import json
import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from corpusforge.classifier import (
    LABEL_INDEX,
    LABELS,
    MODEL_FORMAT_VERSION,
    ClassifierError,
    FilterHyperparams,
    NgramLinearClassifier,
    _HEADER_ROWS,
    _occurrence_layers,
    _seed_rows,
    _softmax2,
    _unique_slots,
    build_vocab,
    load_model,
    save_model,
    train_filter,
)
from conftest import make_separable_samples

HP = FilterHyperparams(rng_seed=7)
MASK64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_finalizer(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_row(seed, dims):
    """SplitMix64 draws 1..dims from seed, one at a time in Python ints,
    mapped to [-1/dims, 1/dims) as uniform(low, high) maps a draw."""
    draws = [(splitmix64_finalizer((seed + k * GOLDEN) & MASK64) >> 11)
             * 2.0 ** -53 for k in range(1, dims + 1)]
    bound = 1.0 / dims
    return -bound + (2 * bound) * np.array(draws, dtype=np.float64)


def reference_feature_rows(text, vocab, hp):
    """The bucket of each word n-gram occurrence of the text, n-major and
    in text order, one hash per occurrence in plain Python ints."""
    base = splitmix64_finalizer(hp.rng_seed % 2**64)
    key = {tok: splitmix64_finalizer((i + base) & MASK64)
           for i, tok in enumerate(sorted(vocab))}
    kept = [key[t] for t in text.split() if t in key]
    rows = []
    for n in range(1, hp.word_ngram_max + 1):
        for i in range(len(kept) - n + 1):
            h = n + sum(kept[i + j] * (2 * j + 1) * GOLDEN for j in range(n))
            rows.append(splitmix64_finalizer(h & MASK64) % hp.bucket_count)
    return rows


def reference_seed(hp, bucket):
    """A bucket's initial-row seed, in plain Python ints."""
    base = splitmix64_finalizer((hp.rng_seed ^ 0x5EED) % 2**64)
    return splitmix64_finalizer((bucket + base) & MASK64)


def reference_row(hp, rows, bucket):
    """A bucket's row in a dict of rows; a missing one starts as the
    SplitMix64 row of the bucket's seed and is stored."""
    if bucket not in rows:
        rows[bucket] = splitmix64_row(reference_seed(hp, bucket), hp.dims)
    return rows[bucket]


def reference_train(samples, hp):
    """Sequential SGD over a dict of rows, one row and one update at a
    time: each occurrence of a bucket in a document updates its row in
    turn. Skips train_filter's input checks."""
    vocab = build_vocab((text for text, _ in samples), hp.min_count)
    model = NgramLinearClassifier(hp, vocab)
    table = {}  # bucket id -> row
    featurized = [(reference_feature_rows(text, vocab, hp), LABEL_INDEX[label])
                  for text, label in samples]
    total_updates = hp.epochs * len(featurized)
    step = 0
    for _ in range(hp.epochs):
        epoch_loss = 0.0
        for rows, target in featurized:
            lr = hp.learning_rate * (1.0 - step / total_updates)
            step += 1
            hidden = np.zeros(hp.dims, dtype=np.float64)
            if rows:
                for r in rows:
                    hidden += reference_row(hp, table, r)
                hidden = hidden / len(rows)
            logits = hidden @ model.output_weights
            e = np.exp(logits - logits.max())
            probs = e / e.sum()
            epoch_loss += -np.log(max(probs[target], 1e-300))

            grad_logits = probs.copy()
            grad_logits[target] -= 1.0
            grad_hidden = model.output_weights @ grad_logits
            model.output_weights -= lr * np.outer(hidden, grad_logits)
            if rows:
                delta = (lr / len(rows)) * grad_hidden
                for r in rows:
                    table[r] = reference_row(hp, table, r) - delta
        model.epoch_losses.append(float(epoch_loss) / len(featurized))
    set_rows(model, table)
    return model


def set_rows(model, table):
    """Give the model the rows of a dict of bucket id -> row."""
    ids = sorted(table)
    model.row_ids = np.array(ids, dtype=np.uint64)
    model.embedding_rows = np.array([table[b] for b in ids],
                                    dtype=np.float64).reshape(
                                        -1, model.hyperparams.dims)


def model_bytes(model, directory):
    path = directory / "model.bin"
    save_model(model, str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def trained(separable_module):
    train, held = separable_module
    return train_filter(train, HP), train, held


@pytest.fixture(scope="module")
def separable_module():
    samples = make_separable_samples(2000)
    return samples[:1600], samples[1600:]


class TestVocab:
    def test_min_count_applies_to_unigrams(self):
        texts = ["a a a b", "a c"]
        assert build_vocab(texts, 3) == {"a": 4}

    def test_ngrams_built_over_kept_tokens(self):
        model = NgramLinearClassifier(HP, {"a": 5, "b": 5})
        rows = model._feature_rows("a x b")
        # 2 unigrams + 1 bigram over the kept sequence [a, b]
        assert len(rows) == 3


class TestTraining:
    def test_separable_accuracy(self, trained):
        model, train, held = trained
        train_acc = sum((model.predict_score(t) >= 0.5) == (l == "agent")
                        for t, l in train) / len(train)
        held_acc = sum((model.predict_score(t) >= 0.5) == (l == "agent")
                       for t, l in held) / len(held)
        assert train_acc >= 0.99
        assert held_acc >= 0.95

    def test_deterministic_retraining(self, trained, tmp_path):
        model, train, _ = trained
        again = train_filter(train, HP)
        p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        save_model(model, str(p1))
        save_model(again, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_epoch_loss_non_increasing(self, trained):
        model, _, _ = trained
        for a, b in zip(model.epoch_losses, model.epoch_losses[1:]):
            assert b <= a + 1e-9

    def test_single_class_rejected(self):
        samples = [("invoke_api tool_call", "agent")] * 10
        with pytest.raises(ClassifierError, match="both classes"):
            train_filter(samples, HP)

    def test_empty_vocab_rejected(self):
        samples = [("one_off_token", "agent"), ("another_token", "general")]
        with pytest.raises(ClassifierError, match="vocabulary"):
            train_filter(samples, FilterHyperparams(min_count=5, rng_seed=1))

    def test_unknown_label_rejected(self):
        with pytest.raises(ClassifierError, match="unknown"):
            train_filter([("x x x", "spam"), ("y y y", "agent")], HP)

    def test_hyperparam_validation(self):
        with pytest.raises(ClassifierError):
            FilterHyperparams(learning_rate=0.0)
        with pytest.raises(ClassifierError):
            FilterHyperparams(epochs=0)

    # NaN passed a `learning_rate <= 0` check and trained a NaN model.
    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -0.1, 0.0])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ClassifierError, match="finite and positive"):
            FilterHyperparams(learning_rate=lr)

    def test_smallest_and_largest_finite_rates_accepted(self):
        for lr in (5e-324, 1.7976931348623157e308):
            assert FilterHyperparams(learning_rate=lr).learning_rate == lr

    def test_bucket_count_must_fit_uint64(self):
        with pytest.raises(ClassifierError, match="2\\*\\*64"):
            FilterHyperparams(bucket_count=2**64)
        hp = FilterHyperparams(bucket_count=2**64 - 1)
        rows = NgramLinearClassifier(hp, {"a": 1})._feature_rows("a a")
        assert rows.tolist() == reference_feature_rows("a a", {"a": 1}, hp)


# Seeds at the ends of the uint64 range and at its 32- and 63-bit
# boundaries; seed + k * gamma wraps for the large ones.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def reference_rows(seeds, dims):
    return np.array([splitmix64_row(s, dims) for s in seeds],
                    dtype=np.float64).reshape(-1, dims)


class TestRowInit:
    def test_oracle_draws_the_published_splitmix64_stream(self):
        # The first three outputs of Vigna's reference splitmix64.c with
        # its state set to 0.
        first = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert splitmix64_row(0, 3).tolist() == [
            -1 / 3 + 2 / 3 * ((z >> 11) * 2.0 ** -53) for z in first]

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=20),
           st.integers(1, 300))
    def test_seed_rows_match_splitmix64_reference(self, seeds, dims):
        seeds = EDGE_SEEDS + seeds
        expected = reference_rows(seeds, dims)
        assert _seed_rows(seeds, dims).tobytes() == expected.tobytes()

    # 255, 256 and 257 rows end one short of, on and one past a whole
    # number of _seed_rows' blocks of draws; 600 ends inside a block.
    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
    @pytest.mark.parametrize("dims", [1, 7, 256])
    def test_seed_rows_across_blocks(self, n, dims):
        seeds = [(i * 0x9E3779B97F4A7C15 + 12345) & MASK64 for i in range(n)]
        got = _seed_rows(seeds, dims)
        assert got.shape == (n, dims)
        assert got.tobytes() == reference_rows(seeds, dims).tobytes()

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=20),
           st.integers(-2**70, 2**70))
    def test_init_rows_seed_each_bucket_with_mix64(self, buckets, seed):
        hp = FilterHyperparams(dims=3, rng_seed=seed)
        buckets = [0, 1, 2**64 - 1] + buckets
        seeds = [reference_seed(hp, b) for b in buckets]
        got = NgramLinearClassifier(hp, {})._init_rows(buckets)
        assert got.tobytes() == _seed_rows(seeds, hp.dims).tobytes()

    @pytest.mark.parametrize("dims", [1, 7, 256])
    def test_no_buckets_no_rows(self, dims):
        model = NgramLinearClassifier(FilterHyperparams(dims=dims), {})
        assert model._init_rows([]).shape == (0, dims)


# Tokens in and beyond ASCII; "x" is never in the vocabulary.
GRAM_WORDS = ["a", "b", "c", "\u00e9t\u00e9", "\u4e2d", "\U0001f600", "x"]


@st.composite
def featurizations(draw):
    """A text of repeated tokens, a vocabulary, and hyperparams with
    n-grams longer than the text, bucket counts up to 2**64 - 1 and seeds
    outside the uint64 range."""
    vocab = dict.fromkeys(draw(st.lists(st.sampled_from(GRAM_WORDS[:-1]),
                                        unique=True)), 3)
    text = " ".join(draw(st.lists(st.sampled_from(GRAM_WORDS), max_size=12)))
    hp = FilterHyperparams(
        word_ngram_max=draw(st.integers(1, 6)),
        bucket_count=draw(st.integers(1, 2**64 - 1)
                          | st.sampled_from([1, 2, 997, 2**63, 2**64 - 1])),
        rng_seed=draw(st.integers(-2**70, 2**70)
                      | st.sampled_from([0, -1, 2**64 - 1, 2**64])))
    return text, vocab, hp


class TestFeatureRows:
    @given(featurizations())
    def test_match_per_occurrence_reference(self, case):
        text, vocab, hp = case
        rows = NgramLinearClassifier(hp, vocab)._feature_rows(text)
        assert rows.dtype == np.uint64
        assert rows.tolist() == reference_feature_rows(text, vocab, hp)


WORDS = ["a", "b", "c", "d", "e"]


@st.composite
def training_runs(draw):
    """Tiny samples with hyperparams that force bucket collisions and
    buckets repeated within one document. The empty document and the
    once-seen "lonely" (unless min_count is 1) keep no tokens."""
    docs = draw(st.lists(st.tuples(st.lists(st.sampled_from(WORDS), max_size=8),
                                   st.sampled_from(LABELS)),
                         min_size=1, max_size=10))
    samples = [(" ".join(words), label) for words, label in docs]
    samples = draw(st.permutations(samples + [("", "agent"),
                                              ("lonely", "general")]))
    hp = FilterHyperparams(
        dims=draw(st.integers(1, 16)),
        learning_rate=draw(st.floats(0.01, 1.0)),
        word_ngram_max=draw(st.integers(1, 3)),
        min_count=draw(st.integers(1, 3)),
        epochs=draw(st.integers(1, 3)),
        bucket_count=draw(st.integers(1, 64)),
        rng_seed=draw(st.integers(0, 2**64 - 1)))
    return samples, hp


def zipf_samples(n_docs, seed):
    """Documents of Zipf-drawn words from a 60-word vocabulary, every
    seventh one a single word repeated 5 to 40 times."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(60)]
    samples = []
    for i in range(n_docs):
        if i % 7 == 0:
            text = " ".join([words[i % 5]] * int(rng.integers(5, 41)))
        else:
            ranks = np.minimum(rng.zipf(1.3, int(rng.integers(0, 60))), 60)
            text = " ".join(words[r - 1] for r in ranks)
        samples.append((text, LABELS[int(rng.integers(2))]))
    return samples


class TestTrainingOracle:
    @given(training_runs())
    def test_matches_per_occurrence_sgd(self, tmp_path_factory, run):
        samples, hp = run
        assume(build_vocab((text for text, _ in samples), hp.min_count))
        model, expected = train_filter(samples, hp), reference_train(samples, hp)
        directory = tmp_path_factory.mktemp("oracle")
        assert model.epoch_losses == expected.epoch_losses
        assert model_bytes(model, directory) == model_bytes(expected, directory)

    def test_matches_at_default_dims_and_buckets(self, tmp_path):
        # The default 256 dims and 2M buckets, on documents that repeat
        # buckets many times over.
        samples = zipf_samples(200, seed=11)
        hp = FilterHyperparams(rng_seed=3)
        model, expected = train_filter(samples, hp), reference_train(samples, hp)
        assert max(len(layers) for layers in (
            reference_layers(np.array(model._feature_rows(text)))
            for text, _ in samples)) >= 20
        assert model.epoch_losses == expected.epoch_losses
        assert model_bytes(model, tmp_path) == model_bytes(expected, tmp_path)

    def test_matches_with_saturated_probabilities(self, tmp_path):
        # A rate this large drives logit gaps past 745, where one
        # probability is exactly 0 and the loss takes the 1e-300 floor.
        samples = zipf_samples(40, seed=5)
        hp = FilterHyperparams(dims=4, learning_rate=50.0, min_count=1,
                               bucket_count=50, rng_seed=2)
        model, expected = train_filter(samples, hp), reference_train(samples, hp)
        # A mean loss over 100 nats: most steps are far past saturation.
        assert all(100 < loss < np.inf for loss in model.epoch_losses)
        assert model.epoch_losses == expected.epoch_losses
        assert model_bytes(model, tmp_path) == model_bytes(expected, tmp_path)


def reference_layers(slots):
    """Layers of distinct slots, the k-th holding each slot's k-th
    occurrence, one np.unique and np.delete per layer."""
    layers = []
    while len(slots):
        layer, first = np.unique(slots, return_index=True)
        layers.append(layer)
        slots = np.delete(slots, first)
    return layers


# Slot lists: none, one slot 20 times, and slots that documents share.
SLOT_DOCS = [[], [7] * 20, [3, 1, 3, 3, 2, 1], [1, 2, 3], [2, 2, 9, 2, 9]]


class TestOccurrenceLayers:
    @given(st.lists(st.integers(0, 12), max_size=40))
    @example(SLOT_DOCS[1])
    @example(SLOT_DOCS[2])
    def test_match_unique_and_delete_reference(self, slots):
        slots = np.array(slots, dtype=np.intp)
        distinct, sizes = _occurrence_layers(slots)
        layers = [np.sort(distinct[:size]) for size in sizes]
        expected = reference_layers(slots)
        assert [a.tolist() for a in layers] == [a.tolist() for a in expected]
        # Most repeated first, so each layer is a prefix of the one before.
        counts = [slots.tolist().count(s) for s in distinct.tolist()]
        assert counts == sorted(counts, reverse=True)

    def test_empty_document_has_no_layers(self):
        distinct, sizes = _occurrence_layers(np.zeros(0, dtype=np.intp))
        assert distinct.tolist() == [] and sizes == []

    def test_one_slot_repeated_20_times(self):
        distinct, sizes = _occurrence_layers(np.array(SLOT_DOCS[1]))
        assert distinct.tolist() == [7] and sizes == [1] * 20

    @given(st.lists(st.lists(st.integers(0, 2**64 - 1)
                             | st.sampled_from([0, 5, 2**63, 2**64 - 1]),
                             max_size=12), max_size=6))
    @example(SLOT_DOCS)
    def test_unique_slots_match_np_unique(self, docs):
        occurrences = np.array([b for doc in docs for b in doc], np.uint64)
        distinct, slots = _unique_slots(occurrences.copy())
        expected, inverse = np.unique(occurrences, return_inverse=True)
        assert distinct.dtype == np.uint64 and slots.dtype == np.intp
        assert distinct.tobytes() == expected.tobytes()
        assert slots.tolist() == inverse.tolist()


def reference_softmax(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()


class TestSoftmax2:
    @given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
    @example(0.0, 0.0)
    @example(-0.0, 0.0)
    @example(3.25, 3.25)
    @example(700.0, -700.0)
    @example(-700.0, 700.0)
    @example(700.0, 700.0)
    @example(0.0, -745.5)
    @example(-800.0, 0.0)
    def test_matches_numpy_formula_bit_for_bit(self, a, b):
        logits = np.array([a, b])
        assert np.array(_softmax2(logits)).tobytes() == \
            reference_softmax(logits).tobytes()

    @pytest.mark.parametrize("gap", [745.2, 746.0, 1400.0])
    def test_gap_past_745_gives_an_exact_zero(self, gap):
        assert _softmax2(np.array([0.0, -gap])) == (1.0, 0.0)


@st.composite
def row_lookups(draw):
    """Trained rows and buckets to look up: trained and untrained ones,
    repeated, and 0 and 2**64 - 2, below and above every trained id.
    float64 cannot tell 2**53 + 1 from 2**53."""
    ids = st.one_of(st.integers(1, 2**64 - 3),
                    st.sampled_from([2**53, 2**53 + 1, 2**63]))
    hp = FilterHyperparams(dims=draw(st.integers(1, 8)),
                           bucket_count=2**64 - 1,
                           rng_seed=draw(st.integers(0, 2**64 - 1)))
    trained = draw(st.lists(ids, unique=True, max_size=6))
    pool = trained + draw(st.lists(ids, min_size=1, max_size=6)) + [0, 2**64 - 2]
    buckets = draw(st.lists(st.sampled_from(pool), max_size=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return hp, {b: rng.normal(size=hp.dims) for b in trained}, buckets


class TestPrediction:
    @given(row_lookups())
    def test_rows_match_reference_row(self, lookup):
        hp, table, buckets = lookup
        model = NgramLinearClassifier(hp, {})
        set_rows(model, table)
        rows_of = dict(table)
        expected = np.array([reference_row(hp, rows_of, b) for b in buckets],
                            dtype=np.float64).reshape(-1, hp.dims)
        assert model._rows(buckets).tobytes() == expected.tobytes()
        assert model.row_ids.tolist() == sorted(table)

    def test_scoring_unseen_buckets_keeps_no_memory(self):
        # Every word is in the vocabulary but untrained, so each text
        # meets a new untrained bucket.
        words = [f"w{i}" for i in range(2020)]
        hp = FilterHyperparams(dims=256, word_ngram_max=1, rng_seed=5)
        model = NgramLinearClassifier(hp, dict.fromkeys(words, 3))

        def peak(texts):
            tracemalloc.start()
            try:
                for text in texts:
                    model.predict_score(text)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(words[:20]), peak(words[20:])
        # One row is 2 kB; keeping the 2,000 rows would take over 4 MB.
        assert many - few < 64 * 1024

    def test_scoring_new_text_keeps_no_state(self):
        # Each pass meets only grams no earlier text had, 5,400 of them:
        # any state kept per gram would grow by all of them.
        words = [f"w{i}" for i in range(4000)]
        model = NgramLinearClassifier(FilterHyperparams(dims=4, rng_seed=5),
                                      dict.fromkeys(words, 3))
        held = []
        tracemalloc.start()
        try:
            for start in (0, 2000):
                for i in range(start, start + 2000, 10):
                    model.predict_score(" ".join(words[i:i + 10]))
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert held[1] - held[0] < 16 * 1024

    def test_probabilities_sum_to_one(self, trained):
        model, train, _ = trained
        for text, _ in train[:50]:
            probs = model.predict_proba(text)
            assert abs(sum(probs) - 1.0) < 1e-9

    def test_agent_training_sample_scores_high(self, trained):
        model, train, _ = trained
        text, label = next(s for s in train if s[1] == "agent")
        assert model.predict_score(text) > 0.5

    def test_empty_text_is_prior(self, trained):
        model, _, _ = trained
        probs = model.predict_proba("")
        assert abs(sum(probs) - 1.0) < 1e-9
        # zero hidden vector -> zero logits -> exactly the 0.5 prior
        assert probs[0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_independent_forward_pass(self, trained):
        # Re-implemented forward pass: featurize, average rows, softmax.
        model, train, _ = trained
        hp = model.hyperparams
        rows_of = dict(zip(model.row_ids.tolist(), model.embedding_rows))
        for text, _ in train[:100]:
            rows = reference_feature_rows(text, model.vocab, hp)
            if rows:
                hidden = np.mean([reference_row(hp, rows_of, r) for r in rows],
                                 axis=0)
            else:
                hidden = np.zeros(hp.dims)
            logits = hidden @ model.output_weights
            e = np.exp(logits - logits.max())
            expected = (e / e.sum())[0]
            assert abs(model.predict_score(text) - expected) < 1e-9


class TestModelFile:
    def test_round_trip_preserves_predictions(self, trained, tmp_path):
        model, train, _ = trained
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.hyperparams == model.hyperparams
        assert loaded.vocab == model.vocab
        for text, _ in train[:25]:
            assert loaded.predict_score(text) == model.predict_score(text)

    def test_failed_save_keeps_the_previous_file(self, trained, tmp_path,
                                                 monkeypatch):
        model, _, _ = trained
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        before = path.read_bytes()
        calls, contiguous = [], np.ascontiguousarray

        def fail_on_second_call(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:  # after the header and the rows
                raise OSError("disk full")
            return contiguous(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", fail_on_second_call)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    # No rows, one row, row counts around a power of two and past two
    # writes of header rows; bucket ids up to 2**64 - 2, and vocab tokens
    # that the header escapes.
    @pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257, 600,
                                        2 * _HEADER_ROWS + 1])
    def test_file_is_the_documented_layout(self, tmp_path, n_rows):
        hp = FilterHyperparams(dims=3, bucket_count=MASK64)
        vocab = {"a": 3, "caf\u00e9": 4, "\u65e5\u672c": 5, '"q\\': 6,
                 "\U0001f600": 7}
        model = NgramLinearClassifier(hp, vocab)
        rng = np.random.default_rng(n_rows)
        buckets = [MASK64 - 1 - int(b)
                   for b in rng.choice(20_000, n_rows, replace=False)]
        table = {b: rng.normal(size=hp.dims) for b in buckets}
        set_rows(model, table)
        model.output_weights = rng.normal(size=(hp.dims, 2))
        header = {"format_version": MODEL_FORMAT_VERSION,
                  "hyperparams": asdict(hp),
                  "vocab": vocab, "rows": sorted(buckets)}
        expected = (b"CFNG" + json.dumps(header, sort_keys=True,
                                         separators=(",", ":")).encode()
                    + b"\n" + b"".join(table[b].astype("<f8").tobytes()
                                       for b in sorted(buckets))
                    + model.output_weights.astype("<f8").tobytes())
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        assert path.read_bytes() == expected
        loaded = load_model(str(path))
        assert loaded.row_ids.tolist() == sorted(buckets)
        assert loaded.vocab == vocab
        for b, row in zip(loaded.row_ids.tolist(), loaded.embedding_rows):
            assert row.tobytes() == table[b].tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX{}\n")
        with pytest.raises(ClassifierError, match="not a classifier"):
            load_model(str(path))

    # Cut points measured from the end of the file: inside the output
    # weights (misaligned and on a float boundary), and inside the last
    # embedding row once the weights are gone.
    @pytest.mark.parametrize("cut", [3, 8, 8 * HP.dims * 2 + 8])
    def test_truncated_file_rejected(self, trained, tmp_path, cut):
        model, _, _ = trained
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ClassifierError, match=re.escape(str(path))):
            load_model(str(path))

    def test_trailing_bytes_rejected(self, trained, tmp_path):
        model, _, _ = trained
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ClassifierError, match="trailing bytes"):
            load_model(str(path))

    @pytest.mark.parametrize("header", [
        b"{bad", b"{}", b'{"format_version": 1}', b"[1]", b"\xff"])
    def test_bad_header_names_path(self, tmp_path, header):
        path = tmp_path / "model.bin"
        path.write_bytes(b"CFNG" + header + b"\n")
        with pytest.raises(ClassifierError, match=re.escape(f"{path}: ")):
            load_model(str(path))

    @staticmethod
    def write_model(path, rows, version=MODEL_FORMAT_VERSION, vocab=None,
                    **hyperparams):
        """A model file whose body fits its header: one zero row per entry
        of `rows`, then zero output weights."""
        hp = dict(asdict(FilterHyperparams(dims=2, bucket_count=10)),
                  **hyperparams)
        header = {"format_version": version, "hyperparams": hp,
                  "vocab": {"a": 3} if vocab is None else vocab, "rows": rows}
        floats = int(max(hp["dims"], 0) * (len(rows) + 2))
        path.write_bytes(b"CFNG" + json.dumps(header).encode() + b"\n"
                         + bytes(8 * floats))

    def test_hand_written_header_loads(self, tmp_path):
        path = tmp_path / "model.bin"
        self.write_model(path, [0, 3, 9])
        assert load_model(str(path)).row_ids.tolist() == [0, 3, 9]

    def test_version_1_file_rejected(self, tmp_path):
        # Version 1 drew its initial rows from default_rng, so its
        # untrained rows cannot be regenerated.
        path = tmp_path / "model.bin"
        self.write_model(path, [0, 3, 9], version=1)
        with pytest.raises(ClassifierError,
                           match="unsupported format version 1"):
            load_model(str(path))

    def test_version_2_file_rejected(self, tmp_path):
        # Version 2 hashed grams and row seeds with keyed blake2b, so its
        # buckets and untrained rows are not this version's.
        path = tmp_path / "model.bin"
        self.write_model(path, [0, 3, 9], version=2)
        with pytest.raises(ClassifierError,
                           match="unsupported format version 2"):
            load_model(str(path))

    @pytest.mark.parametrize("rows", [
        ["x"], [1.0], [True], [-1], [10], [3, 1], [2, 2], {"0": 1}])
    def test_rows_not_ascending_bucket_ids_rejected(self, tmp_path, rows):
        path = tmp_path / "model.bin"
        self.write_model(path, rows)
        with pytest.raises(ClassifierError,
                           match=re.escape(f"{path}: bad header")):
            load_model(str(path))

    @pytest.mark.parametrize("bad", [{"dims": 0}, {"epochs": 0},
                                     {"bucket_count": -1}])
    def test_invalid_hyperparams_name_path(self, tmp_path, bad):
        path = tmp_path / "model.bin"
        self.write_model(path, [], **bad)
        with pytest.raises(ClassifierError, match=re.escape(f"{path}: ")):
            load_model(str(path))

    # Values that load at the wrong type and fail later, or fail unnamed.
    @pytest.mark.parametrize("vocab, bad", [
        (5, {}), ({"a": "3"}, {}), ({"a": 3}, {"dims": 2.5}),
        ({"a": 3}, {"epochs": 2.5})])
    def test_header_value_of_wrong_type_names_path(self, tmp_path, vocab, bad):
        path = tmp_path / "model.bin"
        self.write_model(path, [], vocab=vocab, **bad)
        with pytest.raises(ClassifierError,
                           match=re.escape(f"{path}: bad header")):
            load_model(str(path))

    def test_huge_dims_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "model.bin"
        hp = asdict(FilterHyperparams(dims=10**12, bucket_count=10))
        header = {"format_version": MODEL_FORMAT_VERSION, "hyperparams": hp,
                  "vocab": {}, "rows": [1]}
        path.write_bytes(b"CFNG" + json.dumps(header).encode() + b"\n"
                         + bytes(64))
        with pytest.raises(ClassifierError,
                           match=re.escape(f"{path}: truncated")):
            load_model(str(path))

    def test_scoring_leaves_the_model_file_unchanged(self, tmp_path):
        samples = make_separable_samples(10)
        model = train_filter(samples, FilterHyperparams(dims=8, rng_seed=3))
        text = "endpoint invoke_api garden"
        assert set(model._feature_rows(text).tolist()) - set(
            model.row_ids.tolist()), "text must hit untrained rows"
        trained = model_bytes(model, tmp_path)
        rows = len(model.embedding_rows)
        loaded = load_model(str(tmp_path / "model.bin"))
        for scored in (model, loaded):
            scored.predict_score(text)
            assert len(scored.embedding_rows) == rows
            assert model_bytes(scored, tmp_path) == trained

    def test_untouched_rows_regenerate_after_load(self, trained, tmp_path):
        # A word unseen in training hits lazily initialized embedding rows;
        # the loaded model must regenerate them identically.
        model, _, _ = trained
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))
        # Cross-class bigrams never co-occurred in training, so their
        # hashed buckets are untouched and must be regenerated lazily.
        text = "invoke_api weather tool_call garden"
        assert loaded.predict_score(text) == model.predict_score(text)
