import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from corpusforge.classifier import (
    ClassifierError,
    FilterHyperparams,
    NgramLinearClassifier,
    _feature_rows,
    build_vocab,
    load_model,
    save_model,
    tokenize,
    train_filter,
)

from conftest import make_separable_samples

HP = FilterHyperparams(rng_seed=7)


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
        vocab = {"a": 5, "b": 5}
        rows = _feature_rows(tokenize("a x b"), vocab, HP)
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


class TestPrediction:
    def test_probabilities_sum_to_one(self, trained):
        model, train, _ = trained
        for text, _ in train[:50]:
            probs = model.predict_proba(text)
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_agent_training_sample_scores_high(self, trained):
        model, train, _ = trained
        text, label = next(s for s in train if s[1] == "agent")
        assert model.predict_score(text) > 0.5

    def test_empty_text_is_prior(self, trained):
        model, _, _ = trained
        probs = model.predict_proba("")
        assert abs(probs.sum() - 1.0) < 1e-9
        # zero hidden vector -> zero logits -> exactly the 0.5 prior
        assert probs[0] == pytest.approx(0.5, abs=1e-12)

    def test_matches_independent_forward_pass(self, trained):
        # Re-implemented forward pass: featurize, average rows, softmax.
        model, train, _ = trained
        hp = model.hyperparams
        for text, _ in train[:100]:
            rows = _feature_rows(tokenize(text), model.vocab, hp)
            if rows:
                hidden = np.mean([model._row(r) for r in rows], axis=0)
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
    def write_model(path, rows, **hyperparams):
        """A model file whose body fits its header: one zero row per entry
        of `rows`, then zero output weights."""
        hp = dict(asdict(FilterHyperparams(dims=2, bucket_count=10)),
                  **hyperparams)
        header = {"format_version": 1, "hyperparams": hp,
                  "vocab": {"a": 3}, "rows": rows}
        floats = max(hp["dims"], 0) * (len(rows) + 2)
        path.write_bytes(b"CFNG" + json.dumps(header).encode() + b"\n"
                         + bytes(8 * floats))

    def test_hand_written_header_loads(self, tmp_path):
        path = tmp_path / "model.bin"
        self.write_model(path, [0, 3, 9])
        assert sorted(load_model(str(path)).embedding_rows) == [0, 3, 9]

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
