import hashlib
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from corpusforge import embed as embed_mod
from corpusforge.corpus import make_document
from corpusforge.embed import (
    EmbedError,
    EmbedderConfig,
    embed_document,
    embed_text,
    load_external_embeddings,
    save_embeddings,
    stable_hash64,
    unit_row,
)

from conftest import make_random_vectors

CFG = EmbedderConfig(dims=64, hash_seed=42)


def reference_embed_text(text, cfg):
    """The embedder as one blake2b call per n-gram occurrence, in text order."""
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


@st.composite
def embedder_configs(draw):
    lo = draw(st.integers(1, 9))
    return dict(dims=draw(st.integers(2, 300)), ngram_min=lo,
                ngram_max=draw(st.integers(lo, 9)),
                hash_seed=draw(st.integers(-2**64, -1) | st.integers(0, 2**64)
                               | st.sampled_from([2**63, 2**64 - 1])))


short_texts = st.text(max_size=12) | st.sampled_from(["", "a", "é", "ab "])
texts = st.lists(short_texts | st.text(max_size=200), min_size=1, max_size=8)


# Seeds that reduce mod 2**64 to the same key, and seeds on either side of
# the wrap. With the drawn seeds, one list can hold more distinct keys than
# stable_hash64 keeps keyed states for.
HASH_SEEDS = [0, 1, -1, 2**64 - 1, 2**64, 2**64 + 1, -2**64, 2**63, 2**70 + 5]


class TestStableHash:
    @given(st.lists(st.tuples(
        st.binary(max_size=300),
        st.sampled_from(HASH_SEEDS) | st.integers(-2**80, 2**80)
        | st.integers(0, 40)), min_size=1, max_size=60))
    def test_matches_keyed_blake2b(self, calls):
        # Interleaved seeds: a cached keyed state must neither keep data
        # from an earlier call nor answer for another seed.
        for data, seed in calls + [(b"", seed) for _, seed in calls]:
            key = (seed % 2**64).to_bytes(8, "little")
            expected = hashlib.blake2b(data, digest_size=8, key=key).digest()
            assert stable_hash64(data, seed) == int.from_bytes(expected, "little")


class TestEmbedder:
    def test_empty_text_zero_vector(self):
        vec = embed_text("", CFG)
        assert np.linalg.norm(vec) == 0.0
        assert not vec.any()

    def test_deterministic(self):
        a = embed_text("call the weather api", CFG)
        b = embed_text("call the weather api", CFG)
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        vec = embed_text("some document text here", CFG)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_seed_changes_vector_but_self_cosine_is_one(self):
        a = embed_text("weather api", CFG)
        b = embed_text("weather api", EmbedderConfig(dims=64, hash_seed=43))
        assert not np.array_equal(a, b)

    def test_matches_direct_recomputation(self):
        # Independent oracle: recount signed n-gram hashes with the same
        # primitive, bucketing by hand.
        from corpusforge.embed import stable_hash64
        text = "invoke the api endpoint"
        data = text.encode("utf-8")
        expected = np.zeros(CFG.dims)
        for n in range(CFG.ngram_min, CFG.ngram_max + 1):
            for i in range(len(data) - n + 1):
                h = stable_hash64(data[i:i + n], CFG.hash_seed)
                expected[h % CFG.dims] += 1.0 if (h >> 63) & 1 == 0 else -1.0
        expected /= np.linalg.norm(expected)
        got = embed_text(text, CFG)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @given(embedder_configs(), texts)
    def test_matches_reference_through_shared_config(self, params, batch):
        # One config for the whole list: later texts hit the memo, and a
        # merge every 3 new n-grams puts most hits in the sorted arrays.
        cfg = EmbedderConfig(**params)
        with mock.patch.object(embed_mod, "_MERGE_EVERY", 3):
            for text in batch + batch[::-1]:
                got = embed_text(text, cfg)
                assert got.tobytes() == reference_embed_text(text, cfg).tobytes()

    @given(embedder_configs(), texts)
    def test_matches_reference_through_fresh_configs(self, params, batch):
        for text in batch:
            cfg = EmbedderConfig(**params)
            got = embed_text(text, cfg)
            assert got.tobytes() == reference_embed_text(text, cfg).tobytes()

    def test_matches_reference_across_real_merges(self):
        # Enough distinct n-grams for several merges at the real batch size.
        rng = np.random.default_rng(3)
        words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyzé"), 6))
                 for _ in range(1500)]
        cfg = EmbedderConfig(dims=97, ngram_min=2, ngram_max=8, hash_seed=-7)
        for _ in range(40):
            text = " ".join(rng.choice(words, 60))
            assert embed_text(text, cfg).tobytes() == \
                reference_embed_text(text, cfg).tobytes()
        # Each n-gram is hashed once: the memo holds it once, in key order.
        assert len(cfg.memo.keys) > 2 * embed_mod._MERGE_EVERY
        assert np.all(np.diff(cfg.memo.keys) > 0)
        assert not cfg.memo.pending.keys() & set(cfg.memo.keys.tolist())

    def test_memo_is_not_part_of_the_config_value(self):
        used, fresh = (EmbedderConfig(dims=64, hash_seed=42) for _ in "ab")
        embed_text("call the weather api", used)
        assert used == fresh and hash(used) == hash(fresh)
        assert len(used.memo.pending) + len(used.memo.keys) > 0
        assert "memo" not in repr(used)
        assert repr(used) == repr(fresh)

    def test_embed_document_uses_text(self):
        doc = make_document("d", "s", "text", "hello world text")
        a = embed_document(doc, CFG)
        b = embed_text("hello world text", CFG)
        np.testing.assert_array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(EmbedError):
            EmbedderConfig(dims=1)
        with pytest.raises(EmbedError):
            EmbedderConfig(ngram_min=4, ngram_max=3)


class TestExternalEmbeddings:
    def test_load_two_records(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"id": "a", "v": [1, 0, 0, 0]}) + "\n"
                        + json.dumps({"id": "b", "v": [0, 1, 0, 0]}) + "\n")
        vecs = load_external_embeddings(str(path))
        assert vecs.ids == ["a", "b"]
        assert vecs.matrix.shape == (2, 4)

    def test_inconsistent_dims_names_line(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"id": "a", "v": [1, 0, 0, 0]}) + "\n"
                        + json.dumps({"id": "b", "v": [0, 1, 0, 0, 0]}) + "\n")
        with pytest.raises(EmbedError, match=":2:"):
            load_external_embeddings(str(path))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"id": "a", "v": [1.0]}) + "\n"
                        + json.dumps({"id": "a", "v": [2.0]}) + "\n")
        with pytest.raises(EmbedError, match="duplicate"):
            load_external_embeddings(str(path))

    @pytest.mark.parametrize("v", ["[1.0, NaN]", "[1.0, Infinity]",
                                   "[1e300, 1e300]", "[[1.0, 0.0]]"])
    def test_non_finite_or_nested_vector_names_line(self, tmp_path, v):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"id": "a", "v": [1.0, 0.0]}) + "\n"
                        + '{"id": "b", "v": %s}\n' % v)
        with pytest.raises(EmbedError, match=":2:"):
            load_external_embeddings(str(path))

    @pytest.mark.parametrize("doc_id", ['["a"]', "1", "null"])
    def test_non_string_id_names_line(self, tmp_path, doc_id):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"id": "a", "v": [1.0, 0.0]}) + "\n"
                        + '{"id": %s, "v": [0.0, 1.0]}\n' % doc_id)
        with pytest.raises(EmbedError, match=r"vecs\.jsonl:2: .*string"):
            load_external_embeddings(str(path))

    def test_norms_recomputed_on_load(self, tmp_path):
        vecs = make_random_vectors(1000, 8, seed=5)
        path = tmp_path / "vecs.jsonl"
        save_embeddings(vecs, str(path))
        loaded = load_external_embeddings(str(path))
        assert loaded.ids == vecs.ids
        norms = np.linalg.norm(loaded.matrix, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)

    @given(st.integers(1, 8).flatmap(lambda dims: st.dictionaries(
        st.text(),
        st.lists(st.floats(-1e150, 1e150) | st.just(0.0),
                 min_size=dims, max_size=dims),
        max_size=12)))
    def test_load_normalizes_every_row_once(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "vecs.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                for vid, v in raw.items():
                    fh.write(json.dumps({"id": vid, "v": v}) + "\n")
            loaded = load_external_embeddings(path)
        assert loaded.ids == sorted(raw)
        for vid, got in zip(loaded.ids, loaded.matrix):
            row = np.array(raw[vid], dtype=np.float64)
            norm = np.linalg.norm(row)
            want = np.zeros_like(row) if norm == 0.0 else row / norm
            assert got.tobytes() == want.tobytes()
