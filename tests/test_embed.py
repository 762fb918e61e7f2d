import hashlib
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from corpusforge import corpus as corpus_mod
from corpusforge import embed as embed_mod
from corpusforge.corpus import Document, run_table
from corpusforge.embed import (
    EmbedError,
    EmbedderConfig,
    Embeddings,
    embed_document,
    embed_text,
    load_external_embeddings,
    save_embeddings,
    stable_hash64,
    stable_hashes,
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
# the wrap.
HASH_SEEDS = [0, 1, -1, 2**64 - 1, 2**64, 2**64 + 1, -2**64, 2**63, 2**70 + 5]


class TestStableHash:
    @given(st.lists(st.tuples(
        st.binary(max_size=300),
        st.sampled_from(HASH_SEEDS) | st.integers(-2**80, 2**80)
        | st.integers(0, 40)), min_size=1, max_size=60))
    def test_matches_keyed_blake2b(self, calls):
        # Interleaved seeds: no call may keep data from an earlier call
        # or answer for another seed.
        for data, seed in calls + [(b"", seed) for _, seed in calls]:
            key = (seed % 2**64).to_bytes(8, "little")
            expected = hashlib.blake2b(data, digest_size=8, key=key).digest()
            assert stable_hash64(data, seed) == int.from_bytes(expected, "little")


def keyed_blake2b(data, seed):
    key = (seed % 2**64).to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8, key=key).digest(),
                          "little")


class TestStableHashes:
    @given(st.lists(st.binary(max_size=40), max_size=30),
           st.sampled_from(HASH_SEEDS) | st.integers(-2**80, 2**80))
    def test_matches_keyed_blake2b(self, grams, seed):
        # The same grams as bytes and as memoryview slices of one buffer.
        ends = np.cumsum([0] + [len(g) for g in grams]).tolist()
        buffer = memoryview(b"".join(grams))
        views = [buffer[a:b] for a, b in zip(ends, ends[1:])]
        expected = [keyed_blake2b(g, seed) for g in grams]
        for batch in (grams, views):
            got = stable_hashes(batch, seed)
            assert got.dtype == np.uint64 and got.shape == (len(grams),)
            assert got.tolist() == expected

    def test_empty_list(self):
        got = stable_hashes([], 3)
        assert got.dtype == np.uint64 and got.shape == (0,)


def byte_grams(texts, lo, hi):
    """The distinct byte n-grams of the texts, lo <= n <= hi."""
    return {data[i:i + n] for data in (t.encode("utf-8") for t in texts)
            for n in range(lo, hi + 1) for i in range(len(data) - n + 1)}


# Texts of 0 to 23 bytes, some with multi-byte characters.
MEMO_TEXTS = ["call the weather api", "the api returns json é", "", "ab",
              "call the api", "weather: 21°C", "tool use é", "get_id"]


class TestMemoLevels:
    def check(self, cfg, texts):
        for text in texts + texts[::-1]:
            assert embed_text(text, cfg).tobytes() == \
                reference_embed_text(text, cfg).tobytes()
        main, recent = cfg.memo.main[0], cfg.memo.recent[0]
        assert np.all(np.diff(main) > 0) and np.all(np.diff(recent) > 0)
        assert not np.isin(recent, main).any()
        # Each n-gram short enough for a packed key is held exactly once.
        assert len(main) + len(recent) == len(byte_grams(
            texts, cfg.ngram_min, min(cfg.ngram_max, 7)))
        return main, recent

    def test_vocabulary_below_a_merge_is_never_merged(self):
        main, recent = self.check(EmbedderConfig(dims=64, hash_seed=5),
                                  MEMO_TEXTS)
        assert len(main) == 0 and 0 < len(recent) < embed_mod._MERGE_EVERY

    def test_merges_every_three_new_keys(self):
        with mock.patch.object(embed_mod, "_MERGE_EVERY", 3):
            main, recent = self.check(
                EmbedderConfig(dims=97, ngram_min=1, ngram_max=4,
                               hash_seed=2**64 + 9), MEMO_TEXTS)
        assert len(main) > 3 and len(recent) < 3

    def test_long_ngrams_bypass_the_memo(self):
        # 8-byte and longer n-grams are hashed per occurrence, not held.
        texts = MEMO_TEXTS + ["a much longer sentence about tool use é"]
        cfg = EmbedderConfig(dims=31, ngram_min=5, ngram_max=11, hash_seed=-3)
        self.check(cfg, texts)
        cfg = EmbedderConfig(dims=31, ngram_min=8, ngram_max=9, hash_seed=-3)
        main, recent = self.check(cfg, texts)
        assert len(main) + len(recent) == 0


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
        main, recent = cfg.memo.main[0], cfg.memo.recent[0]
        assert len(main) > 2 * embed_mod._MERGE_EVERY
        assert np.all(np.diff(main) > 0) and np.all(np.diff(recent) > 0)
        assert not np.isin(recent, main).any()

    def test_memo_is_not_part_of_the_config_value(self):
        used, fresh = (EmbedderConfig(dims=64, hash_seed=42) for _ in "ab")
        embed_text("call the weather api", used)
        assert used == fresh and hash(used) == hash(fresh)
        assert len(used.memo.recent[0]) + len(used.memo.main[0]) > 0
        assert "memo" not in repr(used)
        assert repr(used) == repr(fresh)

    def test_embed_document_uses_text(self):
        doc = Document("d", "s", "text", "hello world text")
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

    @pytest.mark.filterwarnings("error")  # an overflowing norm warns nothing
    @pytest.mark.parametrize("v", ["[1.0, NaN]", "[1.0, Infinity]",
                                   "[1e300, 1e300]", "[[1.0, 0.0]]",
                                   pytest.param("[1.0, 1%s]" % ("0" * 400),
                                                id="int-above-float-max")])
    def test_non_finite_or_nested_vector_names_line(self, tmp_path, v):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"id": "a", "v": [1.0, 0.0]}) + "\n"
                        + '{"id": "b", "v": %s}\n' % v)
        with pytest.raises(EmbedError, match=":2:"):
            load_external_embeddings(str(path))

    # A numeric string or a boolean would cast to a float; null is no array.
    @pytest.mark.parametrize("v", ['["0.6", "0.8"]', "[true, 0]", "null"])
    def test_vector_of_non_numbers_names_line(self, tmp_path, v):
        path = tmp_path / "vecs.jsonl"
        path.write_text(json.dumps({"id": "a", "v": [1.0, 0.0]}) + "\n"
                        + '{"id": "b", "v": %s}\n' % v)
        with pytest.raises(EmbedError,
                           match=r"vecs\.jsonl:2: v must be an array of numbers"):
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


@st.composite
def vectors_to_save(draw):
    """Embeddings as a caller may hand them to save_embeddings: ids in any
    order, float64 or float32 rows of any magnitude load accepts, zero rows
    among them. Up to 64 dims, so that a norm summed in another order than
    the parse's shows."""
    dims = draw(st.integers(1, 64))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    bound = 1e150 if dtype is np.float64 else float(np.finfo(dtype).max)
    rows = draw(st.dictionaries(
        st.text(),
        st.lists(st.floats(-bound, bound, width=np.finfo(dtype).bits)
                 | st.just(0.0), min_size=dims, max_size=dims)
        | st.sampled_from([[0.0] * dims, [-0.0] * dims]),
        max_size=12))
    ids = draw(st.permutations(sorted(rows)))
    return Embeddings(ids, np.array([rows[i] for i in ids], dtype=dtype)
                      .reshape(len(ids), dims))


class TestRememberedVectors:
    """Within a run, save_embeddings and load_external_embeddings put the
    vectors of the bytes they saw in the run table; a load of the same bytes
    must equal a cold parse."""

    @given(vectors_to_save() | st.just(Embeddings([], np.empty((0, 0)))))
    def test_saved_vectors_load_as_a_cold_parse(self, vectors):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "vecs.jsonl")
            with run_table():
                save_embeddings(vectors, path)
                with mock.patch.object(embed_mod, "read_jsonl",
                                       side_effect=AssertionError("parsed")):
                    reused = load_external_embeddings(path)
            with run_table():
                cold = load_external_embeddings(path)
        assert reused.ids == cold.ids
        assert reused.matrix.shape == cold.matrix.shape
        assert reused.matrix.tobytes() == cold.matrix.tobytes()

    @pytest.mark.filterwarnings("error")  # on save and on load
    @pytest.mark.parametrize("doc_id, row", [
        ("b", [1.0, float("nan")]), ("b", [1e300, 1e300]), (7, [0.0, 1.0])])
    def test_vectors_load_rejects_are_not_remembered(self, tmp_path, doc_id,
                                                      row):
        path = str(tmp_path / "vecs.jsonl")
        with run_table():
            save_embeddings(
                Embeddings(["a", doc_id], np.array([[1.0, 0.0], row])), path)
            assert corpus_mod._run_table.get() == {}
            with pytest.raises(EmbedError, match=r"vecs\.jsonl:2: "):
                load_external_embeddings(path)

    def test_id_that_json_changes_loads_as_parsed(self, tmp_path):
        # Two lone surrogates are written as two \u escapes, which decode
        # as the one code point they encode.
        path = str(tmp_path / "vecs.jsonl")
        with run_table():
            save_embeddings(
                Embeddings(["\ud83d\ude00"], np.array([[3.0, 4.0]])), path)
            assert load_external_embeddings(path).ids == ["\U0001F600"]

    def test_file_rewritten_in_place_loads_its_new_rows(self, tmp_path):
        path = tmp_path / "vecs.jsonl"
        with run_table():
            save_embeddings(Embeddings(["a"], np.array([[0.0, 1.0]])),
                            str(path))
            old = path.read_text()
            new = old.replace("[0.0, 1.0]", "[1.0, 0.0]")
            assert len(new) == len(old) and new != old
            path.write_text(new)
            assert load_external_embeddings(str(path)).matrix.tolist() == [
                [1.0, 0.0]]

    @pytest.mark.parametrize("saved", [True, False])
    def test_loaded_matrix_rejects_writes(self, tmp_path, saved):
        path = str(tmp_path / "vecs.jsonl")
        with run_table():
            if saved:
                save_embeddings(Embeddings(["a"], np.array([[0.0, 2.0]])),
                                path)
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write('{"id": "a", "v": [0.0, 2.0]}\n')
            loaded = load_external_embeddings(path)
            with pytest.raises(ValueError, match="read-only"):
                loaded.matrix[0, 0] = 1.0
            loaded.ids.append("b")
            assert load_external_embeddings(path).ids == ["a"]

    def test_table_lasts_one_run(self, tmp_path):
        path = str(tmp_path / "vecs.jsonl")
        with run_table():
            save_embeddings(Embeddings(["a"], np.array([[0.0, 2.0]])), path)
        with mock.patch.object(embed_mod, "read_jsonl",
                               side_effect=AssertionError("parsed")):
            with pytest.raises(AssertionError, match="parsed"):
                load_external_embeddings(path)
