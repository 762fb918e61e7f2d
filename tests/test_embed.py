import json
import math
import os
import struct
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
    mix64,
    save_embeddings,
    unit_row,
)

from conftest import make_random_vectors

CFG = EmbedderConfig(dims=64, hash_seed=42)


MASK64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_finalizer(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def gram_hash(gram, seed):
    """A byte n-gram's chained hash, in Python ints."""
    h = splitmix64_finalizer(seed & MASK64)
    for byte in gram:
        h = splitmix64_finalizer((h + (byte + 1) * GOLDEN) & MASK64)
    return h


def reference_embed_text(text, cfg):
    """The embedder as one chained hash per n-gram occurrence, in text
    order, in plain Python: a list of floats."""
    counts = [0] * cfg.dims
    data = text.encode("utf-8")
    for n in range(cfg.ngram_min, cfg.ngram_max + 1):
        for i in range(len(data) - n + 1):
            h = gram_hash(data[i:i + n], cfg.hash_seed)
            counts[h % cfg.dims] += -1 if h >> 63 else 1
    norm = math.sqrt(sum(c * c for c in counts))
    return [c / norm if norm else 0.0 for c in counts]


def assert_matches_reference(text, cfg):
    got = embed_text(text, cfg)
    assert got.dtype == np.float64
    assert got.tobytes() == struct.pack(f"{cfg.dims}d",
                                        *reference_embed_text(text, cfg))


# Seeds that reduce mod 2**64 to the same key, and seeds on either side of
# the wrap.
HASH_SEEDS = [0, 1, -1, 2**64 - 1, 2**64, 2**64 + 1, -2**64, 2**63, 2**70 + 5]


@st.composite
def embedder_configs(draw):
    lo = draw(st.integers(1, 9))
    return dict(dims=draw(st.integers(2, 300)), ngram_min=lo,
                ngram_max=draw(st.integers(lo, 9)),
                hash_seed=draw(st.integers(-2**64, -1) | st.integers(0, 2**64)
                               | st.sampled_from(HASH_SEEDS)))


short_texts = st.text(max_size=12) | st.sampled_from(["", "a", "é", "ab "])
texts = st.lists(short_texts | st.text(max_size=200), min_size=1, max_size=8)


class TestMix64:
    EDGES = [0, 1, 2**63, 2**64 - 1]

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=30))
    def test_matches_scalar_finalizer(self, values):
        values = self.EDGES + values
        z = np.array(values, np.uint64)
        assert mix64(z) is z
        assert z.tolist() == [splitmix64_finalizer(v) for v in values]

    def test_first_splitmix64_draw_from_zero(self):
        # The generator's published first output for state 0.
        z = np.array([GOLDEN], np.uint64)
        assert int(mix64(z)[0]) == 0xE220A8397B1DCDAF


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
        # Independent oracle: hash each n-gram on its own with the same
        # primitive, mix64, bucketing by hand.
        text = "invoke the api endpoint"
        data = text.encode("utf-8")
        expected = np.zeros(CFG.dims)
        for n in range(CFG.ngram_min, CFG.ngram_max + 1):
            for i in range(len(data) - n + 1):
                h = mix64(np.array([CFG.hash_seed], np.uint64))
                for byte in data[i:i + n]:
                    h = mix64(h + np.uint64((byte + 1) * GOLDEN & MASK64))
                h = int(h[0])
                expected[h % CFG.dims] += 1.0 if (h >> 63) & 1 == 0 else -1.0
        expected /= np.linalg.norm(expected)
        got = embed_text(text, CFG)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @given(embedder_configs(), texts)
    def test_matches_reference_through_shared_config(self, params, batch):
        # One config for the whole list: no text may leave state in it.
        cfg = EmbedderConfig(**params)
        for text in batch + batch[::-1]:
            assert_matches_reference(text, cfg)

    @given(embedder_configs(), texts)
    def test_matches_reference_through_fresh_configs(self, params, batch):
        for text in batch:
            assert_matches_reference(text, EmbedderConfig(**params))

    @given(embedder_configs(), embedder_configs(), texts)
    def test_configs_in_turn_match_the_reference(self, base, other, batch):
        # Configs that differ from one another in hash_seed, in dims or in
        # the n-gram range, called in turn: nothing one computes may reach
        # another.
        cfgs = [EmbedderConfig(**p) for p in (
            base, {**base, "hash_seed": other["hash_seed"]},
            {**base, "dims": other["dims"]},
            {**base, "ngram_min": other["ngram_min"],
             "ngram_max": other["ngram_max"]})]
        for text in batch:
            for cfg in cfgs:
                assert_matches_reference(text, cfg)
        for cfg in cfgs:
            assert type(cfg.start_hash) is np.uint64  # numpy 1.x casting

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
        ("b", [1.0, float("nan")]), ("b", [1e300, 1e300]), (7, [0.0, 1.0]),
        ("a", [0.0, 1.0])])
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

    @pytest.mark.parametrize("ids, matrix", [
        (["a", "b"], np.asfortranarray([[3.0, 4.0, 0.1], [1.0, 2.0, 2.0]])),
        (["a", "b"], np.array([[3.0, 9.0, 4.0], [0.5, 9.0, -0.5]])[:, ::2]),
        (["c", "a", "b"], np.array([[1.0, 2.0], [0.0, -0.0], [3.0, 1e-300]])),
        (["b", "a"], np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)),
        ([], np.empty((0, 3)))])
    def test_saved_layouts_load_as_a_cold_parse(self, tmp_path, ids, matrix):
        path = str(tmp_path / "vecs.jsonl")
        with run_table():
            save_embeddings(Embeddings(ids, matrix), path)
            with mock.patch.object(embed_mod, "read_jsonl",
                                   side_effect=AssertionError("parsed")):
                reused = load_external_embeddings(path)
        with run_table():
            cold = load_external_embeddings(path)
        assert reused.ids == cold.ids == sorted(ids)
        assert reused.matrix.shape == cold.matrix.shape
        assert reused.matrix.tobytes() == cold.matrix.tobytes()

    def test_lone_surrogate_id_loads_as_parsed(self, tmp_path):
        path = str(tmp_path / "vecs.jsonl")
        with run_table():
            save_embeddings(Embeddings(["\ud800"], np.array([[3.0, 4.0]])),
                            path)
            reused = load_external_embeddings(path)
        with run_table():
            cold = load_external_embeddings(path)
        assert reused.ids == cold.ids == ["\ud800"]
        assert reused.matrix.tobytes() == cold.matrix.tobytes()


# Floats a vectors file must spell as json.dumps does: NaN and the
# infinities, both zeros, subnormals and both ends of the normal range.
AWKWARD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                  -2.5e-310, 1e308, 1e-308, -1e308, 0.1, 1.0]
# Ids json.dumps escapes, a lone surrogate, and one that is not a string.
AWKWARD_IDS = ['"', "\\", "\x00\x1f\x7f", "café ☃", "\ud800",
               "\udfff x", 7]


@st.composite
def awkward_vectors(draw):
    """Embeddings that cross block edges (0, 1, 63, 64, 65 or 129 rows),
    with awkward floats and ids mixed in among arbitrary ones."""
    n = draw(st.sampled_from([0, 1, 63, 64, 65, 129]))
    dims = draw(st.integers(1, 6))
    value = st.sampled_from(AWKWARD_FLOATS) | st.floats()
    matrix = np.array(draw(st.lists(st.lists(value, min_size=dims,
                                             max_size=dims),
                                    min_size=n, max_size=n)),
                      dtype=np.float64).reshape(n, dims)
    ids = draw(st.lists(st.sampled_from(AWKWARD_IDS) | st.text(),
                        min_size=n, max_size=n))
    return Embeddings(ids, matrix)


@st.composite
def embedded_texts(draw):
    """Up to 130 dims-256 rows as embed_text makes them: past two block
    edges."""
    texts = draw(st.lists(st.text(max_size=40), max_size=130))
    rows = [embed_text(t, EmbedderConfig()) for t in texts]
    return Embeddings([f"d{i}" for i in range(len(texts))],
                      np.array(rows).reshape(len(texts), 256))


class TestVectorsWriter:
    """save_embeddings formats each distinct float of a block once; every
    line must still be what json.dumps makes of the record."""

    @given(vectors_to_save() | awkward_vectors() | embedded_texts()
           | st.just(Embeddings([], np.empty((0, 0)))))
    def test_lines_are_json_dumps_of_each_record(self, vectors):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "vecs.jsonl")
            save_embeddings(vectors, path)
            with open(path, encoding="utf-8", newline="") as fh:
                lines = fh.read().split("\n")
        assert lines.pop() == ""
        assert lines == [json.dumps({"id": doc_id, "v": row.tolist()})
                         for doc_id, row in zip(vectors.ids, vectors.matrix)]
