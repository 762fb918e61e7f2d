import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from corpusforge import retrieve as retrieve_mod
from corpusforge.embed import EmbedError, Embeddings
from corpusforge.retrieve import (
    PruneReport,
    RetrieveError,
    load_hits,
    prune_redundant,
    retrieve_top_k,
    save_hits,
)

from conftest import make_embeddings, make_random_vectors


def brute_force_top_k(seed_vecs, cand_vecs, k):
    """O(S*C) double loop with fsum-based cosines; the retrieval oracle."""
    def cos(a, b):
        dot = math.fsum(x * y for x, y in zip(a, b))
        norms = math.sqrt(math.fsum(x * x for x in a)) \
            * math.sqrt(math.fsum(y * y for y in b))
        return max(-1.0, min(1.0, dot / norms))

    hits = []
    for cid, cv in sorted(zip(cand_vecs.ids, cand_vecs.matrix)):
        if not cv.any():
            continue
        best_score, best_seed = -2.0, None
        for sid, sv in sorted(zip(seed_vecs.ids, seed_vecs.matrix)):
            if not sv.any():
                continue
            s = cos(cv, sv)
            if s > best_score:
                best_score, best_seed = s, sid
        hits.append((cid, best_seed, best_score))
    hits.sort(key=lambda h: (-h[2], h[0]))
    return hits[:k]


class TestRetrieveTopK:
    def test_duplicate_beats_orthogonal(self):
        seed = make_embeddings({"s0": [1.0, 0.0]})
        cands = make_embeddings({"dup": [2.0, 0.0], "orth": [0.0, 1.0]})
        hits = retrieve_top_k(seed, cands, 1)
        assert len(hits) == 1
        assert hits[0].candidate_id == "dup"
        assert hits[0].score == 1.0
        assert hits[0].best_seed_id == "s0"

    def test_k_saturation_returns_all_sorted(self):
        seeds = make_random_vectors(3, 8, seed=1, prefix="s")
        cands = make_random_vectors(10, 8, seed=2, prefix="c")
        hits = retrieve_top_k(seeds, cands, 50)
        assert len(hits) == 10
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_matches_brute_force_oracle(self):
        seeds = make_random_vectors(50, 32, seed=10, prefix="s")
        cands = make_random_vectors(1000, 32, seed=20, prefix="c")
        hits = retrieve_top_k(seeds, cands, 25)
        oracle = brute_force_top_k(seeds, cands, 25)
        assert [(h.candidate_id, h.best_seed_id) for h in hits] == \
            [(c, s) for c, s, _ in oracle]
        for hit, (_, _, score) in zip(hits, oracle):
            assert abs(hit.score - score) < 1e-12

    def test_scores_non_increasing(self):
        seeds = make_random_vectors(5, 16, seed=3, prefix="s")
        cands = make_random_vectors(100, 16, seed=4, prefix="c")
        hits = retrieve_top_k(seeds, cands, 100)
        for a, b in zip(hits, hits[1:]):
            assert a.score >= b.score

    def test_zero_candidates_excluded(self):
        seeds = make_random_vectors(2, 4, seed=5, prefix="s")
        cands = make_embeddings({"zero": [0.0] * 4, "live": [1.0, 0, 0, 0]})
        hits = retrieve_top_k(seeds, cands, 10)
        assert [h.candidate_id for h in hits] == ["live"]

    def test_empty_seed_map_error(self):
        with pytest.raises(RetrieveError):
            retrieve_top_k(make_embeddings({}), make_random_vectors(3, 4), 1)

    @pytest.mark.parametrize("cands,k,what", [
        ({"c": [1.0, 0.0]}, 0, "k must be >= 1"),
        ({"z": [0.0, 0.0], "y": [0.0, 0.0]}, 1, "no nonzero candidate")],
        ids=["k_below_one", "all_zero_candidates"])
    def test_bad_k_or_candidates_error(self, cands, k, what):
        with pytest.raises(RetrieveError, match=what):
            retrieve_top_k(make_embeddings({"s": [1.0, 0.0]}),
                           make_embeddings(cands), k)

    def test_no_candidates_no_hits(self):
        seeds = make_random_vectors(2, 4, seed=1, prefix="s")
        assert retrieve_top_k(seeds, make_embeddings({}), 3) == []

    def test_dims_mismatch_error(self):
        seeds = make_random_vectors(2, 4, seed=1, prefix="s")
        cands = make_random_vectors(2, 8, seed=1, prefix="c")
        with pytest.raises(EmbedError):
            retrieve_top_k(seeds, cands, 1)

    def test_hits_round_trip(self, tmp_path):
        seeds = make_random_vectors(3, 8, seed=6, prefix="s")
        cands = make_random_vectors(9, 8, seed=7, prefix="c")
        hits = retrieve_top_k(seeds, cands, 5)
        path = tmp_path / "hits.jsonl"
        save_hits(hits, str(path))
        assert load_hits(str(path)) == hits

    @pytest.mark.parametrize("first, second, where", [
        ({"candidate_id": 5, "best_seed_id": [], "score": "x"},
         {"candidate_id": 5, "best_seed_id": "s", "score": 0.5}, ":1: "),
        ({"candidate_id": "c", "best_seed_id": "s", "score": 0.5},
         {"candidate_id": "c", "best_seed_id": "s", "score": 0.4},
         ":2: duplicate"),
        ({"candidate_id": 5, "best_seed_id": "s", "score": 0.5},
         {"candidate_id": "c", "best_seed_id": "s", "score": 0.4},
         ":1: candidate_id must be a string")])
    def test_bad_hit_names_file_and_line(self, tmp_path, first, second, where):
        path = tmp_path / "hits.jsonl"
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        with pytest.raises(RetrieveError, match=re.escape("hits.jsonl" + where)):
            load_hits(str(path))


def greedy_scan(vecs, threshold):
    """prune_redundant's contract, row by row: one GEMV per nonzero row, in
    id order, against the rows retained before it; the prune oracle."""
    live = vecs.nonzero()
    retained = np.empty_like(live.matrix)
    retained_ids, removed_pairs = [], []
    for vid, row in zip(live.ids, live.matrix):
        r = len(retained_ids)
        sims = np.clip(retained[:r] @ row, -1.0, 1.0)
        if r and sims[best := int(sims.argmax())] >= threshold:
            removed_pairs.append((retained_ids[best], vid, float(sims[best])))
        else:
            retained[r] = row
            retained_ids.append(vid)
    zero_ids = sorted(set(vecs.ids).difference(live.ids))
    return PruneReport(retained_ids + zero_ids, removed_pairs, threshold)


BLOCK = retrieve_mod._PRUNE_BLOCK
# Row counts at the screen's block edges.
SIZES = st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
THRESHOLDS = st.sampled_from([1.0, 0.95, 0.5, 1e-12]) | st.floats(1e-12, 1.0)


def embeddings(rows):
    return Embeddings([f"v{i:05d}" for i in range(len(rows))], rows)


def unit_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


class TestScreenedPrune:
    """prune_redundant screens rows with matrix products; every decision
    and similarity must be the greedy scan's."""

    @given(SIZES | st.integers(0, 40), st.integers(1, 6), THRESHOLDS,
           st.integers(0, 2**32 - 1))
    def test_equals_the_greedy_scan(self, n, dims, threshold, seed):
        # Rows of -1, 0 and 1 hold exact duplicates, ties and zero rows.
        rows = np.random.default_rng(seed).integers(-1, 2, (n, dims))
        with np.errstate(invalid="ignore"):  # zero rows stay zeros
            vecs = embeddings(np.nan_to_num(unit_rows(rows)))
        assert prune_redundant(vecs, threshold) == greedy_scan(vecs, threshold)

    @given(SIZES, st.sampled_from([16, 64, 256]), st.floats(0.01, 0.5),
           st.integers(-2, 2), st.integers(0, 2**32 - 1))
    def test_cosines_at_the_threshold(self, n, dims, angle, ulps, seed):
        # An anchor row, then rows at one angle to it: their cosines to the
        # anchor lie within 1e-12 of each other, and the threshold is one
        # of them as a GEMV computes it, give or take `ulps`, so decisions
        # turn on the last bits, where a GEMM may round otherwise.
        rng = np.random.default_rng(seed)
        anchor = unit_rows(rng.standard_normal((1, dims)))
        off = rng.standard_normal((n, dims))
        off = unit_rows(off - np.outer(off @ anchor[0], anchor[0]))
        rows = unit_rows(np.vstack([anchor, anchor + angle * off]))
        sims = np.clip(rows[1:] @ rows[0], -1.0, 1.0)
        assert np.all(np.abs(sims - sims[:1]) < 1e-12)
        threshold = float(sims[len(sims) // 2]) if n else 0.5
        threshold = min(1.0, threshold + ulps * np.spacing(threshold))
        vecs = embeddings(rows)
        assert prune_redundant(vecs, threshold) == greedy_scan(vecs, threshold)

    def test_tie_keeps_the_earliest_retained_row(self):
        # Two orthogonal rows, a block of fillers, then a row at 45 degrees
        # to both: it is removed for the first.
        rows = np.zeros((BLOCK + 3, 3))
        rows[0, 0] = rows[1, 1] = 1.0
        rows[2:-1, 2] = 1.0
        rows[-1, :2] = np.sqrt(0.5)
        vecs = embeddings(rows)
        report = prune_redundant(vecs, 0.7)
        assert report == greedy_scan(vecs, 0.7)
        assert report.removed_pairs[-1][:2] == ("v00000", vecs.ids[-1])


class TestPruneRedundant:
    def test_exact_duplicate_removed(self):
        vecs = make_embeddings({"a": [1.0, 0.0], "b": [2.0, 0.0]})
        report = prune_redundant(vecs, 0.95)
        assert report.retained_ids == ["a"]
        assert report.removed_pairs == [("a", "b", 1.0)]

    def test_orthogonal_set_all_retained(self):
        vecs = make_embeddings({f"v{i}": np.eye(4)[i] for i in range(4)})
        report = prune_redundant(vecs, 0.01)
        assert sorted(report.retained_ids) == vecs.ids
        assert report.removed_pairs == []

    def test_all_pairs_soundness(self):
        vecs = make_random_vectors(500, 8, seed=42)
        report = prune_redundant(vecs, 0.9)
        rows = dict(zip(vecs.ids, vecs.matrix))
        retained = [rows[i] for i in report.retained_ids]
        for i in range(len(retained)):
            for j in range(i + 1, len(retained)):
                dot = float(np.dot(retained[i], retained[j]))
                cos = dot / (np.linalg.norm(retained[i])
                             * np.linalg.norm(retained[j]))
                assert cos < 0.9

    def test_partition_of_input(self):
        vecs = make_random_vectors(200, 4, seed=8)
        report = prune_redundant(vecs, 0.8)
        removed = {pair[1] for pair in report.removed_pairs}
        assert set(report.retained_ids) | removed == set(vecs.ids)
        assert not set(report.retained_ids) & removed

    def test_removed_pairs_meet_threshold(self):
        vecs = make_random_vectors(300, 4, seed=9)
        report = prune_redundant(vecs, 0.85)
        for kept, removed, sim in report.removed_pairs:
            assert sim >= 0.85
            assert kept in report.retained_ids

    def test_threshold_monotone_on_random_set(self):
        # Greedy pruning is not monotone for adversarial geometries, but
        # on random sets a higher threshold retains at least as much.
        vecs = make_random_vectors(200, 4, seed=12)
        sizes = [len(prune_redundant(vecs, t).retained_ids)
                 for t in (0.5, 0.7, 0.9, 0.99)]
        assert sizes == sorted(sizes)

    def test_bad_threshold(self):
        vecs = make_random_vectors(3, 4)
        for t in (0.0, -0.5, 1.5):
            with pytest.raises(RetrieveError):
                prune_redundant(vecs, t)

    def test_deterministic(self):
        vecs = make_random_vectors(100, 8, seed=21)
        a = prune_redundant(vecs, 0.9)
        b = prune_redundant(vecs, 0.9)
        assert a.retained_ids == b.retained_ids
        assert a.removed_pairs == b.removed_pairs
