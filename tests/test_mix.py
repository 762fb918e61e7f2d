import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from corpusforge.corpus import Document, compute_stats, read_corpus
from corpusforge.mix import (
    MixError,
    MixManifest,
    MixSpec,
    apportion_budget,
    compose_mixture,
    compose_to_dir,
    verify_manifest,
)


def make_pool(name, n_docs, tokens_per_doc=None, seed=0, data_class="text"):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        length = tokens_per_doc or int(rng.integers(5, 60))
        docs.append(Document(f"{name}-{i:05d}", name, data_class,
                             " ".join(["tok"] * length)))
    return docs


class TestApportionment:
    def test_exact_sum(self):
        targets = apportion_budget(100, {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3})
        assert sum(targets.values()) == 100

    def test_degenerate_single_class(self):
        assert apportion_budget(50, {"a": 1.0}) == {"a": 50}

    def test_largest_remainder(self):
        targets = apportion_budget(10, {"a": 0.55, "b": 0.45})
        assert targets == {"a": 6, "b": 4}


class TestComposeMixture:
    def test_equal_thirds(self):
        pools = {"agent": make_pool("agent", 500, tokens_per_doc=10),
                 "text": make_pool("text", 500, tokens_per_doc=10),
                 "code": make_pool("code", 500, tokens_per_doc=10)}
        spec = MixSpec({"agent": 1, "text": 1, "code": 1}, 3000, rng_seed=1)
        manifest, docs = compose_mixture(pools, spec)
        for name in pools:
            entry = manifest.per_class[name]
            assert abs(entry["realized_tokens"] - 1000) <= 10
        assert sum(e["realized_tokens"]
                   for e in manifest.per_class.values()) <= 3000

    def test_degenerate_single_ratio(self):
        pools = {"agent": make_pool("agent", 50, tokens_per_doc=5),
                 "text": make_pool("text", 50, tokens_per_doc=5)}
        spec = MixSpec({"agent": 1.0, "text": 0.0}, 100, rng_seed=2)
        manifest, docs = compose_mixture(pools, spec)
        assert all(d.source_id == "agent" for d in docs)
        assert "text" not in manifest.per_class

    def test_seed_determinism(self):
        pools = {"a": make_pool("a", 300, seed=3), "b": make_pool("b", 300, seed=4)}
        spec = MixSpec({"a": 0.5, "b": 0.5}, 5000, rng_seed=7)
        m1, d1 = compose_mixture(pools, spec)
        m2, d2 = compose_mixture(pools, spec)
        assert m1 == m2
        assert d1 == d2

    def test_different_seed_changes_sample(self):
        pools = {"a": make_pool("a", 300, seed=3)}
        d1 = compose_mixture(pools, MixSpec({"a": 1}, 2000, rng_seed=1))[1]
        d2 = compose_mixture(pools, MixSpec({"a": 1}, 2000, rng_seed=2))[1]
        assert [d.id for d in d1] != [d.id for d in d2]

    def test_pool_order_independence(self):
        docs = make_pool("a", 200, seed=5)
        spec = MixSpec({"a": 1}, 1500, rng_seed=9)
        forward = compose_mixture({"a": docs}, spec)[1]
        backward = compose_mixture({"a": list(reversed(docs))}, spec)[1]
        assert forward == backward

    def test_no_duplicates_and_within_one_doc(self):
        pools = {"a": make_pool("a", 400, seed=6), "b": make_pool("b", 400, seed=7)}
        spec = MixSpec({"a": 0.7, "b": 0.3}, 8000, rng_seed=11)
        manifest, docs = compose_mixture(pools, spec)
        ids = [d.id for d in docs]
        assert len(ids) == len(set(ids))
        for name, pool in pools.items():
            max_doc = max(d.token_count for d in pool)
            entry = manifest.per_class[name]
            assert abs(entry["realized_tokens"] - entry["target_tokens"]) <= max_doc

    def test_pool_exhaustion_error(self):
        pools = {"a": make_pool("a", 3, tokens_per_doc=5)}
        with pytest.raises(MixError, match="exhausted"):
            compose_mixture(pools, MixSpec({"a": 1}, 1000, rng_seed=1))

    def test_missing_pool_error(self):
        with pytest.raises(MixError, match="no pool"):
            compose_mixture({}, MixSpec({"a": 1}, 100, rng_seed=1))

    def test_same_id_drawn_from_two_pools_error(self):
        pools = {name: [Document("same", name, "text", "t t")]
                 for name in ("a", "b")}
        with pytest.raises(MixError, match="'same' drawn twice"):
            compose_mixture(pools, MixSpec({"a": 1, "b": 1}, 4, rng_seed=1))

    @given(st.data())
    def test_interleave_matches_the_emit_loop(self, data):
        """The output order is the one a loop that always emits next from
        the class furthest below its target share (ties by name) gives."""
        names = data.draw(st.lists(st.sampled_from("abcd"), min_size=1,
                                   max_size=4, unique=True))
        pools = {name: [Document(f"{name}{i}", name, "text",
                                 " ".join(["t"] * n))
                        for i, n in enumerate(data.draw(st.lists(
                            st.integers(0, 6), min_size=1, max_size=12)))]
                 for name in names}
        ratios = {name: data.draw(st.integers(0, 3)) for name in names}
        assume(any(ratios.values()))
        # A budget no active pool's tokens fall short of: none runs out.
        most = min(sum(d.token_count for d in pools[name])
                   for name in names if ratios[name])
        assume(most > 0)
        budget = data.draw(st.integers(1, most))
        manifest, docs = compose_mixture(
            pools, MixSpec(ratios, budget, rng_seed=data.draw(st.integers(0, 9))))

        by_id = {d.id: d for pool in pools.values() for d in pool}
        queues = {name: [by_id[i] for i in entry["doc_ids"]]
                  for name, entry in manifest.per_class.items()}
        targets = {name: entry["target_tokens"]
                   for name, entry in manifest.per_class.items()}
        emitted = {name: 0 for name in queues}
        expected = []
        while any(queues.values()):
            candidates = [n for n in sorted(queues) if queues[n]]
            name = min(candidates,
                       key=lambda n: (emitted[n] / max(targets[n], 1), n))
            doc = queues[name].pop(0)
            emitted[name] += doc.token_count
            expected.append(doc.id)
        assert [d.id for d in docs] == expected

    def test_spec_validation(self):
        with pytest.raises(MixError):
            MixSpec({"a": 1}, 0)
        with pytest.raises(MixError):
            MixSpec({"a": 0.0}, 100)
        with pytest.raises(MixError):
            MixSpec({"a": -1.0, "b": 2.0}, 100)

    # A NaN or infinite ratio was accepted, and the stage then failed
    # converting a NaN target to an integer.
    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_non_finite_ratio_rejected(self, ratio):
        with pytest.raises(MixError, match="finite and non-negative"):
            MixSpec({"a": ratio, "b": 1.0}, 100)


class TestComposeToDir:
    def test_double_run_byte_identical(self, tmp_path):
        pools = {"agent": make_pool("agent", 300, seed=1),
                 "text": make_pool("text", 300, seed=2),
                 "code": make_pool("code", 300, seed=3)}
        spec = MixSpec({"agent": 1, "text": 1, "code": 1}, 9000, rng_seed=7)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        compose_to_dir(pools, spec, str(out1))
        compose_to_dir(pools, spec, str(out2))
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestVerifyManifest:
    def _compose(self, tmp_path):
        pools = {"a": make_pool("a", 200, seed=8), "b": make_pool("b", 200, seed=9)}
        spec = MixSpec({"a": 0.5, "b": 0.5}, 4000, rng_seed=5)
        out = tmp_path / "mix"
        manifest, paths = compose_to_dir(pools, spec, str(out))
        return manifest, str(out / "mix"), paths

    def test_fresh_mixture_zero_deviation(self, tmp_path):
        manifest, prefix, _ = self._compose(tmp_path)
        report = verify_manifest(manifest, prefix)
        assert report["ok"]
        assert report["max_deviation"] == 0

    def test_missing_doc_named(self, tmp_path):
        manifest, prefix, paths = self._compose(tmp_path)
        lines = open(paths[0]).read().splitlines()
        open(paths[0], "w").write("\n".join(lines[1:]) + "\n")
        with pytest.raises(MixError, match="missing"):
            verify_manifest(manifest, prefix)

    def test_large_mixture_recount_matches_stats(self, tmp_path):
        pools = {"a": make_pool("a", 6000, seed=10, data_class="agent_doc"),
                 "b": make_pool("b", 6000, seed=11, data_class="text")}
        spec = MixSpec({"a": 0.5, "b": 0.5}, 150_000, rng_seed=13)
        out = tmp_path / "big"
        manifest, _ = compose_to_dir(pools, spec, str(out), docs_per_shard=2000)
        prefix = str(out / "mix")
        assert verify_manifest(manifest, prefix)["ok"]
        stats = compute_stats(read_corpus(prefix))
        realized = {n: e["realized_tokens"] for n, e in manifest.per_class.items()}
        assert stats.tokens_by_class["agent_doc"] == realized["a"]
        assert stats.tokens_by_class["text"] == realized["b"]

    def test_manifest_round_trip(self, tmp_path):
        manifest, prefix, _ = self._compose(tmp_path)
        path = tmp_path / "mix" / "manifest.json"
        loaded = MixManifest.from_file(str(path))
        assert loaded == manifest


class TestSpecAndManifestFiles:
    def test_spec_without_budget_names_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"ratios": {"a": 1.0}, "rng_seed": 3}))
        with pytest.raises(MixError, match=re.escape(f"{path}: ")
                           + ".*total_token_budget"):
            MixSpec.from_file(str(path))

    def test_manifest_without_rng_seed_names_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"per_class": {}, "spec_hash": "0" * 64}))
        with pytest.raises(MixError, match=re.escape(f"{path}: ")
                           + ".*rng_seed"):
            MixManifest.from_file(str(path))
