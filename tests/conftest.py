import numpy as np
import pytest
from hypothesis import settings

from corpusforge.corpus import Document
from corpusforge.embed import Embeddings, unit_row

# `pytest --hypothesis-profile=ci`: the same examples on every run, and
# three times the default number of them.
settings.register_profile("ci", derandomize=True, max_examples=300)

AGENT_VOCAB = [
    "invoke_api", "tool_call", "endpoint", "parameter", "function_call",
    "request_schema", "api_key", "post_request", "response_json", "sdk_method",
]
GENERAL_VOCAB = [
    "weather", "today", "morning", "news", "garden", "recipe",
    "travel", "music", "story", "market",
]


def make_separable_samples(n, seed=123):
    """(text, label) pairs with disjoint class vocabularies.

    Linearly separable by construction, so a linear bag-of-n-grams model
    can reach near-perfect accuracy.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        label = "agent" if i % 2 == 0 else "general"
        vocab = AGENT_VOCAB if label == "agent" else GENERAL_VOCAB
        length = int(rng.integers(5, 30))
        samples.append((" ".join(rng.choice(vocab, size=length)), label))
    return samples


def make_random_docs(n, seed=7, classes=("agent_doc", "agent_traj", "code", "text")):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(200)]
    docs = []
    for i in range(n):
        length = int(rng.integers(1, 40))
        text = " ".join(rng.choice(words, size=length))
        docs.append(Document(
            id=f"doc{i:06d}",
            source_id="synthetic",
            data_class=classes[int(rng.integers(len(classes)))],
            text=text,
        ))
    return docs


def make_embeddings(rows):
    """Embeddings of raw rows by id, normalized as loading normalizes them."""
    rows = {vid: unit_row(np.asarray(v, dtype=np.float64))
            for vid, v in rows.items()}
    dims = len(next(iter(rows.values()))) if rows else 0
    return Embeddings.from_rows(rows, dims)


def make_random_vectors(n, dims, seed=0, prefix="v"):
    rng = np.random.default_rng(seed)
    return make_embeddings({f"{prefix}{i:05d}": rng.standard_normal(dims)
                            for i in range(n)})


@pytest.fixture
def separable_2000():
    return make_separable_samples(2000)


def build_pipeline_fixture(root):
    """Desk-scale pipeline fixture: 200 seed docs, 2,000 web docs, labels,
    scaling observations, and a full-stage pipeline config.

    Returns the config dict; all paths are relative to `root`.
    """
    import json
    import os

    from corpusforge.corpus import write_corpus

    root = str(root)
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng(2024)

    def text_from(vocab, lo=15, hi=45):
        return " ".join(rng.choice(vocab, size=int(rng.integers(lo, hi))))

    # Seed sources consumed by the ingest stage.
    sources = [("api_docs", "documentation"), ("traj_bank", "trajectory"),
               ("code_seed", "code"), ("text_seed", "text")]
    manifest = []
    for name, kind in sources:
        origin = f"{name}.jsonl"
        vocab = AGENT_VOCAB if kind in ("documentation", "trajectory") \
            else GENERAL_VOCAB
        with open(os.path.join(root, origin), "w", encoding="utf-8") as fh:
            for i in range(50):
                fh.write(json.dumps({"id": f"{name}-{i:04d}",
                                     "text": text_from(vocab)}) + "\n")
        manifest.append({"name": name, "kind": kind,
                         "format": "plain_text" if kind != "code" else "code",
                         "origin": origin})
    with open(os.path.join(root, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)

    # Web corpus: half agent-flavored, half general.
    web_docs = []
    for i in range(2000):
        agent_like = i % 2 == 0
        vocab = AGENT_VOCAB if agent_like else GENERAL_VOCAB
        web_docs.append(Document(
            id=f"web-{i:05d}", source_id="webcrawl", data_class="text",
            text=text_from(vocab)))
    write_corpus(web_docs, os.path.join(root, "web"), docs_per_shard=500)

    # Precomputed annotation labels for a subset of the web corpus.
    with open(os.path.join(root, "web_labels.jsonl"), "w") as fh:
        for i in range(0, 2000, 5):
            fh.write(json.dumps({
                "doc_id": f"web-{i:05d}",
                "label": "agent" if i % 2 == 0 else "general",
                "annotator": "fixture"}) + "\n")

    # Frontier inputs: a small synthetic site graph.
    urls = [f"https://api{i}.example.com/docs" for i in range(20)]
    with open(os.path.join(root, "seed_urls.txt"), "w") as fh:
        fh.write("\n".join(urls[:5]) + "\n")
    with open(os.path.join(root, "link_graph.jsonl"), "w") as fh:
        for i, url in enumerate(urls):
            out = urls[i + 1:i + 4] + [f"https://blog{i}.example.com/news"]
            fh.write(json.dumps({"url": url, "out": out}) + "\n")

    # Scaling observations: a decreasing agent curve plus an increasing
    # general curve whose summed derivative vanishes at x = 0.36.
    c1, k1, a1 = 0.55, 0.75, -0.35
    k2 = -k1 * a1 * 0.36 ** (a1 - 1.0)
    with open(os.path.join(root, "observations.jsonl"), "w") as fh:
        for x in [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6]:
            fh.write(json.dumps({"x": x, "loss": c1 + k1 * x ** a1,
                                 "benchmark": "agent_bench"}) + "\n")
            fh.write(json.dumps({"x": x, "loss": 1.0 + k2 * x,
                                 "benchmark": "mmlu"}) + "\n")

    # Extra pools for the final mix.
    for pool, vocab in (("textpool", GENERAL_VOCAB), ("codepool", GENERAL_VOCAB)):
        docs = [Document(f"{pool}-{i:04d}", pool, "text", text_from(vocab))
                for i in range(400)]
        write_corpus(docs, os.path.join(root, pool), docs_per_shard=500)

    with open(os.path.join(root, "mix_spec.json"), "w") as fh:
        json.dump({"ratios": {"agent": 1, "text": 1, "code": 1},
                   "total_token_budget": 6000, "rng_seed": 99}, fh)

    config = {
        "workspace": root,
        "rng_seed": 42,
        "stages": [
            {"name": "ingest", "manifest": "manifest.json", "out": "seed"},
            {"name": "stats", "corpus": "seed", "out": "seed_stats.json"},
            {"name": "frontier", "seeds": "seed_urls.txt",
             "graph": "link_graph.jsonl", "levels": 3, "out": "frontier.json"},
            {"name": "embed", "corpus": "seed", "out": "seed_vecs.jsonl",
             "dims": 64},
            {"name": "embed", "corpus": "web", "out": "web_vecs.jsonl",
             "dims": 64},
            {"name": "retrieve", "seeds": "seed_vecs.jsonl",
             "candidates": "web_vecs.jsonl", "k": 500, "out": "hits.jsonl"},
            {"name": "prune", "vecs": "web_vecs.jsonl", "threshold": 0.95,
             "report": "prune.json"},
            {"name": "annotate", "corpus": "web",
             "backend": {"kind": "file", "labels": "web_labels.jsonl"},
             "out": "labels.jsonl"},
            {"name": "train-filter", "corpus": "web", "labels": "labels.jsonl",
             "out": "filter_model.bin"},
            {"name": "score", "model": "filter_model.bin", "corpus": "web",
             "out": "scores.jsonl"},
            {"name": "filter", "corpus": "web", "scores": "scores.jsonl",
             "keep_fraction": 0.4, "out": "filtered"},
            {"name": "fit", "obs": "observations.jsonl",
             "benchmark": "agent_bench", "out": "fit_agent.json"},
            {"name": "fit", "obs": "observations.jsonl",
             "benchmark": "mmlu", "out": "fit_mmlu.json"},
            {"name": "optimize", "fits": ["fit_agent.json", "fit_mmlu.json"],
             "weights": [1.0, 1.0], "domain": "0.05:0.6", "step": 0.001,
             "out": "optimum.json"},
            {"name": "mix", "spec": "mix_spec.json",
             "pools": {"agent": "filtered", "text": "textpool",
                       "code": "codepool"},
             "out": "mixout"},
            {"name": "stats", "corpus": "mixout/mix", "out": "mix_stats.json"},
        ],
    }
    with open(os.path.join(root, "pipeline.json"), "w") as fh:
        json.dump(config, fh, indent=2)
    return config
