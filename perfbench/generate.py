"""Seeded input generators for the benchmark workloads.

Each generator writes a workspace of input files plus `pipeline.json`
(the `run_pipeline` config) into `<out>/inputs`, and the planted values the
output checks need (optimum, near-duplicates) into `<out>/expected.json`, outside the workspace the program sees. Input
properties (docs, MB, word types, n-gram share, planted near-duplicates)
go to `<out>/properties.json`.

The generators write every file themselves, in the corpus JSONL format,
and import nothing from corpusforge: a change to the program cannot
change a workload's inputs. The same seed gives byte-identical inputs.

    python3 perfbench/generate.py --workload fixture --seed 2024 --out DIR
"""

import argparse
import json
import os
import string

import numpy as np

# --- corpus files, written the way corpusforge.corpus.write_corpus does ---


def doc_record(doc_id, source_id, data_class, text):
    return {"id": doc_id, "source_id": source_id, "data_class": data_class,
            "text": text, "token_count": len(text.split()), "meta": {}}


def write_shards(docs, prefix, docs_per_shard):
    """Write doc records as `<prefix>.NNNNN.jsonl` shards."""
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    for index, start in enumerate(range(0, max(len(docs), 1), docs_per_shard)):
        with open(f"{prefix}.{index:05d}.jsonl", "w", encoding="utf-8") as fh:
            for doc in docs[start:start + docs_per_shard]:
                fh.write(json.dumps(doc, ensure_ascii=False, sort_keys=True))
                fh.write("\n")


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_json(path, obj, **kwargs):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, **kwargs)


# --- fixture: a copy of tests/conftest.py::build_pipeline_fixture ---

AGENT_VOCAB = [
    "invoke_api", "tool_call", "endpoint", "parameter", "function_call",
    "request_schema", "api_key", "post_request", "response_json", "sdk_method",
]
GENERAL_VOCAB = [
    "weather", "today", "morning", "news", "garden", "recipe",
    "travel", "music", "story", "market",
]

FIXTURE_OPTIMUM = 0.36


def fixture_observations(name_a, name_b, c1, k1, a1, x_opt):
    """A decreasing power-law curve plus an increasing line whose summed
    derivative vanishes at x_opt."""
    k2 = -k1 * a1 * x_opt ** (a1 - 1.0)
    out = []
    for x in [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6]:
        out.append({"x": x, "loss": c1 + k1 * x ** a1, "benchmark": name_a})
        out.append({"x": x, "loss": 1.0 + k2 * x, "benchmark": name_b})
    return out


def gen_fixture(root, seed):
    """At seed 2024 this reproduces build_pipeline_fixture byte for byte."""
    rng = np.random.default_rng(seed)

    def text_from(vocab, lo=15, hi=45):
        return " ".join(rng.choice(vocab, size=int(rng.integers(lo, hi))))

    sources = [("api_docs", "documentation"), ("traj_bank", "trajectory"),
               ("code_seed", "code"), ("text_seed", "text")]
    manifest = []
    for name, kind in sources:
        origin = f"{name}.jsonl"
        vocab = AGENT_VOCAB if kind in ("documentation", "trajectory") \
            else GENERAL_VOCAB
        write_jsonl(os.path.join(root, origin),
                    [{"id": f"{name}-{i:04d}", "text": text_from(vocab)}
                     for i in range(50)])
        manifest.append({"name": name, "kind": kind,
                         "format": "plain_text" if kind != "code" else "code",
                         "origin": origin})
    write_json(os.path.join(root, "manifest.json"), manifest)

    web = []
    for i in range(2000):
        vocab = AGENT_VOCAB if i % 2 == 0 else GENERAL_VOCAB
        web.append(doc_record(f"web-{i:05d}", "webcrawl", "text",
                              text_from(vocab)))
    write_shards(web, os.path.join(root, "web"), 500)

    write_jsonl(os.path.join(root, "web_labels.jsonl"),
                [{"doc_id": f"web-{i:05d}",
                  "label": "agent" if i % 2 == 0 else "general",
                  "annotator": "fixture"} for i in range(0, 2000, 5)])

    urls = [f"https://api{i}.example.com/docs" for i in range(20)]
    with open(os.path.join(root, "seed_urls.txt"), "w") as fh:
        fh.write("\n".join(urls[:5]) + "\n")
    write_jsonl(os.path.join(root, "link_graph.jsonl"),
                [{"url": url,
                  "out": urls[i + 1:i + 4] + [f"https://blog{i}.example.com/news"]}
                 for i, url in enumerate(urls)])

    write_jsonl(os.path.join(root, "observations.jsonl"),
                fixture_observations("agent_bench", "mmlu", 0.55, 0.75, -0.35,
                                     FIXTURE_OPTIMUM))

    for pool in ("textpool", "codepool"):
        docs = [doc_record(f"{pool}-{i:04d}", pool, "text",
                           text_from(GENERAL_VOCAB)) for i in range(400)]
        write_shards(docs, os.path.join(root, pool), 500)

    write_json(os.path.join(root, "mix_spec.json"),
               {"ratios": {"agent": 1, "text": 1, "code": 1},
                "total_token_budget": 6000, "rng_seed": 99})

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
    write_json(os.path.join(root, "pipeline.json"), config, indent=2)
    return {"x_star": FIXTURE_OPTIMUM, "near_duplicates": 0}


# --- Zipfian text ---

ZIPF_TYPES = 60_000
ZIPF_S = 1.1


class ZipfText:
    """Zipf(s) word sampler over a seeded vocabulary of random words.

    Frequent ranks get shorter words, as in natural text. A topic is a
    set of mid-rank words; a topical doc draws `topic_share` of its
    tokens from its topic, which gives the classifier and the retriever
    a class signal.
    """

    def __init__(self, rng, n_types=ZIPF_TYPES, s=ZIPF_S):
        self.rng = rng
        letters = np.array(list(string.ascii_lowercase))
        words, seen = [], set()
        while len(words) < n_types:
            rank = len(words)
            length = 2 + int(np.log2(rank + 2) / 2) + int(rng.integers(0, 4))
            word = "".join(rng.choice(letters, size=length))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = np.array(words)
        weights = np.arange(1, n_types + 1, dtype=np.float64) ** -s
        self.cdf = np.cumsum(weights / weights.sum())

    def topic(self, size, lo=200, hi=20_000):
        return self.words[self.rng.choice(np.arange(lo, hi), size=size,
                                          replace=False)]

    def doc_length(self, median=28, sigma=0.6, lo=4, hi=300):
        return int(np.clip(self.rng.lognormal(np.log(median), sigma), lo, hi))

    def text(self, n_tokens, topic=None, topic_share=0.3):
        ranks = np.searchsorted(self.cdf, self.rng.random(n_tokens))
        tokens = self.words[np.minimum(ranks, len(self.words) - 1)]
        if topic is not None:
            mask = self.rng.random(n_tokens) < topic_share
            tokens[mask] = self.rng.choice(topic, size=int(mask.sum()))
        return " ".join(tokens)


def near_duplicate(rng, text, vocab_words):
    """Replace one word in 60 (at least one) with a random vocabulary word."""
    tokens = text.split()
    n = max(1, len(tokens) // 60)
    for pos in rng.choice(len(tokens), size=n, replace=False):
        tokens[pos] = str(vocab_words[int(rng.integers(len(vocab_words)))])
    return " ".join(tokens)


def zipf_sources(root, zt, specs, per_source, topics):
    """Seed-source files plus an ingest manifest; returns the manifest."""
    manifest = []
    for name, kind, topic_name in specs:
        origin = f"{name}.jsonl"
        write_jsonl(os.path.join(root, origin),
                    [{"id": f"{name}-{i:05d}",
                      "text": zt.text(zt.doc_length(), topics[topic_name])}
                     for i in range(per_source)])
        manifest.append({"name": name, "kind": kind,
                         "format": "code" if kind == "code" else "plain_text",
                         "origin": origin})
    return manifest


RETRIEVE_WEB_DOCS = 2000
RETRIEVE_DUP_SHARE = 0.1
RETRIEVE_K = 200
GRAPH_NODES = 30_000


def gen_zipf_retrieve(root, seed):
    rng = np.random.default_rng(seed)
    zt = ZipfText(rng)
    topics = {"agent": zt.topic(300), "general": zt.topic(300)}
    manifest = zipf_sources(
        root, zt, [("api_docs", "documentation", "agent"),
                   ("traj_bank", "trajectory", "agent"),
                   ("code_seed", "code", "general"),
                   ("text_seed", "text", "general")], 60, topics)
    write_json(os.path.join(root, "manifest.json"), manifest)

    n_dup = int(RETRIEVE_WEB_DOCS * RETRIEVE_DUP_SHARE)
    originals = [zt.text(zt.doc_length(),
                         topics["agent"] if rng.random() < 0.3 else None)
                 for _ in range(RETRIEVE_WEB_DOCS - n_dup)]
    texts = originals + [
        near_duplicate(rng, originals[int(rng.integers(len(originals)))],
                       zt.words)
        for _ in range(n_dup)]
    order = rng.permutation(len(texts))
    web = [doc_record(f"web-{i:05d}", "webcrawl", "text", texts[j])
           for i, j in enumerate(order)]
    write_shards(web, os.path.join(root, "web"), 500)

    # Link graph: sites with doc/guide/blog pages, random out-links.
    kinds = ["docs", "guide", "reference", "blog", "news", "forum"]
    urls = [f"https://site{int(rng.integers(3000))}.example.com/"
            f"{kinds[int(rng.integers(len(kinds)))]}/page{i}"
            for i in range(GRAPH_NODES)]
    degrees = rng.integers(1, 8, size=GRAPH_NODES)
    records = []
    for i, url in enumerate(urls):
        targets = rng.integers(GRAPH_NODES, size=int(degrees[i]))
        records.append({"url": url, "out": [urls[t] for t in targets]
                        + [f"https://ext{i}.example.org/page"]})
    write_jsonl(os.path.join(root, "link_graph.jsonl"), records)
    with open(os.path.join(root, "seed_urls.txt"), "w") as fh:
        for t in rng.choice(GRAPH_NODES, size=20, replace=False):
            fh.write(urls[int(t)] + "\n")
        fh.write("not a url\n")

    config = {
        "workspace": root,
        "rng_seed": 42,
        "stages": [
            {"name": "ingest", "manifest": "manifest.json", "out": "seed"},
            {"name": "frontier", "seeds": "seed_urls.txt",
             "graph": "link_graph.jsonl", "levels": 6, "out": "frontier.json"},
            {"name": "embed", "corpus": "seed", "out": "seed_vecs.jsonl",
             "dims": 64},
            {"name": "embed", "corpus": "web", "out": "web_vecs.jsonl",
             "dims": 64},
            {"name": "retrieve", "seeds": "seed_vecs.jsonl",
             "candidates": "web_vecs.jsonl", "k": RETRIEVE_K,
             "out": "hits.jsonl"},
            {"name": "prune", "vecs": "web_vecs.jsonl", "threshold": 0.95,
             "report": "prune.json"},
        ],
    }
    write_json(os.path.join(root, "pipeline.json"), config, indent=2)
    return {"near_duplicates": n_dup}


FILTER_WEB_DOCS = 2400
FILTER_LABELS = 1600
FILTER_POOL_DOCS = 500
FILTER_BENCHMARKS = 16


def planted_observations(rng):
    """Eight decreasing power-law curves and eight increasing lines whose
    weighted sum has its minimum at a seeded x_opt."""
    x_opt = float(rng.uniform(0.2, 0.45))
    xs = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6]
    half = FILTER_BENCHMARKS // 2
    obs, slope = [], 0.0
    for b in range(half):
        c, k, a = rng.uniform(0.4, 0.8), rng.uniform(0.3, 0.8), \
            rng.uniform(-0.6, -0.2)
        slope += k * a * x_opt ** (a - 1.0)
        obs += [{"x": x, "loss": c + k * x ** a, "benchmark": f"agent_{b:02d}"}
                for x in xs]
    shares = rng.dirichlet(np.ones(half))
    for b in range(half):
        c, k = rng.uniform(0.8, 1.2), -slope * shares[b]
        obs += [{"x": x, "loss": c + k * x, "benchmark": f"general_{b:02d}"}
                for x in xs]
    return obs, x_opt


def gen_zipf_filter(root, seed):
    rng = np.random.default_rng(seed)
    zt = ZipfText(rng)
    topics = {"agent": zt.topic(300), "general": zt.topic(300)}
    for pool, kind in (("text", "text"), ("code", "code")):
        manifest = zipf_sources(root, zt, [(f"{pool}_src", kind, "general")],
                                FILTER_POOL_DOCS, topics)
        write_json(os.path.join(root, f"{pool}_manifest.json"), manifest)

    web, labels = [], []
    label_ids = set(rng.choice(FILTER_WEB_DOCS, size=FILTER_LABELS,
                               replace=False).tolist())
    for i in range(FILTER_WEB_DOCS):
        label = "agent" if rng.random() < 0.5 else "general"
        web.append(doc_record(f"web-{i:05d}", "webcrawl", "text",
                              zt.text(zt.doc_length(), topics[label])))
        if i in label_ids:
            labels.append({"doc_id": f"web-{i:05d}", "label": label,
                           "annotator": "bench"})
    write_shards(web, os.path.join(root, "web"), 800)
    write_jsonl(os.path.join(root, "web_labels.jsonl"), labels)

    obs, x_opt = planted_observations(rng)
    write_jsonl(os.path.join(root, "observations.jsonl"), obs)
    benchmarks = sorted({o["benchmark"] for o in obs})
    write_json(os.path.join(root, "mix_spec.json"),
               {"ratios": {"agent": 1, "text": 1, "code": 1},
                "total_token_budget": 24000, "rng_seed": 99})

    fits = [f"fit_{b}.json" for b in benchmarks]
    config = {
        "workspace": root,
        "rng_seed": 42,
        "stages": [
            {"name": "ingest", "manifest": "text_manifest.json",
             "out": "textpool"},
            {"name": "ingest", "manifest": "code_manifest.json",
             "out": "codepool"},
            {"name": "annotate", "corpus": "web",
             "backend": {"kind": "file", "labels": "web_labels.jsonl"},
             "out": "labels.jsonl"},
            {"name": "train-filter", "corpus": "web", "labels": "labels.jsonl",
             "out": "filter_model.bin"},
            {"name": "score", "model": "filter_model.bin", "corpus": "web",
             "out": "scores.jsonl"},
            {"name": "filter", "corpus": "web", "scores": "scores.jsonl",
             "keep_fraction": 0.4, "out": "filtered"},
        ] + [{"name": "fit", "obs": "observations.jsonl", "benchmark": b,
              "out": f} for b, f in zip(benchmarks, fits)] + [
            {"name": "optimize", "fits": fits,
             "weights": [1.0] * len(fits), "domain": "0.05:0.6",
             "step": 0.001, "out": "optimum.json"},
            {"name": "mix", "spec": "mix_spec.json",
             "pools": {"agent": "filtered", "text": "textpool",
                       "code": "codepool"},
             "out": "mixout"},
            {"name": "stats", "corpus": "mixout/mix", "out": "mix_stats.json"},
        ],
    }
    write_json(os.path.join(root, "pipeline.json"), config, indent=2)
    return {"x_star": x_opt, "near_duplicates": 0}


GENERATORS = {"fixture": gen_fixture, "zipf_retrieve": gen_zipf_retrieve,
              "zipf_filter": gen_zipf_filter}


# --- input properties ---


def corpus_texts(root):
    """Texts of every source file and corpus shard in the inputs."""
    texts = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".jsonl") or name.startswith(("link_graph",
                                                           "observations")):
            continue
        with open(os.path.join(root, name), encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if "text" in obj:
                    texts.append(obj["text"])
    return texts


def distinct_gram_share(items):
    """(distinct, distinct / total) byte n-grams, as the embedder sees them,
    over (text, ngram_min, ngram_max) items."""
    seen, total = set(), 0
    for text, lo, hi in items:
        data = text.encode("utf-8")
        for n in range(lo, hi + 1):
            grams = [data[i:i + n] for i in range(len(data) - n + 1)]
            total += len(grams)
            seen.update(grams)
    return len(seen), (len(seen) / total if total else 0.0)


def input_properties(root, planted):
    texts = corpus_texts(root)
    size = sum(os.path.getsize(os.path.join(root, f)) for f in os.listdir(root))
    types = {w for t in texts for w in t.split()}
    grams, share = distinct_gram_share((t, 3, 5) for t in texts)
    return {"docs": len(texts), "mb": size / 1e6, "word_types": len(types),
            "tokens": sum(len(t.split()) for t in texts),
            "distinct_grams": grams, "distinct_gram_share": share,
            "near_duplicate_share": planted["near_duplicates"] / len(texts)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    root = os.path.join(args.out, "inputs")
    os.makedirs(root)
    planted = GENERATORS[args.workload](root, args.seed)
    write_json(os.path.join(args.out, "expected.json"), planted)
    write_json(os.path.join(args.out, "properties.json"),
               input_properties(root, planted))


if __name__ == "__main__":
    main()
