"""Per-module spans for a traced pipeline run, recorded from outside the
program by wrapping public functions where the program looks them up.

Spans are aggregated in memory per (name, parent): calls, total time and
self time (total minus the time of child spans). Counters record work
done at the same boundaries. `install` returns a function that puts
every original back.
"""

import os
import time
from collections import defaultdict

from generate import distinct_gram_share

# Spans each stage must produce; a traced run fails when one sees zero
# calls, so a refactor cannot silently un-trace a module.
STAGE_SPANS = {
    "ingest": ["ingest.parse", "corpus.write"],
    "stats": ["corpus.read", "corpus.stats"],
    "frontier": ["ingest.load_graph", "ingest.frontier"],
    "embed": ["corpus.read", "embed.embed", "embed.save"],
    "retrieve": ["embed.load", "retrieve.topk"],
    "prune": ["embed.load", "retrieve.prune"],
    "annotate": ["corpus.read", "quality.annotate"],
    "train-filter": ["corpus.read", "classifier.train", "classifier.model_io"],
    "score": ["corpus.read", "classifier.model_io", "classifier.score"],
    "filter": ["corpus.read", "quality.filter", "corpus.write"],
    "fit": ["scaling.fit"],
    "optimize": ["scaling.optimize"],
    "mix": ["corpus.read", "mix.compose", "corpus.write"],
}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child seconds]
        self.spans = {}  # (name, parent) -> [calls, total_s, self_s]
        self.seen = set()  # (stage, span name)
        self.stage = ""
        self.counts = defaultdict(float)
        self.embedded_texts = []  # (text, ngram_min, ngram_max)

    def open(self, name):
        self.stack.append([name, 0.0])
        return time.perf_counter()

    def close(self, started):
        elapsed = time.perf_counter() - started
        name, child = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else ""
        if self.stack:
            self.stack[-1][1] += elapsed
        rec = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child
        self.seen.add((self.stage, name))

    def total(self, name, field=1):
        return sum(rec[field] for (n, _), rec in self.spans.items() if n == name)

    def calls(self, name):
        return self.total(name, 0)

    def self_time(self, name):
        return self.total(name, 2)

    def missing(self, stage_names):
        """(stage, span) pairs the config's stages should have produced."""
        return sorted((s, span) for s in set(stage_names)
                      for span in ["stage:" + s] + STAGE_SPANS.get(s, [])
                      if (s, span) not in self.seen)


def _timed(tracer, name, fn, after=None):
    def traced(*args, **kwargs):
        started = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(started)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return traced


def _timed_iter(tracer, name, iterable, counter):
    it = iter(iterable)
    while True:
        started = tracer.open(name)
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            tracer.close(started)
        tracer.counts[counter] += 1
        yield item


def install(tracer):
    """Wrap the program's public functions; returns an undo function."""
    from corpusforge import classifier, embed, ingest, mix, pipeline, \
        quality, retrieve, scaling

    originals = []
    c = tracer.counts

    def patch(owner, attr, make):
        fn = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        originals.append((owner, attr, fn))
        _set(owner, attr, make(fn))

    def span(name, after=None):
        return lambda fn: _timed(tracer, name, fn, after)

    def traced_read(fn):
        def read_corpus(*args, **kwargs):
            return _timed_iter(tracer, "corpus.read", fn(*args, **kwargs),
                               "corpus.read_docs")
        return read_corpus

    def traced_write(fn):
        def write_corpus(docs, *args, **kwargs):
            ingesting = tracer.stage == "ingest"
            before = c["corpus.write_docs"]
            source = _timed_iter(
                tracer, "ingest.parse" if ingesting else "corpus.write.input",
                docs, "corpus.write_docs")
            paths = _timed(tracer, "corpus.write", fn)(source, *args, **kwargs)
            if ingesting:
                c["ingest.ingest_docs"] += c["corpus.write_docs"] - before
            return paths
        return write_corpus

    def traced_stage(name, fn):
        def stage(*args, **kwargs):
            tracer.stage = name
            try:
                return _timed(tracer, "stage:" + name, fn)(*args, **kwargs)
            finally:
                tracer.stage = ""
        return stage

    def after_embed(vec, doc, cfg):
        data = len(doc.text.encode("utf-8"))
        c["embed.chars"] += len(doc.text)
        c["embed.grams"] += sum(max(0, data - n + 1)
                                for n in range(cfg.ngram_min, cfg.ngram_max + 1))
        tracer.embedded_texts.append((doc.text, cfg.ngram_min, cfg.ngram_max))

    def after_frontier(frontier, *args):
        c["ingest.frontier_urls"] += len(frontier.all_urls())

    def after_topk(hits, seeds, cands, k):
        c["retrieve.pairs"] += len(seeds) * len(cands)

    def after_prune(report, vecs, threshold):
        c["retrieve.prune_attempted"] += len(vecs)
        c["retrieve.prune_removed"] += len(report.removed_pairs)

    def after_annotate(result, *args, **kwargs):
        samples, errors = result
        c["quality.annotate_labeled"] += len(samples)
        c["quality.annotate_unlabeled"] += sum(
            1 for _, why in errors if why == "no parseable verdict")

    def after_filter(kept, scored, fraction):
        c["quality.kept_tokens"] += sum(d.token_count for d in kept)
        c["quality.scored_tokens"] += sum(d.token_count for d, _ in scored)

    def after_train(model, samples, hp):
        c["classifier.train_samples"] += len(samples)
        c["classifier.rows_touched"] += len(model.embedding_rows)

    def after_score(score, model, text):
        c["classifier.score_tokens"] += len(text.split())

    def after_compose(result, pools, spec):
        c["mix.docs_out"] += len(result[1])

    def after_hash(digest, path):
        c["pipeline.hash_bytes"] += os.path.getsize(path)

    def after_save_vectors(result, vectors, path):
        c["embed.vector_bytes"] += os.path.getsize(path)

    def after_save_model(result, model, path):
        c["classifier.model_bytes"] += os.path.getsize(path)

    for mod in (pipeline, mix):
        patch(mod, "write_corpus", traced_write)
    patch(pipeline, "read_corpus", traced_read)
    patch(pipeline, "compute_stats", span("corpus.stats"))
    patch(pipeline, "sha256_file", span("pipeline.hash", after_hash))
    patch(ingest, "load_link_graph", span("ingest.load_graph"))
    patch(ingest, "expand_url_frontier", span("ingest.frontier", after_frontier))
    patch(ingest, "filter_doc_urls", span("ingest.frontier"))
    patch(embed, "embed_document", span("embed.embed", after_embed))
    patch(embed, "save_embeddings", span("embed.save", after_save_vectors))
    patch(embed, "load_external_embeddings", span("embed.load"))
    patch(retrieve, "retrieve_top_k", span("retrieve.topk", after_topk))
    patch(retrieve, "prune_redundant", span("retrieve.prune", after_prune))
    patch(quality, "annotate_batch", span("quality.annotate", after_annotate))
    patch(quality, "filter_by_rank", span("quality.filter", after_filter))
    patch(pipeline, "train_filter", span("classifier.train", after_train))
    patch(pipeline, "save_model", span("classifier.model_io", after_save_model))
    patch(pipeline, "load_model", span("classifier.model_io"))
    patch(classifier.NgramLinearClassifier, "predict_score",
          span("classifier.score", after_score))
    patch(scaling, "fit_power_law", span("scaling.fit"))
    patch(scaling, "optimal_mix_ratio", span("scaling.optimize"))
    patch(mix, "compose_mixture", span("mix.compose", after_compose))
    for name in list(pipeline.STAGES):
        patch(pipeline.STAGES, name, lambda fn, name=name: traced_stage(name, fn))

    def undo():
        for owner, attr, fn in reversed(originals):
            _set(owner, attr, fn)
    return undo


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


# Stage names as of the benchmark's definition; the metric list is fixed so
# that every traced run reports the same names.
STAGE_NAMES = ("stats", "ingest", "frontier", "embed", "retrieve", "prune",
               "annotate", "train-filter", "score", "filter", "fit",
               "optimize", "mix")


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, pipeline_s):
    """name -> (value, unit) for one traced run lasting pipeline_s."""
    t, c, own = tracer.total, tracer.counts, tracer.self_time
    stages = {name: t("stage:" + name) for name in STAGE_NAMES}
    m = {
        "corpus.read_s": (t("corpus.read"), "s"),
        "corpus.read_docs": (c["corpus.read_docs"], "count"),
        "corpus.write_s": (own("corpus.write"), "s"),
        "corpus.write_docs": (c["corpus.write_docs"], "count"),
        "corpus.stats_s": (own("corpus.stats"), "s"),
        "ingest.ingest_docs": (c["ingest.ingest_docs"], "count"),
        "ingest.parse_s": (t("ingest.parse"), "s"),
        "ingest.load_graph_s": (t("ingest.load_graph"), "s"),
        "ingest.frontier_s": (t("ingest.frontier"), "s"),
        "ingest.frontier_urls": (c["ingest.frontier_urls"], "count"),
        "embed.embed_s": (t("embed.embed"), "s"),
        "embed.chars": (c["embed.chars"], "count"),
        "embed.grams": (c["embed.grams"], "count"),
        "embed.distinct_gram_share": (
            distinct_gram_share(tracer.embedded_texts)[1], "ratio"),
        "embed.save_s": (t("embed.save"), "s"),
        "embed.load_s": (t("embed.load"), "s"),
        "embed.vector_mb": (c["embed.vector_bytes"] / 1e6, "MB"),
        "retrieve.topk_s": (t("retrieve.topk"), "s"),
        "retrieve.pairs": (c["retrieve.pairs"], "count"),
        "retrieve.prune_s": (t("retrieve.prune"), "s"),
        "retrieve.prune_attempted": (c["retrieve.prune_attempted"], "count"),
        "retrieve.prune_removed": (c["retrieve.prune_removed"], "count"),
        "retrieve.prune_removed_ratio": (_ratio(
            c["retrieve.prune_removed"], c["retrieve.prune_attempted"]), "ratio"),
        "quality.annotate_s": (own("quality.annotate"), "s"),
        "quality.annotate_labeled": (c["quality.annotate_labeled"], "count"),
        "quality.annotate_unlabeled": (c["quality.annotate_unlabeled"], "count"),
        "quality.filter_s": (t("quality.filter"), "s"),
        "quality.kept_token_ratio": (_ratio(
            c["quality.kept_tokens"], c["quality.scored_tokens"]), "ratio"),
        "classifier.train_s": (t("classifier.train"), "s"),
        "classifier.train_samples": (c["classifier.train_samples"], "count"),
        "classifier.rows_touched": (c["classifier.rows_touched"], "count"),
        "classifier.score_s": (t("classifier.score"), "s"),
        "classifier.score_tokens": (c["classifier.score_tokens"], "count"),
        "classifier.model_io_s": (t("classifier.model_io"), "s"),
        "classifier.model_bytes": (c["classifier.model_bytes"], "bytes"),
        "scaling.fit_s": (t("scaling.fit"), "s"),
        "scaling.fits": (tracer.calls("scaling.fit"), "count"),
        "scaling.optimize_s": (t("scaling.optimize"), "s"),
        "mix.compose_s": (own("mix.compose"), "s"),
        "mix.docs_out": (c["mix.docs_out"], "count"),
    }
    for name, seconds in stages.items():
        m[f"pipeline.stage.{name}_s"] = (seconds, "s")
    m["pipeline.self_s"] = (
        sum(own("stage:" + name) for name in STAGE_NAMES), "s")
    m["pipeline.hash_s"] = (t("pipeline.hash"), "s")
    m["pipeline.hash_mb"] = (c["pipeline.hash_bytes"] / 1e6, "MB")
    m["pipeline.runner_s"] = (
        pipeline_s - sum(stages.values()) - t("pipeline.hash"), "s")
    return m
