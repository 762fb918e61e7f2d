"""Declarative pipeline runner: one JSON config drives every stage.

Stages run sequentially in config order; each stage reads and writes
config-declared paths under the workspace. The run report records
per-stage input/output SHA-256 hashes, durations, and key stats so the
full provenance chain from the final mix back to the raw inputs is
reconstructible from the report alone. An input's digest is of the bytes
the stage read and an output's of the bytes it wrote: an input is hashed
when the stage declares it, before the stage reads it, and an output when
the stage finishes; a file is hashed once per version. So a stage's
`duration_s` includes hashing every input the run had not hashed before,
but not its outputs. The run table (`corpus`) also hashes a corpus shard or
vectors file each time a stage reads it, to find the parse of those bytes.
"""

import inspect
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable

from . import corpus as corpus_mod
from . import embed as embed_mod
from . import ingest as ingest_mod
from . import mix as mix_mod
from . import quality as quality_mod
from . import retrieve as retrieve_mod
from . import scaling as scaling_mod
from .classifier import FilterHyperparams, load_model, save_model, train_filter
from .corpus import (Document, compute_stats, convert, read_corpus,
                     read_jsonl, read_keyed, read_lines, write_corpus,
                     write_json, write_lines)


class ConfigError(Exception):
    """Config schema violation; maps to exit code 2."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class StageError(Exception):
    """A stage failed at run time; maps to exit code 1."""


def log_event(**fields):
    print(json.dumps(fields, sort_keys=True), file=sys.stderr)


# ----------------------------------------------------------------------
# The stage table. A stage body declares its config fields as keyword
# parameters whose defaults are `Field`s, and the CLI builds each
# `forge <stage>` subparser from the same fields.

IN, OUT, VALUE = "in", "out", "value"
REQUIRED = object()  # default of a field that must be set
RUN_SEED = object()  # default of a field that takes the run's rng_seed


@dataclass(frozen=True)
class Field:
    """One key of a config object, read by `read_fields`: of the root, a
    stage (named by the body's parameter), an `annotate` backend or the
    `mix` pools. kind is IN (an input path), OUT (an output path) or VALUE.

    The field's `forge <stage>` flag is `flag`, or --key with "_" -> "-"
    when `flag` is empty; None means the field has no flag of its own and
    a CLI hook or --seed sets it.
    """

    type: Callable = str
    default: object = REQUIRED
    kind: str = VALUE
    flag: str | None = ""
    help: str | None = None


INPUT = Field(kind=IN)
OUTPUT = Field(kind=OUT)


def sha256_file(path: str) -> str:
    """The hex SHA-256 of the file at path; a failed read names the path."""
    with open(path, "rb", buffering=0) as fh:
        try:
            return corpus_mod.sha256_file(fh)
        except OSError as exc:
            raise StageError(f"{path}: {exc}") from exc


class StageRun:
    """Per-call state of one stage: the workspace, the run's seed, the
    run's digest of each file version it has hashed (path -> hex) and the
    digests of the inputs the stage declared (its own, its backend's, its
    pools')."""

    def __init__(self, workspace: str, seed: int, digests: dict):
        self.workspace = workspace
        self.seed = seed
        self.digests = digests
        self.inputs = {}

    def resolve(self, path: str) -> str:
        return os.path.join(self.workspace, path)  # keeps an absolute path

    def input(self, path: str, field: str) -> str:
        """Resolve an input path, check that it names a file or shards and
        record the digest of each, hashed unless the run has it."""
        path = self.resolve(path)
        paths = corpus_mod.shard_paths(path)
        if not paths:
            raise ConfigError(field, f"no input file or shards at {path}")
        for p in paths:
            if p not in self.digests:
                self.digests[p] = sha256_file(p)
            self.inputs[p] = self.digests[p]
        return path


def read_fields(where: str, fields: dict, obj: dict, run=None) -> dict:
    """The values of config object `obj`, keyed as its table `fields`.

    In table order, a missing or null key takes its default (given in
    config form; RUN_SEED is run.seed), the value is converted by the
    field's type, an OUT path is resolved and an IN path declared in `run`.
    Then a key the table lacks is refused. A ConfigError names the key
    after `where`, as in "stages[mix].pools.agent".
    """
    values = {}
    for key, f in fields.items():
        value = obj.get(key)
        if value is None:
            value = run.seed if f.default is RUN_SEED else f.default
        if value is REQUIRED:
            raise ConfigError(where + key, "missing required field")
        if value is not None:
            try:
                value = convert(f.type, value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(where + key, str(exc)) from exc
            if f.kind == IN:
                value = run.input(value, where + key)
            elif f.kind == OUT:
                value = run.resolve(value)
        values[key] = value
    unknown = sorted(obj.keys() - fields.keys())
    if unknown:
        raise ConfigError(where + unknown[0], "unknown key")
    return values


class Stage:
    """A stage body and the fields its signature declares.

    `body(run, **fields)` returns (output_paths, stats), the output paths
    being exactly the files it wrote. Called with (stage_dict, run), the
    stage runs the body on the values of the dict's keys but `name`."""

    def __init__(self, name: str, help: str, body: Callable):
        self.name = name
        self.help = help
        self.body = body
        params = list(inspect.signature(body).parameters.values())[1:]
        self.fields = {p.name: p.default for p in params}

    def __call__(self, stage: dict, run: StageRun):
        keys = {k: v for k, v in stage.items() if k != "name"}
        return self.body(run, **read_fields(f"stages[{self.name}].",
                                            self.fields, keys, run))


def _listed(cast):
    """A list value, also accepted as a comma-separated string."""
    def convert_list(value):
        if isinstance(value, str):
            return [cast(v) for v in value.split(",") if v]
        return [convert(cast, v) for v in convert(list, value)]
    return convert_list


def _span(value):
    """A [lo, hi] pair of floats, also accepted as a "lo:hi" string."""
    if isinstance(value, str):
        value = [float(v) for v in value.split(":")]
    lo, hi = value
    return [convert(float, lo), convert(float, hi)]


# Bodies look up corpus and model functions as module globals at call time.


def _stats(run, corpus=INPUT, out=OUTPUT):
    stats = asdict(compute_stats(read_corpus(corpus)))
    write_json(out, stats)
    return [out], stats


def _ingest(run, manifest=INPUT, out=OUTPUT):
    sources = ingest_mod.load_sources(manifest)

    def docs():
        for spec in sources:
            if not spec.origin:
                continue
            data_class = ingest_mod.KIND_TO_CLASS[spec.kind]

            def parse(obj, lineno):
                if not (isinstance(obj, dict)
                        and isinstance(obj.get("text"), str)
                        and isinstance(obj.get("id", ""), str)):
                    raise ingest_mod.IngestError(
                        'expected a JSON object with a string "text" and an '
                        'optional string "id"')
                # Default ids count physical lines, blank ones included.
                return Document(obj.get("id", f"{spec.name}:{lineno}"),
                                spec.name, data_class, obj["text"],
                                meta={"origin": spec.origin})
            yield from read_jsonl(run.input(spec.origin, "stages[ingest].origin"), parse,
                                  ingest_mod.IngestError)

    paths = write_corpus(docs(), out)
    return paths, {"sources": len(sources), "shards": len(paths)}


def _frontier(run, seeds=INPUT, graph=INPUT, out=OUTPUT,
              levels=Field(int, 3),
              keywords=Field(_listed(str),
                             ",".join(ingest_mod.DEFAULT_DOC_KEYWORDS)),
              filter_final=Field(bool, True, flag="--no-filter",
                                 help="skip the documentation-keyword filter")):
    seed_urls = {url for _, url in read_lines(seeds, ingest_mod.IngestError)}
    link_graph = ingest_mod.load_link_graph(graph)
    frontier = ingest_mod.expand_url_frontier(seed_urls, link_graph, levels)
    all_urls = frontier.all_urls()
    kept = (ingest_mod.filter_doc_urls(all_urls, keywords)
            if filter_final else all_urls)
    write_json(out, {
        "levels": [sorted(level) for level in frontier.levels],
        "rejected_seeds": frontier.rejected_seeds,
        "doc_urls": sorted(kept),
    })
    level_sizes = [len(level) for level in frontier.levels]
    return [out], {"level_sizes": level_sizes, "doc_urls": len(kept)}


def _embed(run, corpus=INPUT, out=OUTPUT,
           dims=Field(int, embed_mod.EmbedderConfig.dims),
           ngram_min=Field(int, embed_mod.EmbedderConfig.ngram_min, flag=None),
           ngram_max=Field(int, embed_mod.EmbedderConfig.ngram_max, flag=None),
           seed=Field(int, RUN_SEED, flag=None)):
    cfg = embed_mod.EmbedderConfig(dims=dims, ngram_min=ngram_min,
                                   ngram_max=ngram_max, hash_seed=seed)
    vectors = embed_mod.Embeddings.from_rows(
        {doc.id: embed_mod.embed_document(doc, cfg)
         for doc in read_corpus(corpus)}, dims)
    embed_mod.save_embeddings(vectors, out)
    return [out], {"vectors": len(vectors)}


def _retrieve(run, seeds=INPUT, candidates=INPUT, out=OUTPUT, k=Field(int)):
    hits = retrieve_mod.retrieve_top_k(
        embed_mod.load_external_embeddings(seeds),
        embed_mod.load_external_embeddings(candidates), k)
    retrieve_mod.save_hits(hits, out)
    return [out], {"hits": len(hits)}


def _prune(run, vecs=INPUT, report=Field(kind=OUT, flag="--report-out"),
           threshold=Field(float, 0.95)):
    result = retrieve_mod.prune_redundant(
        embed_mod.load_external_embeddings(vecs), threshold)
    write_json(report, asdict(result))
    return [report], {"retained": len(result.retained_ids),
                      "removed": len(result.removed_pairs)}


# Backend kind -> its class and its fields, in the class's parameter order.
BACKENDS = {"file": (quality_mod.FileLabelBackend, {"labels": INPUT}),
            "http": (quality_mod.HttpAnnotationBackend,
                     {"url": Field(), "timeout": Field(float, 30.0),
                      "retries": Field(int, 2)})}


def _annotate(run, corpus=INPUT, out=OUTPUT,
              backend=Field(dict, flag=None)):
    kind = backend.pop("kind", None)  # from the field's copy, dict(value)
    if kind not in list(BACKENDS):  # compared, so an unhashable kind is refused
        raise ConfigError("stages[annotate].backend.kind",
                          f"must be 'file' or 'http', got {kind!r}")
    cls, fields = BACKENDS[kind]
    annotator = cls(*read_fields("stages[annotate].backend.", fields,
                                 backend, run).values())
    samples, errors = quality_mod.annotate_batch(read_corpus(corpus), annotator)
    quality_mod.save_labels(samples, out)
    return [out], {"labeled": len(samples), "errors": len(errors)}


def _train_filter(run, corpus=INPUT, labels=INPUT, out=OUTPUT,
                  dims=Field(int, FilterHyperparams.dims),
                  learning_rate=Field(float, FilterHyperparams.learning_rate,
                                      flag="--lr"),
                  word_ngram_max=Field(int, FilterHyperparams.word_ngram_max),
                  min_count=Field(int, FilterHyperparams.min_count),
                  epochs=Field(int, FilterHyperparams.epochs),
                  bucket_count=Field(int, FilterHyperparams.bucket_count,
                                     flag="--buckets"),
                  seed=Field(int, RUN_SEED, flag=None)):
    labeled = quality_mod.FileLabelBackend(labels).samples
    samples = [(doc.text, labeled[doc.id].label) for doc in read_corpus(corpus)
               if doc.id in labeled]
    model = train_filter(samples, FilterHyperparams(
        dims=dims, learning_rate=learning_rate, word_ngram_max=word_ngram_max,
        min_count=min_count, epochs=epochs, bucket_count=bucket_count,
        rng_seed=seed))
    save_model(model, out)
    return [out], {"samples": len(samples), "epoch_losses": model.epoch_losses,
                   "dropped": {"no_doc": len(labeled) - len(samples)}}


def _score(run, model=INPUT, corpus=INPUT, out=OUTPUT):
    classifier = load_model(model)
    n = write_lines(out, (json.dumps({"id": doc.id,
                                      "score": classifier.predict_score(doc.text)})
                          for doc in read_corpus(corpus)))
    return [out], {"scored": n}


def _filter(run, corpus=INPUT, scores=INPUT, out=OUTPUT,
            keep_fraction=Field(float)):
    def parse(obj, _):
        if not 0.0 <= (score := convert(float, obj["score"])) <= 1.0:
            raise quality_mod.QualityError(
                f"score must be a number in [0, 1], got {score!r}")
        return score

    score_of = read_keyed(scores, "id", parse, quality_mod.QualityError)
    scored, no_score = [], 0
    for doc in read_corpus(corpus):
        if doc.id in score_of:
            scored.append((doc, score_of[doc.id]))
        else:
            no_score += 1
    kept = quality_mod.filter_by_rank(scored, keep_fraction)
    paths = write_corpus(kept, out)
    kept_tokens = sum(d.token_count for d in kept)
    return paths, {"kept_docs": len(kept), "kept_tokens": kept_tokens,
                   "dropped": {"no_score": no_score}}


def _fit(run, obs=INPUT, out=OUTPUT, benchmark=Field(str, None)):
    observations = scaling_mod.load_observations(obs)
    curve = scaling_mod.fit_power_law(observations, benchmark)
    payload = asdict(curve)
    payload["n_obs"] = len([o for o in observations
                            if benchmark is None or o.benchmark == benchmark])
    write_json(out, payload)
    return [out], payload


def _optimize(run, fits=Field(_listed(str),
                              help="comma-separated fit-report paths"),
              out=OUTPUT, weights=Field(_listed(float), None),
              domain=Field(_span, "0.05:0.6"), step=Field(float, 1e-3)):
    curves = [scaling_mod.load_curve(run.input(p, "stages[optimize].fits"))
              for p in fits]
    if weights is None:
        weights = [1.0] * len(curves)
    x_star, loss = scaling_mod.optimal_mix_ratio(curves, weights,
                                                 tuple(domain), step)
    payload = {"x_star": x_star, "aggregate_loss": loss,
               "weights": weights, "domain": domain, "step": step}
    write_json(out, payload)
    return [out], payload


def _mix(run, spec=INPUT, pools=Field(dict, flag=None), out=OUTPUT):
    mix_spec = mix_mod.MixSpec.from_file(spec)
    prefixes = read_fields("stages[mix].pools.", {
        name: Field(kind=IN, default=REQUIRED if ratio else None)
        for name, ratio in mix_spec.ratios.items()}, pools, run)
    corpora = {name: list(read_corpus(prefix))
               for name, prefix in prefixes.items() if prefix is not None}
    manifest, paths = mix_mod.compose_to_dir(corpora, mix_spec, out)
    check = mix_mod.verify_manifest(manifest, os.path.join(out, "mix"))
    realized = {n: e["realized_tokens"] for n, e in manifest.per_class.items()}
    return paths, {"realized_tokens": realized, "verify_manifest": {
        "ok": check["ok"], "max_deviation": check["max_deviation"]}}


STAGES = {name: Stage(name, help, body) for name, help, body in (
    ("stats", "per-class token statistics", _stats),
    ("ingest", "build a corpus from a source manifest", _ingest),
    ("frontier", "expand a URL frontier over a link graph", _frontier),
    ("embed", "embed a corpus into JSONL vectors", _embed),
    ("retrieve", "top-K retrieval against seed vectors", _retrieve),
    ("prune", "greedy redundancy pruning", _prune),
    ("annotate", "label documents via a backend", _annotate),
    ("train-filter", "train the quality classifier", _train_filter),
    ("score", "score a corpus with a trained filter", _score),
    ("filter", "rank-and-keep token-budget filtering", _filter),
    ("fit", "fit a power-law scaling curve", _fit),
    ("optimize", "find the loss-minimizing mix ratio", _optimize),
    ("mix", "compose a training mixture", _mix),
)}


def _stages(value):
    """A non-empty array of stages, each an object naming a known stage."""
    if not isinstance(value, list) or not value:
        raise ValueError("must be a non-empty array")
    for i, stage in enumerate(value):
        if not isinstance(stage, dict) or "name" not in stage:
            raise ConfigError(f"stages[{i}]", "each stage needs a 'name'")
        if stage["name"] not in STAGES:
            raise ConfigError(f"stages[{i}].name",
                              f"unknown stage {stage['name']!r}")
    return value


ROOT = {"workspace": Field(str, "."), "rng_seed": Field(int, 0),
        "report": Field(str, "run_report.json"), "stages": Field(_stages)}


def validate_config(config: dict) -> dict:
    """The root's values; a stage's own keys are read when it runs."""
    if not isinstance(config, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    return read_fields("", ROOT, config)


def run_pipeline(config: dict, workspace: str | None = None) -> dict:
    """Run every configured stage in order; returns the run report.

    Raises ConfigError for schema/path problems and StageError when a
    stage fails at run time; in both cases the report written so far is
    attached to the exception as `.report` when available.
    """
    root = validate_config(config)
    workspace = workspace or root["workspace"]
    os.makedirs(workspace, exist_ok=True)
    digests = {}  # path -> hex digest of the file version the run last hashed
    report = {"rng_seed": root["rng_seed"], "workspace": workspace, "stages": []}
    report_path = os.path.join(workspace, root["report"])

    try:
        with corpus_mod.run_table():  # each file parsed at most once per run
            for stage in root["stages"]:
                name = stage["name"]
                log_event(event="stage_start", stage=name)
                started = time.perf_counter()
                run = StageRun(workspace, root["rng_seed"], digests)
                try:
                    outputs, stats = STAGES[name](stage, run)
                    duration_s = round(time.perf_counter() - started, 6)
                    outputs = {path: sha256_file(path)
                               for path in sorted(set(outputs))}
                except ConfigError:
                    raise
                except Exception as exc:
                    report["stages"].append({"name": name, "status": "failed",
                                             "error": str(exc)})
                    raise StageError(f"stage {name!r} failed: {exc}") from exc
                digests.update(outputs)
                report["stages"].append({
                    "name": name, "status": "ok", "duration_s": duration_s,
                    "inputs": run.inputs, "outputs": outputs, "stats": stats})
                log_event(event="stage_done", stage=name, duration_s=duration_s)
    except (ConfigError, StageError) as exc:
        write_json(report_path, report)
        exc.report = report
        raise
    write_json(report_path, report)
    return report
