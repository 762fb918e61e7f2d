"""Declarative pipeline runner: one JSON config drives every stage.

Stages run sequentially in config order; each stage reads and writes
config-declared paths under the workspace. The run report records
per-stage input/output SHA-256 hashes, durations, and key stats so the
full provenance chain from the final mix back to the raw inputs is
reconstructible from the report alone. An input's digest is of the bytes
the stage read and an output's of the bytes it wrote, taken when the stage
declares the input and when it finishes; a file is hashed once per version.
The run table (`corpus`) also hashes a corpus shard or vectors file each
time a stage reads it, to find the parse of those bytes.
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
from .corpus import (compute_stats, make_document, read_corpus, read_json,
                     read_jsonl, read_lines, sha256_file, write_corpus,
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
    """One config key of a stage, named by the body's parameter.

    kind is IN (an input path: resolved against the workspace, checked to
    exist and hashed as the files `shard_paths` finds for it), OUT (an
    output path, resolved) or VALUE (converted by `type`). A missing or
    null key takes `default`, which is given in config form and converted
    like a configured value.

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


class StageRun:
    """Per-call state of one stage: the workspace and the inputs' digests."""

    def __init__(self, name: str, workspace: str, digests: dict):
        self.name = name
        self.workspace = workspace
        self.digests = digests
        self.inputs = {}

    def resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.workspace, path)

    def input(self, path: str, field: str) -> str:
        """Resolve an input path, check that it exists and record the digest
        of each file `shard_paths` finds, hashed unless the run has it."""
        path = self.resolve(path)
        paths = corpus_mod.shard_paths(path)
        if not (paths or os.path.exists(path)):
            raise ConfigError(f"stages[{self.name}].{field}",
                              f"input does not exist: {path}")
        for p in paths:
            if p not in self.digests:
                self.digests[p] = sha256_file(p)
            self.inputs[p] = self.digests[p]
        return path


class Stage:
    """A stage body and the fields its signature declares.

    `body(run, **fields)` returns (output_paths, stats), where the output
    paths are exactly the files it wrote. Calling the stage with
    (stage_dict, ctx) reads the fields in order, refuses a key that is not
    one of them, runs the body on their values and returns ({input_path:
    sha256}, output_paths, stats); the runner hashes the outputs.
    """

    def __init__(self, name: str, help: str, body: Callable):
        self.name = name
        self.help = help
        self.body = body
        params = list(inspect.signature(body).parameters.values())[1:]
        self.fields = {p.name: p.default for p in params}

    def __call__(self, stage: dict, ctx: dict):
        run = StageRun(self.name, ctx["workspace"], ctx["digests"])
        args = {}
        for key, f in self.fields.items():
            value = stage.get(key)
            if value is None:
                value = ctx["rng_seed"] if f.default is RUN_SEED else f.default
            if value is REQUIRED:
                raise ConfigError(f"stages[{self.name}].{key}",
                                  "missing required field")
            if f.kind == IN:
                value = run.input(value, key)
            elif f.kind == OUT:
                value = run.resolve(value)
            elif value is not None:
                value = _checked(f"stages[{self.name}].{key}", f.type, value)
            args[key] = value
        unknown = sorted(stage.keys() - self.fields.keys() - {"name"})
        if unknown:
            raise ConfigError(f"stages[{self.name}].{unknown[0]}", "unknown key")
        outputs, stats = self.body(run, **args)
        return run.inputs, outputs, stats


def _convert(cast, value):
    """cast(value), refusing what it would bend: only a bool field takes a
    boolean, and an int field takes only an integral float (int(8.9) is 8)."""
    if isinstance(value, bool) != (cast is bool):
        wanted = "true or false" if cast is bool else "no boolean"
        raise TypeError(f"must be {wanted}, got {value!r}")
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return cast(value)


def _checked(field: str, cast, value):
    """_convert(cast, value), refusing with a ConfigError naming field."""
    try:
        return _convert(cast, value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(field, str(exc)) from exc


def _listed(cast):
    """A list value, also accepted as a comma-separated string."""
    def convert(value):
        if isinstance(value, str):
            value = [v for v in value.split(",") if v]
        return [_convert(cast, v) for v in value]
    return convert


def _span(value):
    """A [lo, hi] pair of floats, also accepted as a "lo:hi" string."""
    lo, hi = value.split(":") if isinstance(value, str) else value
    return [_convert(float, lo), _convert(float, hi)]


# Bodies look up corpus and model functions as module globals at call time.


def _stats(run, corpus=INPUT, out=OUTPUT):
    stats = asdict(compute_stats(read_corpus(corpus)))
    write_json(out, stats)
    return [out], stats


def _ingest(run, manifest=INPUT, out=OUTPUT):
    registry = ingest_mod.SourceRegistry.from_manifest(manifest)

    def docs():
        for spec in sorted(registry, key=lambda s: s.name):
            if not spec.origin:
                continue
            data_class = ingest_mod.assign_data_class(spec)

            def parse(obj, lineno):
                if not (isinstance(obj, dict)
                        and isinstance(obj.get("text"), str)
                        and isinstance(obj.get("id", ""), str)):
                    raise ingest_mod.IngestError(
                        'expected a JSON object with a string "text" and an '
                        'optional string "id"')
                # Default ids count physical lines, blank ones included.
                return make_document(
                    id=obj.get("id", f"{spec.name}:{lineno}"),
                    source_id=spec.name,
                    data_class=data_class,
                    text=obj["text"],
                    meta={"origin": spec.origin},
                )
            yield from read_jsonl(run.input(spec.origin, "origin"), parse,
                                  ingest_mod.IngestError)

    paths = write_corpus(docs(), out)
    return paths, {"sources": len(registry), "shards": len(paths)}


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


def _embed(run, corpus=INPUT, out=OUTPUT, dims=Field(int, 256),
           ngram_min=Field(int, 3, flag=None),
           ngram_max=Field(int, 5, flag=None),
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


def _annotate(run, corpus=INPUT, out=OUTPUT,
              backend=Field(dict, flag=None)):
    def setting(key, cast=str, default=REQUIRED):
        field, value = f"stages[annotate].backend.{key}", backend.get(key)
        if value is None and default is REQUIRED:
            raise ConfigError(field, "missing required field")
        return _checked(field, cast, default if value is None else value)

    kind = backend.get("kind")
    if kind == "file":
        annotator = quality_mod.FileLabelBackend(
            run.input(setting("labels"), "backend.labels"))
    elif kind == "http":
        annotator = quality_mod.HttpAnnotationBackend(
            setting("url"),
            timeout=setting("timeout", float, 30.0),
            retries=setting("retries", int, 2))
    else:
        raise ConfigError("stages[annotate].backend.kind",
                          f"must be 'file' or 'http', got {kind!r}")
    samples, errors = quality_mod.annotate_batch(read_corpus(corpus), annotator)
    quality_mod.save_labels(samples, out)
    return [out], {"labeled": len(samples), "errors": len(errors)}


def _train_filter(run, corpus=INPUT, labels=INPUT, out=OUTPUT,
                  dims=Field(int, 256),
                  learning_rate=Field(float, 0.1, flag="--lr"),
                  word_ngram_max=Field(int, 3), min_count=Field(int, 3),
                  epochs=Field(int, 3),
                  bucket_count=Field(int, 2_000_000, flag="--buckets"),
                  seed=Field(int, RUN_SEED, flag=None)):
    label_of = quality_mod.FileLabelBackend(labels).labels
    samples = [(doc.text, label_of[doc.id]) for doc in read_corpus(corpus)
               if doc.id in label_of]
    model = train_filter(samples, FilterHyperparams(
        dims=dims, learning_rate=learning_rate, word_ngram_max=word_ngram_max,
        min_count=min_count, epochs=epochs, bucket_count=bucket_count,
        rng_seed=seed))
    save_model(model, out)
    return [out], {"samples": len(samples), "epoch_losses": model.epoch_losses}


def _score(run, model=INPUT, corpus=INPUT, out=OUTPUT):
    classifier = load_model(model)
    n = write_lines(out, (json.dumps({"id": doc.id,
                                      "score": classifier.predict_score(doc.text)})
                          for doc in read_corpus(corpus)))
    return [out], {"scored": n}


def _filter(run, corpus=INPUT, scores=INPUT, out=OUTPUT,
            keep_fraction=Field(float)):
    score_of = {}

    def parse(obj, _):
        doc_id, score = obj["id"], obj["score"]
        if doc_id in score_of:
            raise quality_mod.QualityError(f"duplicate score for id {doc_id!r}")
        if (isinstance(score, bool) or not isinstance(score, (int, float))
                or not 0.0 <= score <= 1.0):
            raise quality_mod.QualityError(
                f"score must be a number in [0, 1], got {score!r}")
        return doc_id, float(score)

    for doc_id, score in read_jsonl(scores, parse, quality_mod.QualityError):
        score_of[doc_id] = score
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
    curves = [read_json(run.input(p, "fits"), lambda o: scaling_mod.ScalingCurve(
        float(o["c"]), float(o["k"]), float(o["alpha"]),
        float(o.get("rmse", 0.0)), o.get("benchmark", "")),
        scaling_mod.ScalingError) for p in fits]
    if weights is None:
        weights = [1.0] * len(curves)
    x_star, loss = scaling_mod.optimal_mix_ratio(curves, weights,
                                                 tuple(domain), step)
    payload = {"x_star": x_star, "aggregate_loss": loss,
               "weights": weights, "domain": domain, "step": step}
    write_json(out, payload)
    return [out], payload


def _mix(run, spec=INPUT, pools=Field(dict, flag=None), out=OUTPUT):
    corpora = {name: list(read_corpus(run.input(prefix, f"pools.{name}")))
               for name, prefix in pools.items()}
    manifest, paths = mix_mod.compose_to_dir(
        corpora, mix_mod.MixSpec.from_file(spec), out)
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


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    unknown = sorted(config.keys() - {"workspace", "rng_seed", "report", "stages"})
    if unknown:
        raise ConfigError(unknown[0], "unknown key")
    stages = config.get("stages")
    if not isinstance(stages, list) or not stages:
        raise ConfigError("stages", "must be a non-empty array")
    for i, stage in enumerate(stages):
        if not isinstance(stage, dict) or "name" not in stage:
            raise ConfigError(f"stages[{i}]", "each stage needs a 'name'")
        if stage["name"] not in STAGES:
            raise ConfigError(f"stages[{i}].name",
                              f"unknown stage {stage['name']!r}")
    return config


def run_pipeline(config: dict, workspace: str | None = None) -> dict:
    """Run every configured stage in order; returns the run report.

    Raises ConfigError for schema/path problems and StageError when a
    stage fails at run time; in both cases the report written so far is
    attached to the exception as `.report` when available.
    """
    validate_config(config)
    rng_seed = _checked("rng_seed", int, config.get("rng_seed", 0))
    workspace = workspace or config.get("workspace", ".")
    os.makedirs(workspace, exist_ok=True)
    ctx = {"workspace": workspace, "rng_seed": rng_seed, "digests": {}}

    report = {"rng_seed": ctx["rng_seed"], "workspace": workspace, "stages": []}
    report_path = os.path.join(workspace, config.get("report", "run_report.json"))

    with corpus_mod.run_table():  # each file parsed at most once per run
        for stage in config["stages"]:
            name = stage["name"]
            log_event(event="stage_start", stage=name)
            started = time.perf_counter()
            try:
                inputs, outputs, stats = STAGES[name](stage, ctx)
                duration_s = round(time.perf_counter() - started, 6)
                outputs = {path: sha256_file(path) for path in sorted(set(outputs))}
                ctx["digests"].update(outputs)
            except ConfigError:
                write_json(report_path, report)
                raise
            except Exception as exc:
                report["stages"].append({"name": name, "status": "failed",
                                         "error": str(exc)})
                write_json(report_path, report)
                err = StageError(f"stage {name!r} failed: {exc}")
                err.report = report
                raise err from exc
            report["stages"].append({
                "name": name, "status": "ok", "duration_s": duration_s,
                "inputs": inputs, "outputs": outputs, "stats": stats})
            log_event(event="stage_done", stage=name, duration_s=duration_s)
    write_json(report_path, report)
    return report
